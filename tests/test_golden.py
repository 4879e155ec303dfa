"""Golden trajectory fingerprints: any change to the numerics shows up here.

Each run fingerprint is a pair: the sha256 of ``final_x.tobytes()`` and
the sha256 of the bytes of the run's ``metrics.csv``.  Together they cover
the bytes of the single hash they replaced, and the trajectory is pinned
apart from the metrics derived from it.  The stability cases hash the
first-draw position and the per-round distance and held-out-gap arrays.
A change that is meant to keep the numerics, such as a refactor or an
optimisation, must leave every hash unchanged.  A change
that alters them on purpose replaces the hash and says why in CHANGES.md.

The minibatches come from the engine's own counter-based SplitMix64
stream (``engine.client_batches``), exact uint64 arithmetic that no
numpy ``Generator`` takes part in, so the draws are the same under any
numpy version.  The data, partition, init and coordinator streams still
come from numpy's ``SeedSequence`` and ``default_rng``.  The hashes are
tied to the BLAS kernels they were recorded with (numpy 2.4.6 on the
scipy-openblas 0.3.31 build, x86-64 with AVX-512).  Another BLAS build or
CPU kernel may round matrix products differently and fail these tests
although nothing in the program changed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgossip.config import load_config
from dgossip.engine import build_problem, run_experiment
from dgossip.metrics import write_metrics_csv
from dgossip.stability import first_draw, stability_probe

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LOGISTIC = "logistic_dirichlet.toml"

ALGORITHMS = (
    "oled_sgd", "oled_sam", "dfedavg", "dfedavgm",
    "dfedsam", "dpsgd", "fedavg_central", "fedsam_central",
)

RUNS = {
    **{
        f"logistic[{algo}]": (LOGISTIC, (f"algorithm={algo}", "rounds=20", "participation=0.25"))
        for algo in ALGORITHMS
    },
    "large_random_topology": ("large_random_topology.toml", ("rounds=3",)),
    "quadratic_ring": ("quadratic_ring.toml", ()),
    "diagnostics[oled_sam]": (LOGISTIC, ("algorithm=oled_sam", "rounds=20", "diagnostics=true")),
    "diagnostics[fedsam_central]": (
        LOGISTIC, ("algorithm=fedsam_central", "rounds=20", "participation=0.25", "diagnostics=true"),
    ),
}

# (sha256 of final_x.tobytes(), sha256 of the metrics.csv bytes)
RUN_HASHES = {
    "diagnostics[fedsam_central]": (
        "dc230f3bb544ab434b173a0f2f9076e449a27787738a90245959a72639cfb067",
        "1152626f9bd1716c3411306bca8a2b1062f25af9e03472b304e16b3fe70b4421",
    ),
    "diagnostics[oled_sam]": (
        "0a4317b51477f308d8901d3f6979cc064d02129ff9914b8bde9b929a969e5280",
        "e69392fccdd690de1b9d4f48f101aa0cdd70ad1c7d42ec19c327d163db6d76d6",
    ),
    "large_random_topology": (
        "d953625506e5725b80b92dad9f506e2af7a49ca1e2d01ec10d90d83e8125ae4f",
        "75cd80fb6cf84e4da0fa872e237c896ca865c12d650c2fb1dc4d635ae48adf73",
    ),
    "logistic[dfedavg]": (
        "29a8d70bb9cf19c5759f58d156e2f275a0a9773ab16ba5a1e1aa6939b25c4d23",
        "7253553f57696b94e4c1b8cd515b997b08efe9c001d27376cde885b4df1cdf2a",
    ),
    "logistic[dfedavgm]": (
        "5f1b1dbd9c79b351b5b266c8f7023e918a816a319b999b3e41bdf1bc6e2a927e",
        "a65d83ed59fb3dd45e3a073ebc96018391a06582f35c4aab888cd3ca1ee3bb3d",
    ),
    "logistic[dfedsam]": (
        "1074449b001dc9c51ad85241aaaf4dcc8afc9ead6a36f96172c86964f5da8ee4",
        "df6d9116e0e2f18f38a3dca541abc5b17ef5ce9450ce2af1b30ad92a231ba671",
    ),
    "logistic[dpsgd]": (
        "8192e00ca5be6c68b879dd5f01e2c6289d769ea2b0873efc4c0c6fcc45197bda",
        "5c347dbcb346c4bfff39dd770788ee11290a355a4fd0c6ba98366ee2de650ce4",
    ),
    "logistic[fedavg_central]": (
        "51cf8148b1df4a77d6377d11fb7fbc4d072d8f5e640dd68a6838d266d173dbc1",
        "7573d3eb8ecd1b9ba4ee5e5bed4f052a2199c5166e82655878a1818e4ba2f51a",
    ),
    "logistic[fedsam_central]": (
        "dc230f3bb544ab434b173a0f2f9076e449a27787738a90245959a72639cfb067",
        "16bc103b9082c087816c43ad5640e5a100f7ee86ff8e8a5635bb0d2edf4a55d7",
    ),
    "logistic[oled_sam]": (
        "0a4317b51477f308d8901d3f6979cc064d02129ff9914b8bde9b929a969e5280",
        "cbf5fa0df27d801b86400030100d69f0ef3c450282bed555fef72278c9fbb1e9",
    ),
    "logistic[oled_sgd]": (
        "fe0822d3dc115d85183a57cddea5d32b2515ef4bdbd0cc54907cf9f5bf58cc07",
        "b0c66ecf3fd0177ee00f0558e053cc4f18aaf34117f6c0f506d8271c94d175ab",
    ),
    "quadratic_ring": (
        "3b88c51951f02b95db9c67c048cf3eeb11ee5a552620ec1f80399f9465f6098f",
        "3d39031e0caf91446ae3ddcc6b1cbddcad1d54de549320db3ad5bb6b4ecea834",
    ),
}

# (overrides, swapped (client, shard-local sample))
PROBES = {
    "stability[oled_sgd]": (("rounds=30",), (2, 1)),
    "stability[fedavg_central]": (("algorithm=fedavg_central", "rounds=30", "participation=0.5"), (3, 0)),
}

PROBE_HASHES = {
    "stability[fedavg_central]": "a44d039fbff0da64ea1138ce2859189f70a97f1366ecac24773552704dc16879",
    "stability[oled_sgd]": "0f0b4a94a7421ec1d37b8b78dc3e3f3eefc448ee4c70109674a9c7c73089edf6",
}


def run_fingerprint(preset: str, overrides, tmp_path) -> tuple[str, str]:
    result = run_experiment(load_config(str(CONFIGS / preset), list(overrides)))
    csv = tmp_path / "metrics.csv"
    write_metrics_csv(result.records, csv)
    return hashlib.sha256(result.final_x.tobytes()).hexdigest(), hashlib.sha256(csv.read_bytes()).hexdigest()


def probe_fingerprint(overrides, swap) -> str:
    cfg = load_config(str(CONFIGS / LOGISTIC), list(overrides))
    problem = build_problem(cfg)
    flipped = (int(problem.shards[swap[0]].labels[swap[1]]) + 1) % problem.spec.num_classes
    trace = stability_probe(cfg, problem, swap, flipped)
    digest = hashlib.sha256(repr(trace.first_draw).encode())
    digest.update(trace.distances.tobytes())
    digest.update(trace.heldout_gap.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_fingerprint(name, tmp_path):
    preset, overrides = RUNS[name]
    assert run_fingerprint(preset, overrides, tmp_path) == RUN_HASHES[name]


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_fingerprint(name):
    overrides, swap = PROBES[name]
    assert probe_fingerprint(overrides, swap) == PROBE_HASHES[name]


def test_probe_cases_reach_their_first_draw():
    # a probe whose swapped sample is never drawn would not exercise the divergence
    for overrides, swap in PROBES.values():
        cfg = load_config(str(CONFIGS / LOGISTIC), list(overrides))
        first = first_draw(cfg, len(build_problem(cfg).shards[swap[0]]), swap)
        assert first is not None and first[0] < cfg.rounds


@pytest.mark.parametrize("name", ["logistic[oled_sgd]", "logistic[oled_sam]", "logistic[fedavg_central]"])
def test_run_fingerprint_is_independent_of_blas_threads(name, tmp_path):
    # the determinism contract: outputs do not depend on the BLAS thread count,
    # through the SAM row norms (lam=0.1) and the seeding of a participant subset too
    child = (
        "import pathlib, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_golden import RUNS, run_fingerprint; "
        "print(*run_fingerprint(*RUNS[sys.argv[2]], pathlib.Path(sys.argv[3])))"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(Path(__file__).parent), name, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(tuple(proc.stdout.split()))
    assert digests == [RUN_HASHES[name]] * 2
