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
although nothing in the program changed.  That holds for gossip too: every
decentralized case here mixes on the dense path, one ``W @ Z`` product
whose sum order is the BLAS kernel's.
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
        "93b69034391c045daa892de169d49687b7ab2dbd03b41e6f09ac663f1908c464",
        "5a2f9185594f576104aa9a972b3164338645ad17d27becf51d8d9984f917899f",
    ),
    "large_random_topology": (
        "9802830283d9da5ead4c8af37313e9f2c4b9371c275dc5388d7d55ca2e9af77e",
        "cc09a08e9562f374e891c4f451bfaeee52ea50d59c70e0e97568e1ea33a035ca",
    ),
    "logistic[dfedavg]": (
        "ee8371628faa3385a2cdc085b98ebbbdbf495c43214aa1002f34443e6bbc10dc",
        "eedd8c512a0db8647e74e54bdb30b96941c976b030c139dac04f2db2ad736223",
    ),
    "logistic[dfedavgm]": (
        "95f9cd738cbf0d13e1db1d07ceef5b505e8c1631410926ea054e7aaed3e1cce8",
        "ebfdf6bcc7aae77a118619b2293f48f6926963aa24615410be26a5aad6655b02",
    ),
    "logistic[dfedsam]": (
        "337514d36c50e85c9ba99f948c44bf26ad9033065cda4695d0af9b0598a46ba4",
        "c277f2e1d80a3abe8bd7a69429ceda5eefea2555068a42f9bd095b48737de54c",
    ),
    "logistic[dpsgd]": (
        "69f58a0bcf1a5579bc2ed64f6228352f72538523185bd50d0c8ca24e8ea0f94d",
        "d6cf356c9a59cc986bbd29985680c43fd459a36ea5d4a2ee41ea3ee47f1eaeca",
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
        "93b69034391c045daa892de169d49687b7ab2dbd03b41e6f09ac663f1908c464",
        "f1c074718208f8bb68acb209887337bfbe82c67a300804efdd542cebc43e7d71",
    ),
    "logistic[oled_sgd]": (
        "da3e0a2dfc471aa572f9c22370b78c28438fd74a67c6befd14929a05ba0f28f2",
        "2f680961265de48af1cc5969d6041feaff2ef3644f8aec9c8820aa8aa8e2faf1",
    ),
    "quadratic_ring": (
        "1beedcd8c2ff94248d8193c5c13f7e39a50ab0018e1614dbd63f40f55fabf538",
        "1d48d66136c80bc530ebe1e15b7713cf3288e42b2c383208fd5e32c1c7325f6a",
    ),
}

# (overrides, swapped (client, shard-local sample))
PROBES = {
    "stability[oled_sgd]": (("rounds=30",), (2, 1)),
    "stability[fedavg_central]": (("algorithm=fedavg_central", "rounds=30", "participation=0.5"), (3, 0)),
}

PROBE_HASHES = {
    "stability[fedavg_central]": "a44d039fbff0da64ea1138ce2859189f70a97f1366ecac24773552704dc16879",
    "stability[oled_sgd]": "b5e84cf4d0728ac83bd1a6a096215878d894d1fc0758ed100264ac06b20d104d",
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
