"""Golden trajectory fingerprints: any change to the numerics shows up here.

Each fingerprint is the sha256 of ``final_x.tobytes()`` followed by the
bytes of the run's ``metrics.csv`` (the stability cases hash the
first-draw position and the per-round distance and held-out-gap arrays
instead).  A change that is meant to keep the numerics, such as a
refactor or an optimisation, must leave every hash unchanged.  A change
that alters them on purpose replaces the hash and says why in CHANGES.md.

The hashes are tied to the BLAS kernels they were recorded with (numpy
2.4.6 on the scipy-openblas 0.3.31 build, x86-64 with AVX-512).  Another
BLAS build or CPU kernel may round matrix products differently and fail
these tests although nothing in the program changed.
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

RUN_HASHES = {
    "diagnostics[fedsam_central]": "7fbfffeebcc963df229c2b3452ef1446930df298d7d7e3c2c589ef4583f3fc95",
    "diagnostics[oled_sam]": "6180f8c043651b019c786c3d9f87c521a4a8186c097fb59b917c24f0ad74050a",
    "large_random_topology": "cd52fae253004860e3fd6879a6a561624d85c85041f3e97c8f6b240ea079da06",
    "logistic[dfedavg]": "1a126570aa7dec39ecfb216a3627db5636cf34285a8ac850ebf8826588e0ffbd",
    "logistic[dfedavgm]": "57ebfaccd3c8130db7cef9038ee46c0b9f52949abde005bc405077053c8023a3",
    "logistic[dfedsam]": "4940cf716c7676fa9d62db8248f3223d5b1b67481782f9a2758f3fbac78fbe92",
    "logistic[dpsgd]": "1bab8b0ea1354dc4738f8d927462358ef515d39be2a95b0c8f960e39dc55dbc4",
    "logistic[fedavg_central]": "06f74150ad0865bc3bb93e0f8ed67adb1fcdc797305c7325964d20fca6293298",
    "logistic[fedsam_central]": "0277f081adfc386bf09b277050fe648130f842a1a1926b777a9322b5ee59f507",
    "logistic[oled_sam]": "7b96448ab75a20bfe299fd39e52fecbdd7aa121182a5f4eb3a07545346b97165",
    "logistic[oled_sgd]": "b42ee382166675c9497cba52670c6ef253ce3069cb96c4f03169a2d808465ac3",
    "quadratic_ring": "c0aabb843815cf6bb3e5e903c86ae1dc20fd573cdee0d94880c32ba9670b800a",
}

# (overrides, swapped (client, shard-local sample))
PROBES = {
    "stability[oled_sgd]": (("rounds=30",), (2, 1)),
    "stability[fedavg_central]": (("algorithm=fedavg_central", "rounds=30", "participation=0.5"), (3, 0)),
}

PROBE_HASHES = {
    "stability[fedavg_central]": "a074bce233481865a153f87d265db5b14cf0c85dbfe8fdb7d356eeb466494b79",
    "stability[oled_sgd]": "152a43703683e011ca5d0f85b0370a2ee9712f4f3c1a93bcc58ed80d96e8b572",
}


def run_fingerprint(preset: str, overrides, tmp_path) -> str:
    result = run_experiment(load_config(str(CONFIGS / preset), list(overrides)))
    csv = tmp_path / "metrics.csv"
    write_metrics_csv(result.records, csv)
    return hashlib.sha256(result.final_x.tobytes() + csv.read_bytes()).hexdigest()


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
        "print(run_fingerprint(*RUNS[sys.argv[2]], pathlib.Path(sys.argv[3])))"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(Path(__file__).parent), name, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests == [RUN_HASHES[name]] * 2
