"""Golden trajectory fingerprints: any change to the numerics shows up here.

Each run fingerprint is a pair: the sha256 of ``final_x.tobytes()`` and
the sha256 of the bytes of the run's ``metrics.csv``.  Together they cover
the bytes of the single hash they replaced, and the trajectory is pinned
apart from the metrics derived from it.  The stability cases hash the
first-draw position and the per-round distance and held-out-gap arrays.
A change that is meant to keep the numerics, such as a refactor or an
optimisation, must leave every hash unchanged.  A change
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

# (sha256 of final_x.tobytes(), sha256 of the metrics.csv bytes)
RUN_HASHES = {
    "diagnostics[fedsam_central]": (
        "9b53372929bfdddb59c69cfcbd57b712157dc2b7c52fb2ad5bf367f6f24e86bb",
        "c94e43eb8465d4c18b9ac353d3295d7929af8330d79922d35b89e6ab9a349e56",
    ),
    "diagnostics[oled_sam]": (
        "6a7c69c76e3f495d1c7380671b8baca714fdcf09701510bed90d577a3de961ed",
        "7f09c34efff5e7af31f8fb84ff24e5190bff81eb8597b0213a7c0b5f628568ef",
    ),
    "large_random_topology": (
        "02e43686f41b618b56cdf0f209e66c08a42506ebedf6632ed16a7903a3ecb02c",
        "6d028d99c9a0e52b17a38cd8728cf94a4b28588afc982a0097baeb66b963d0e7",
    ),
    "logistic[dfedavg]": (
        "b9f9a19aba4f15bdb8ceac4c8e24f2cae8d40721a992a8bae832438ad275933d",
        "4a88303dd37635a6b404f2fe03010874b010c00ff62f80c01711d5f2b556148a",
    ),
    "logistic[dfedavgm]": (
        "cf2ddcfcb65a9c84f7c8c707aa1aa6d140ece709c06abc33911d923d95639f7c",
        "46b1914990c031f5ade009f5fbb490565e4ef761123fab614c025d027d4fe7ae",
    ),
    "logistic[dfedsam]": (
        "84b3a7f1414efc8f42e6d390cc6cc96a3efe41895aecf98580d5c9fa4bcf5497",
        "adfd523ec6531b1d8f97f9fdae406d939692a51b13c45177fbfe33e33db99154",
    ),
    "logistic[dpsgd]": (
        "a8d8b03f53783cb618b152c1418e02fb8c58731c4a19aaa9f01174c5ef4fb93a",
        "426b2628d8c38f074f20e99415e265a458eb5a4e0a2ab1b66817c09794844a5b",
    ),
    "logistic[fedavg_central]": (
        "24c57018cd76df2088273a87d3386ea716f5bfbc6503aec223d2c968cf6c64ac",
        "6a47583bb16523ead6a06e378159ec9bf284217a4577c63a36a985f721af24eb",
    ),
    "logistic[fedsam_central]": (
        "9b53372929bfdddb59c69cfcbd57b712157dc2b7c52fb2ad5bf367f6f24e86bb",
        "9c29164179dd3eff3d9cd257cafd361b8ab513ae8f577915ed8be37f2760a162",
    ),
    "logistic[oled_sam]": (
        "6a7c69c76e3f495d1c7380671b8baca714fdcf09701510bed90d577a3de961ed",
        "2a3e723d7762ba48b0405c1e563d7d73d2089698b59f723788856655ab1e6c10",
    ),
    "logistic[oled_sgd]": (
        "a3b67994bb2a29bc71b5988dcf68b4a5cf3e861ab2d4fe36049a6a7b26c82717",
        "df6893fd76e28fef19bbe4efe8fa445b4330bbdc6e43cef12e0f995a251b1ea4",
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
    "stability[fedavg_central]": "a074bce233481865a153f87d265db5b14cf0c85dbfe8fdb7d356eeb466494b79",
    "stability[oled_sgd]": "152a43703683e011ca5d0f85b0370a2ee9712f4f3c1a93bcc58ed80d96e8b572",
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
