"""Golden trajectory fingerprints: any change to the numerics shows up here.

Each run fingerprint is a pair: the sha256 of ``final_x.tobytes()`` and
the sha256 of the bytes of the run's ``metrics.csv``.  Together they cover
the bytes of the single hash they replaced, and the trajectory is pinned
apart from the metrics derived from it.  The stability cases hash the
first-draw position and the per-round distance and held-out-gap arrays.
A change that is meant to keep the numerics, such as a refactor or an
optimisation, must leave every hash unchanged.  A change
that alters them on purpose replaces the hash and says why in CHANGES.md.

Every seed and every per-round draw comes from the keyed counter-based
SplitMix64 stream of ``dgossip.keyed``, exact uint64 arithmetic: the
minibatches, the central participants, each random_k round's graph and
the data, partition and init seeds.  numpy ``Generator``s seeded from
those keys run only at set-up, to draw the synthetic data, the partition
and the initial model.

The hashes are tied to the BLAS kernel they were recorded on, so they are
held per OpenBLAS kernel, by the name ``scipy_openblas_get_corename64_``
gives it (numpy 2.4.6 on its scipy-openblas 0.3.31 build; ``SkylakeX``,
``Haswell`` and ``Sandybridge`` are recorded).  Two kernels may round a
matrix product differently, gossip's ``W @ Z`` included, so each has its
own hashes.  A kernel with none recorded fails and names itself.  The
host's kernel is checked in process, and every other recorded kernel in a
child under ``OPENBLAS_CORETYPE``, skipped where the host runs another.
``OPENBLAS_CORETYPE=<kernel> python tests/test_golden.py``, with ``src``
on ``PYTHONPATH``, prints that kernel's entries; a change that moves the
numerics on purpose records them on every kernel.
"""

import ctypes
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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

# (overrides, swapped (client, shard-local sample))
PROBES = {
    "stability[oled_sgd]": (("rounds=30",), (2, 1)),
    "stability[fedavg_central]": (("algorithm=fedavg_central", "rounds=30", "participation=0.5"), (3, 0)),
}

# per OpenBLAS kernel, as scipy_openblas_get_corename64_ names it:
# RUN_HASHES[kernel][name] is (sha256 of final_x.tobytes(), sha256 of the metrics.csv bytes)
RUN_HASHES = {
    "SkylakeX": {
        "diagnostics[fedsam_central]": (
            "1cb736b6179a10ba931c62ef2dff826e54a46b6aae18f9ec36b72f524f4f82f7",
            "94ea538f35667503947ea8723a228d91f2abfa501c4b4e4091df6b84c6a790ef",
        ),
        "diagnostics[oled_sam]": (
            "76842562ef700adb1f9870e7536dea9d03804a9abbe8e17e19767cc2ef714a6d",
            "6cb57837be3e044864232426552fd9d5b44057b06ddb9f15c38ff0b7458c07a8",
        ),
        "large_random_topology": (
            "fc11c6efcdf3000a65e184c1aaf4a09e7b058121985fe85193d2681834a01721",
            "0ab972ad4a93f8332399ad7e9fac661d9f282d168a1a549a6bd013bd8b75fe0b",
        ),
        "logistic[dfedavg]": (
            "c8d1584c5e8b05c53dcc955e5b9190acf200854da152d76aeafad111ddbc445e",
            "105c73589406ebd82f8202a9969858eb75eb25e7c8144f5d69a5ef2b8fb79e54",
        ),
        "logistic[dfedavgm]": (
            "a54af58914fe5738fb93c8d4d4f8e1a95ce9180199e573cd3f7eb49e61363f11",
            "2ba8cd9c0270b833fb4a6724585eda42fc087880d8e393e029e2e71ea3d3bdf4",
        ),
        "logistic[dfedsam]": (
            "3a9f1adbcbbf94d94a1de7e90692a486b15ab7170b8dc265423d63878397071f",
            "e099a04b2d600403ee813d251227c6cbaa2c0b05a77827ecc0d35fccada46d34",
        ),
        "logistic[dpsgd]": (
            "41c43689cb7f74b66c3876d34287fa729ae5910e2b4f12c1cf06989c4dd9b2cb",
            "0e56dad8df38286305930587bbc689b688c86295659d673e4ce4611dbdb317f3",
        ),
        "logistic[fedavg_central]": (
            "8cd58eb6189ad984da83a052b277954e2126507febb599b73fbcdcce3e7f8eed",
            "e4d41b3fcfc4fb66a7cea32e4bce33b9266c466cbe2e3e14711f6e92224f90ec",
        ),
        "logistic[fedsam_central]": (
            "1cb736b6179a10ba931c62ef2dff826e54a46b6aae18f9ec36b72f524f4f82f7",
            "ae9429fd0b3b78441ee71850b7bed548b6069c0f6de1a32b67d4bd353af1a3a8",
        ),
        "logistic[oled_sam]": (
            "76842562ef700adb1f9870e7536dea9d03804a9abbe8e17e19767cc2ef714a6d",
            "06162c539cc419a844c47f26877f13e4d68eb78718af4d128dea37721334d730",
        ),
        "logistic[oled_sgd]": (
            "d2ff2c7b6f5260ec04dcbe8e2544da8b9484262bacb0082a88e34f7409ed9f44",
            "4b3a9fdbc10a86e7dc89a7b06ac75b1225786f3b1543272ca284a5985963332a",
        ),
        "quadratic_ring": (
            "87704e24b176a9c8c10ec42547bd98455a086db6b759445c1518cbf35a0f48b5",
            "e9785d45af85f76464a32d21513ab234da26872130edf23cd688402b98ae68be",
        ),
    },
    "Haswell": {
        "diagnostics[fedsam_central]": (
            "bc9135c2acdcf0a6f869a0926e71f39f8a7d6e0349a0afd639b83650dc8ee114",
            "705edb41e018e6aba292917962697cdf6287e1d165da079badcf8b74ccd69796",
        ),
        "diagnostics[oled_sam]": (
            "f1f5e56e741ae00d0c5aa7fdb784ee010ea652e7e75981caebdad40dc9417737",
            "e395dc448b9492eb69043c0b127bf26f07630d8e0c84210874d7c04a1537aace",
        ),
        "large_random_topology": (
            "3e563403a2d144d1f44cfb38616392391b36b866d632d03ebcf8d4dc9a829b19",
            "934e9d2abd6e33a4cf370f9ad140b08c6ba351c623db880c49a72eb1c063068c",
        ),
        "logistic[dfedavg]": (
            "193dbaa1d073df86aa974154c37c81a4bc88fd7ddc04c60082c170e8f7db4e95",
            "a8eeda0bb8e5b226c740857526017b383de03f0ae704aa213b5c7e96112899b2",
        ),
        "logistic[dfedavgm]": (
            "e220cd7ff857a002b1c98fb8117050563abcc4730bc8897896b09c353017e21c",
            "80f341e8a12111b335820fa4082129341f64010e60c41256d728112354d145a9",
        ),
        "logistic[dfedsam]": (
            "99b8444cee463a7c4d9a333a256d2b553d9e029827e36192126f078a4736cd88",
            "ad39a6c7bd3ef237bd8552556f0806b7afb5931e2cf6dbc2dd01ae0c607acebb",
        ),
        "logistic[dpsgd]": (
            "52d26764a05bff5009de4ec05390aa4a2e57801929ceca579e24bb30abd520ff",
            "70babd6a660b51f42d3b29b1fc15aebc5d35b92bf01294b5cf4adb23266d66af",
        ),
        "logistic[fedavg_central]": (
            "258276044d84640b3d80e9e910398dea8564708eb1c16b1a75f841dab7ab10bb",
            "6bb04c05c82a405ec8e8096a40c98f9a3025a784c4898488ebc690ba05a4767d",
        ),
        "logistic[fedsam_central]": (
            "bc9135c2acdcf0a6f869a0926e71f39f8a7d6e0349a0afd639b83650dc8ee114",
            "e8fd18158477e5d4741847f7eb5fb1d6c6407e97dda075af8d4c8798f3dbe9d1",
        ),
        "logistic[oled_sam]": (
            "f1f5e56e741ae00d0c5aa7fdb784ee010ea652e7e75981caebdad40dc9417737",
            "50cef76de487cc734416c1241c81c5b6dc7e19ea8cb6957cd93d4a83e5b62946",
        ),
        "logistic[oled_sgd]": (
            "cc3b9c8e9c2777f6f8eb309cc1a0107da8547f18e99765cd287d3352cfd8524e",
            "0e7a5e3868547a91a09a5e0d9de9c7b602915aecdef9294d9a909937eaba2ffa",
        ),
        "quadratic_ring": (
            "5b9866cb39ffaf9c3d17e9d315a92844a8e7b36414028cdc394eb1907aad0fac",
            "da5aeaa29c142bf4d5cf68e9398be7f2be41c4c460fe2bb05d75062d45d7f42d",
        ),
    },
    "Sandybridge": {
        "diagnostics[fedsam_central]": (
            "c0dace5c86cef977e985745fe547e98d2e9d2139ffd75df6872e1e555dc412ce",
            "6cd433eef0e62a06da8183af3a1e6d344d6ffb3fa13fd3551c03c409c2b575da",
        ),
        "diagnostics[oled_sam]": (
            "bd42afb34afa196583bba07b4c4dc602d277c33e6799e70d6c72ad1ea2b2e30c",
            "1316d68116440eb8314d6d32843cde5ace8a4921d4b633e8e2cf2c6021951f73",
        ),
        "large_random_topology": (
            "f2e0a02faee1d8bad75ba0a1cdf943e9de70b103d3f2a54bdda4580a6f4ac6be",
            "38d78c0d601e8b9f054a539e7d27da83cc0966c9ab328b73a5fec6583b13a2be",
        ),
        "logistic[dfedavg]": (
            "b3670f77943f98f588dab58255171dc8f16415970814e3354df9cf8cf3de8b86",
            "e625bb4a65841fff690301ac6ec582cf5019da3c40e53d95d60a44f30da61f2d",
        ),
        "logistic[dfedavgm]": (
            "d5bf83b963ba92e374824b0e264bdacdc677c469c037796f5336b01d4117521a",
            "0aab531f7de41d2135c37b585fb817f40a54aec530f3e38c6211db9598422881",
        ),
        "logistic[dfedsam]": (
            "da7f1a4286b50ca220c648374ab40689e02064b9cdff8d48452832ce924338ad",
            "d65cb69f2b315ef640c5a71b2b6ed23b70bbd344b47c6cb24414ef2cbec1d94f",
        ),
        "logistic[dpsgd]": (
            "0180d5c5bc680064bdfaf6f2e2ec83d6efb17ef3f022311508eee9cef4f7033b",
            "24abeb1f8d467a8d1e8bf496604ab66acc2fc79f5b978610166e62baac4a1490",
        ),
        "logistic[fedavg_central]": (
            "83af48915c80d2f650b953e50669bf4043d98a37099a89e83c0f4b1bea2ead67",
            "3199e3fe9d9da7664ffd55c8443323302aa1e5d1f17ced9c4d487445a9058c69",
        ),
        "logistic[fedsam_central]": (
            "c0dace5c86cef977e985745fe547e98d2e9d2139ffd75df6872e1e555dc412ce",
            "84f2f84a1ae2590c0c006e7e36ef4ce2ec2c0d387c956a5ae4723285515ed411",
        ),
        "logistic[oled_sam]": (
            "bd42afb34afa196583bba07b4c4dc602d277c33e6799e70d6c72ad1ea2b2e30c",
            "f1befb3e97f7a48e41107ce0da0d5a5c1466c7b9d83194dbcc7d212a0652bae0",
        ),
        "logistic[oled_sgd]": (
            "a26a00e9ee5278ea26d5fcf3241fb1bf001e3c8a4039cd738fa6d68c12c2b0ab",
            "20d667f70946856782200d2b93c7cd7ec08f751cc6b68aff64951b12d101da7d",
        ),
        "quadratic_ring": (
            "ba57840c64bdd9ad35af36fde123ef84638e6b471e853cfdfc14fc3700db91a6",
            "3f74ef2b6401ed7e4fd321453734da8872600fae281c76513db17709db4fbb85",
        ),
    },
}

PROBE_HASHES = {
    "SkylakeX": {
        "stability[fedavg_central]": "3a7601bd7c8e22d5fe04512cc85819a928ffbed7adacc578642f0144372d1263",
        "stability[oled_sgd]": "afb6ee28406d3b44565a89f921837c84abd157384a1610df298ea308d84d0dca",
    },
    "Haswell": {
        "stability[fedavg_central]": "1734bf366214185e7271b3ffb7660bd0cf54e606a66ed680ff39bc2f77e407d2",
        "stability[oled_sgd]": "89a982ba827422928b1fed7a44c3355d81ea85bcede73417be24b9ffc5a0eb07",
    },
    "Sandybridge": {
        "stability[fedavg_central]": "4bf6db973fda60db32a44095d40e6ae635bd33ab6264e4359f4b40a564aba37f",
        "stability[oled_sgd]": "4a89ec48e3b3268f53d816c9b6cc53b324944d001afd500bebf1b35b925acadf",
    },
}


@functools.cache
def blas_kernel() -> str:
    """The name of the OpenBLAS kernel numpy runs on, such as ``SkylakeX``, or ``unknown``."""
    root = Path(np.__file__).parent
    for path in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(root.glob(".dylibs/*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded: the same file maps to one handle
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            corename = lib.scipy_openblas_get_corename64_
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def recorded(hashes: dict) -> dict:
    """This kernel's hashes; a kernel with none recorded fails, naming itself and how to record it."""
    kernel = blas_kernel()
    if kernel not in hashes:
        pytest.fail(
            f"no golden hashes are recorded for the OpenBLAS kernel {kernel!r}; on that kernel, "
            f"`PYTHONPATH=src OPENBLAS_CORETYPE={kernel} python tests/test_golden.py` prints them"
        )
    return hashes[kernel]


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
    assert run_fingerprint(preset, overrides, tmp_path) == recorded(RUN_HASHES)[name]


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_fingerprint(name):
    overrides, swap = PROBES[name]
    assert probe_fingerprint(overrides, swap) == recorded(PROBE_HASHES)[name]


def test_probe_cases_reach_their_first_draw():
    # a probe whose swapped sample is never drawn would not exercise the divergence
    for overrides, swap in PROBES.values():
        cfg = load_config(str(CONFIGS / LOGISTIC), list(overrides))
        first = first_draw(cfg, len(build_problem(cfg).shards[swap[0]]), swap)
        assert first is not None and first[0] < cfg.rounds


def test_an_unrecorded_kernel_fails_naming_itself_and_its_recording(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "blas_kernel", lambda: "Zen")
    with pytest.raises(pytest.fail.Exception, match="'Zen'.*OPENBLAS_CORETYPE=Zen python tests/test_golden.py"):
        recorded(RUN_HASHES)


@pytest.mark.parametrize("name", ["logistic[oled_sgd]", "logistic[oled_sam]", "logistic[fedavg_central]"])
def test_run_fingerprint_is_independent_of_blas_threads(name, tmp_path):
    # the determinism contract: outputs do not depend on the BLAS thread count,
    # through the SAM row norms (lam=0.1) and the seeding of a participant subset too
    child = (
        "import pathlib, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_golden import RUNS, run_fingerprint; "
        "print(*run_fingerprint(*RUNS[sys.argv[2]], pathlib.Path(sys.argv[3])))"
    )
    expected = recorded(RUN_HASHES)[name]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(Path(__file__).parent), name, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(tuple(proc.stdout.split()))
    assert digests == [expected] * 2


@pytest.mark.parametrize("kernel", sorted(set(RUN_HASHES) - {blas_kernel()}))
def test_every_other_recorded_kernel_matches_its_hashes(kernel, tmp_path):
    # a child under OPENBLAS_CORETYPE=<kernel> computes every fingerprint; it imports this module, runs no test
    child = (
        "import json, pathlib, sys; sys.path.insert(0, sys.argv[1]); import test_golden as g; "
        "runs = {n: g.run_fingerprint(*g.RUNS[n], pathlib.Path(sys.argv[2])) for n in g.RUNS}; "
        "probes = {n: g.probe_fingerprint(*g.PROBES[n]) for n in g.PROBES}; "
        "print(json.dumps([g.blas_kernel(), runs, probes]))"
    )
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"), "OPENBLAS_CORETYPE": kernel}
    proc = subprocess.run(
        [sys.executable, "-c", child, str(Path(__file__).parent), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode < 0:
        pytest.skip(f"the child on the OpenBLAS kernel {kernel!r} died by signal {-proc.returncode}")
    assert proc.returncode == 0, proc.stderr
    ran, runs, probes = json.loads(proc.stdout)
    if ran != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran the OpenBLAS kernel {ran!r} on this host")
    assert {name: tuple(pair) for name, pair in runs.items()} == RUN_HASHES[kernel]
    assert probes == PROBE_HASHES[kernel]


if __name__ == "__main__":  # prints this kernel's entries of RUN_HASHES and PROBE_HASHES, ready to paste
    import tempfile

    kernel = blas_kernel()
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_fingerprint(*RUNS[name], Path(tmp)) for name in sorted(RUNS)}
    print(f"# OpenBLAS kernel {kernel}: the first entry goes in RUN_HASHES, the second in PROBE_HASHES")
    print(f'    "{kernel}": {{')
    for name, (final_x, csv) in runs.items():
        print(f'        "{name}": (\n            "{final_x}",\n            "{csv}",\n        ),')
    print(f'    }},\n    "{kernel}": {{')
    for name in sorted(PROBES):
        print(f'        "{name}": "{probe_fingerprint(*PROBES[name])}",')
    print("    },")
