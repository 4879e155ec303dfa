"""Runs hold numpy's OpenBLAS at one thread, so outputs do not depend on its thread count."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgossip import blas, engine
from dgossip.config import DataConfig, ExperimentConfig
from dgossip.engine import run_experiment
from dgossip.localopt import OptimizerConfig
from dgossip.topology import TopologyKind, TopologySpec

ROOT = Path(__file__).parents[1]
SMALL = ExperimentConfig(
    m=4, rounds=3, local_steps=2,
    topology=TopologySpec(TopologyKind.RING, 4),
    optimizer=OptimizerConfig(batch_size=4),
    data=DataConfig(classes=3, dim=4, per_class=8, test_per_class=4),
)


@pytest.fixture
def control():
    found = blas.thread_control()
    if found is None:
        pytest.skip("numpy's BLAS exports no known thread-count functions")
    setter, getter = found
    before = getter()
    setter(2)
    yield setter, getter
    setter(before)


def test_a_run_holds_one_thread_and_restores_the_count(control):
    _, getter = control
    seen = []
    run_experiment(SMALL, on_round=lambda t, info: seen.append(getter()))
    assert seen == [1, 1, 1]
    assert getter() == 2


def test_the_count_is_restored_when_a_run_fails(control, monkeypatch):
    _, getter = control

    def diverge(*args):
        raise engine.DivergenceError(0, 0)

    monkeypatch.setattr(engine, "run_round", diverge)
    with pytest.raises(engine.DivergenceError):
        run_experiment(SMALL)
    assert getter() == 2


def test_without_a_thread_control_the_run_goes_ahead(monkeypatch):
    pinned = run_experiment(SMALL).final_x
    monkeypatch.setattr(blas, "thread_control", lambda: None)
    assert (run_experiment(SMALL).final_x == pinned).all()


def test_wide_mlp_run_is_independent_of_blas_threads(tmp_path):
    # a (32, 784) x (784, 100) product and the (100, 32) x (32, 100) weight gradient
    # each round differently on two OpenBLAS threads unless the run pins one
    child = (
        "import hashlib, sys; from dgossip.config import load_config; "
        "from dgossip.engine import run_experiment; from dgossip.metrics import write_metrics_csv; "
        "res = run_experiment(load_config(sys.argv[1], sys.argv[3:])); "
        "write_metrics_csv(res.records, sys.argv[2]); "
        "print(hashlib.sha256(res.final_x.tobytes()).hexdigest())"
    )
    overrides = ["model.kind=mlp", "model.hidden=[100]", "data.dim=784", "rounds=3"]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        csv = tmp_path / f"metrics{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", child, str(ROOT / "configs" / "logistic_dirichlet.toml"), str(csv), *overrides],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, hashlib.sha256(csv.read_bytes()).hexdigest()))
    assert outputs[0] == outputs[1]


class CountingControl:
    """A fake ``thread_control()`` pair that records every setter call."""

    def __init__(self, count):
        self.count, self.sets, self.gets = count, [], 0

    def set(self, n):
        self.sets.append(n)
        self.count = n

    def get(self):
        self.gets += 1
        return self.count


@pytest.fixture
def counting(monkeypatch):
    def install(count):
        fake = CountingControl(count)
        monkeypatch.setattr(blas, "thread_control", lambda: (fake.set, fake.get))
        return fake
    return install


def test_a_count_already_at_one_makes_no_setter_call(counting):
    fake = counting(1)
    with blas.one_thread():
        assert fake.count == 1
    assert fake.sets == [] and fake.gets == 1


def test_nested_pins_restore_the_outer_count(counting):
    fake = counting(4)
    with blas.one_thread():
        with blas.one_thread():  # as dense gossip inside a run: one getter call, no setter call
            assert fake.count == 1
        assert fake.count == 1
    assert fake.count == 4 and fake.sets == [1, 4] and fake.gets == 2


def test_the_count_is_restored_after_an_exception(counting):
    fake = counting(3)
    with pytest.raises(ZeroDivisionError):
        with blas.one_thread():
            1 / 0
    assert fake.count == 3 and fake.sets == [1, 3]
