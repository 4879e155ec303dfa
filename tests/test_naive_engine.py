"""Whole runs held bitwise to the plain loop of ``naive_engine``."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip.config import (
    CENTRAL_KINDS,
    AlgorithmKind,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
    load_config,
)
from dgossip.engine import run_experiment
from dgossip.localopt import OptimizerConfig
from dgossip.topology import TopologyKind, TopologySpec
from naive_engine import naive_run

CONFIGS = Path(__file__).parents[1] / "configs"

# each case: a preset and its overrides, cut to m <= 12 and 4 rounds
CASES = {
    **{
        f"logistic_ring_{algo.value}": ("logistic_dirichlet.toml", [f"algorithm={algo.value}", "diagnostics=true"])
        for algo in AlgorithmKind
    },
    "random_k": ("logistic_dirichlet.toml", ["topology.kind=random_k", "topology.k=3", "eval_every=3"]),
    "quadratic_diagnostics": ("quadratic_ring.toml", ["eval_every=1"]),
    "mlp_10_classes_width_1": (
        "large_random_topology.toml",
        ["model.hidden=[1]", "data.per_class=30", "data.test_per_class=10", "topology.k=4", "local_steps=2"],
    ),
}


def assert_equals_the_naive_loop_bitwise(cfg, workers):
    records, summary, final_x = naive_run(cfg)
    result = run_experiment(cfg, workers=workers)
    # a float's repr round-trips its bits, -0.0 included
    assert repr(result.records) == repr(records)
    timed = result.summary.pop("wall_time_seconds")
    assert timed >= 0 and repr(result.summary) == repr(summary)
    assert final_x.tobytes() == result.final_x.tobytes()
    assert np.isfinite(final_x).all()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_equals_the_naive_loop_bitwise(case, workers):
    preset, overrides = CASES[case]
    assert_equals_the_naive_loop_bitwise(load_config(str(CONFIGS / preset), ["m=12", "rounds=4", *overrides]), workers)


@st.composite
def small_runs(draw):
    """A run of 1-4 rounds on 2-12 clients, at learning rates that keep it finite.

    The naive loop handles neither m=1 (no graph) nor a diverging run (it
    has no divergence check), so neither is drawn.
    """
    algorithm = draw(st.sampled_from(list(AlgorithmKind)))
    kind = draw(st.sampled_from(list(TopologyKind)))
    m = draw(st.sampled_from([4, 9]) if kind is TopologyKind.GRID else st.integers(2, 12))
    topology = None
    if algorithm not in CENTRAL_KINDS:
        topology = TopologySpec(kind, m, k=draw(st.integers(1, m - 1)), seed=draw(st.integers(0, 2**64 - 1)))
    model_kind = draw(st.sampled_from(["quadratic", "logistic", "mlp"]))
    hidden = draw(st.sampled_from([(1,), (4, 1), (1, 3)])) if model_kind == "mlp" else ()
    classes = draw(st.integers(2, 12))
    optimizer = OptimizerConfig(
        eta0=0.05 if model_kind == "quadratic" else draw(st.sampled_from([0.05, 0.1])),
        decay=draw(st.sampled_from([1.0, 0.99])),
        lam=draw(st.sampled_from([0.0, 0.05, 0.1])),
        mu=draw(st.sampled_from([0.0, 0.9])),
        batch_size=draw(st.integers(1, 8)),
    )
    return ExperimentConfig(
        algorithm=algorithm,
        beta=draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])),
        m=m,
        rounds=draw(st.integers(1, 4)),
        local_steps=draw(st.integers(1, 3)),
        participation=draw(st.sampled_from([0.25, 0.5, 1.0])),
        seed=draw(st.integers(0, 2**64 - 1)),
        eval_every=draw(st.integers(1, 2)),
        diagnostics=draw(st.booleans()),
        topology=topology,
        model=ModelConfig(kind=model_kind, p=draw(st.integers(1, 6)), hidden=hidden),
        optimizer=optimizer,
        partition=PartitionConfig(scheme=draw(st.sampled_from(["iid", "dirichlet"])), alpha=0.5),
        data=DataConfig(
            classes=classes,
            dim=draw(st.integers(1, 4)),
            per_class=draw(st.integers(-(-m // classes), 6)),
            test_per_class=3,
        ),
    )


@settings(max_examples=200, deadline=None)
@given(small_runs(), st.integers(1, 3))
def test_a_drawn_run_equals_the_naive_loop_bitwise(cfg, workers):
    assert_equals_the_naive_loop_bitwise(cfg, workers)
