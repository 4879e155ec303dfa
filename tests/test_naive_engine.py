"""Whole runs held bitwise to the plain loop of ``naive_engine``."""

from pathlib import Path

import numpy as np
import pytest

from dgossip.config import load_config
from dgossip.engine import AlgorithmKind, run_experiment
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_equals_the_naive_loop_bitwise(case, workers):
    preset, overrides = CASES[case]
    cfg = load_config(str(CONFIGS / preset), ["m=12", "rounds=4", *overrides])
    records, summary, final_x = naive_run(cfg)
    result = run_experiment(cfg, workers=workers)
    # a float's repr round-trips its bits, -0.0 included
    assert repr(result.records) == repr(records)
    timed = result.summary.pop("wall_time_seconds")
    assert timed >= 0 and repr(result.summary) == repr(summary)
    assert final_x.tobytes() == result.final_x.tobytes()
    assert np.isfinite(final_x).all()
