"""The experiment scripts run end to end, and the acceleration script checks the spectral claim."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgossip.topology import TopologyKind, TopologySpec, build_mixing

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("consensus_acceleration.py", ["--rounds", "10", "--out", "trace.csv"]),
        ("compare_algorithms.py", ["--rounds", "5", "--seeds", "1"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def acceleration():
    return load_script("consensus_acceleration")


def test_the_spectral_claim_holds_as_a_number(acceleration):
    # on the script's defaults both the consensus distance and delta_t contract per round
    # by (psi_tilde * rho_L)^2, the modified matrix's radius times the shared local map's
    args = acceleration.parse_args([])
    assert (args.m, args.p, args.local_steps, args.eta) == (16, 8, 5, 0.05)
    ring = build_mixing(TopologySpec(TopologyKind.RING, args.m))
    rho_l = acceleration.local_contraction(args)
    beta_star = ring.beta_star
    assert beta_star == pytest.approx(0.445, abs=1e-3)
    for beta in (0.0, 0.2, beta_star, 0.6):
        consensus, delta = acceleration.consensus_trace(beta, args)
        predicted = (ring.psi_tilde(beta) * rho_l) ** 2
        rate = acceleration.measured_rate(consensus, acceleration.RATE_WINDOW)
        assert rate == pytest.approx(predicted, abs=1e-3), beta
        assert acceleration.measured_rate(delta, acceleration.RATE_WINDOW) == pytest.approx(rate, abs=1e-3), beta
    # past beta* the modified matrix alone stops contracting; only rho_L < 1 keeps beta = 0.6 convergent
    psi_tilde = ring.psi_tilde(0.6)
    assert psi_tilde > 1.0 > psi_tilde * rho_l


def test_beta_star_minimises_psi_tilde():
    # the beta* the script prints, on its default ring
    ring = build_mixing(TopologySpec(TopologyKind.RING, 16))
    grid = [ring.psi_tilde(beta) for beta in np.linspace(0.0, 0.99, 199)]
    assert ring.psi_tilde(ring.beta_star) <= min(grid) + 1e-12


def test_the_script_flags_only_coefficients_with_psi_tilde_past_1(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "consensus_acceleration.py"), "--out", "trace.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "beta* = 0.4450" in proc.stdout
    rows = {line.split(":")[0]: line for line in proc.stdout.splitlines() if line.startswith("beta=")}
    assert sorted(rows) == ["beta=0.00", "beta=0.20", "beta=0.40", "beta=0.60"]
    assert [name for name, line in rows.items() if "psi_tilde >= 1" in line] == ["beta=0.60"]
    assert "rate 0.685104 vs 0.685172" in rows["beta=0.00"]


def bench_output(env, **values):
    """bench/run.py's stdout: a report ending in its env line's fields and one JSON result line."""
    units = {"client_steps_per_s": "steps/s", "round_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}
    return "\n".join(["env " + json.dumps(env), "op oled_sgd wall 0.5s steps 100 ok", json.dumps(result)])


def test_bench_record_summarises_alternating_pairs():
    record = load_script("bench_record")
    env = {"workload": "desk_algorithms", "seed": 1, "nproc": 2}
    parent_steps, change_steps = [100.0, 110.0, 90.0, 105.0], [120.0, 100.0, 95.0, 130.0]
    pairs = []
    for b, c in zip(parent_steps, change_steps):
        sides = [record.parse_output(bench_output(env, client_steps_per_s=s, peak_rss_mb=50.0 * s / b))
                 for s in (b, c)]
        assert all(got_env == env for got_env, _ in sides)
        pairs.append(tuple(result for _, result in sides))
    end_to_end = [{"name": "client_steps_per_s", "better": "higher", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summary = record.summarise(pairs, end_to_end)
    assert summary["pairs"] == 4 and summary["attempted"] == {"parent": 16, "change": 16}
    assert summary["failed"] == {"parent": 0, "change": 0} and all(summary["correct"].values())
    steps = summary["metrics"]["client_steps_per_s"]
    assert steps["parent"] == {"median": 102.5, "q1": 97.5, "q3": 106.25, "runs": parent_steps}
    assert steps["change"]["median"] == 110.0 and steps["change"]["runs"] == change_steps
    assert steps["change_won"] == 3  # 120 > 100, 95 > 90, 130 > 105; 100 < 110 is a loss
    assert steps["change_vs_parent"] == pytest.approx(110.0 / 102.5)
    assert not steps["worse_than_bound"]
    rss = summary["metrics"]["peak_rss_mb"]  # the change reads 50 * c / b: lower is better
    assert rss["parent"]["runs"] == [50.0] * 4 and rss["change_won"] == 1
    assert rss["change_vs_parent"] == pytest.approx(rss["change"]["median"] / 50.0)
    assert rss["worse_than_bound"]  # a median 1.128 times the parent's is past the 0.1 bound


SIZE_FIXTURE = '''"""Module docstring,

over three lines."""

import os  # a trailing comment leaves the line code


# a comment alone
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string, not the first statement,

        is code"""
        return text
'''


def test_src_size_counts_every_line_once(tmp_path):
    src_size = load_script("src_size")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SIZE_FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text("")
    counts = {"code": 7, "docstring": 5, "comment": 1, "blank": 4}
    empty = dict.fromkeys(counts, 0)
    assert src_size.table(tmp_path / "pkg") == [("empty.py", empty), ("mod.py", counts), ("total", counts)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_size.py"), str(tmp_path / "pkg")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["total", "17", "7", "5", "1", "4"]
