"""The experiment scripts run end to end, and the acceleration script checks the spectral claim."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgossip.topology import TopologyKind, TopologySpec, build_mixing, chebyshev_modified

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
    beta_star = acceleration.optimal_beta(ring)
    assert beta_star == pytest.approx(0.445, abs=1e-3)
    for beta in (0.0, 0.2, beta_star, 0.6):
        consensus, delta = acceleration.consensus_trace(beta, args)
        predicted = (chebyshev_modified(ring, beta).psi_tilde * rho_l) ** 2
        rate = acceleration.measured_rate(consensus, acceleration.RATE_WINDOW)
        assert rate == pytest.approx(predicted, abs=1e-3), beta
        assert acceleration.measured_rate(delta, acceleration.RATE_WINDOW) == pytest.approx(rate, abs=1e-3), beta
    # past beta* the modified matrix alone stops contracting; only rho_L < 1 keeps beta = 0.6 convergent
    psi_tilde = chebyshev_modified(ring, 0.6).psi_tilde
    assert psi_tilde > 1.0 > psi_tilde * rho_l


def test_beta_star_minimises_psi_tilde(acceleration):
    ring = build_mixing(TopologySpec(TopologyKind.RING, 16))
    beta_star = acceleration.optimal_beta(ring)
    grid = [chebyshev_modified(ring, beta).psi_tilde for beta in np.linspace(0.0, 0.99, 199)]
    assert chebyshev_modified(ring, beta_star).psi_tilde <= min(grid) + 1e-12


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
