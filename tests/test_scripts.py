"""The experiment scripts run end to end, and the acceleration script checks the spectral claim."""

import importlib.util
import json
import math
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


def bench_output(env, factor, **values):
    """bench/run.py's stdout: its env line, a report with each metric scaled and unscaled, and one JSON result line.

    Each unscaled value is the scaled one times the host-speed ``factor``.
    """
    units = {"client_steps_per_s": "steps/s", "round_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}
    return "\n".join([
        "env " + json.dumps(env), "op oled_sgd wall 0.5s steps 100 ok",
        *(f"{name:<48} {value:>14.6g} {units[name]}" for name, value in values.items()),
        *(f"{'unscaled ' + name:<48} {value * factor:>14.6g} {units[name]}" for name, value in values.items()),
        f"host speed factor: median {factor:.3f}, quartiles 0.900-1.100, 40 samples",
        json.dumps(result),
    ])


def test_bench_record_summarises_alternating_pairs():
    record = load_script("bench_record")
    env = {"workload": "desk_algorithms", "seed": 1, "nproc": 2}
    parent_steps, change_steps = [100.0, 110.0, 90.0, 105.0], [120.0, 100.0, 95.0, 130.0]
    factors = {"parent": [1.0, 1.25, 1.0, 1.5], "change": [0.5, 1.0, 1.0, 1.0]}
    pairs = []
    for i, (b, c) in enumerate(zip(parent_steps, change_steps)):
        sides = [record.parse_output(bench_output(env, factors[side][i], client_steps_per_s=s,
                                                  peak_rss_mb=50.0 * s / b))
                 for side, s in (("parent", b), ("change", c))]
        assert all(got_env == env for got_env, _ in sides)
        pairs.append(tuple(result for _, result in sides))
    assert pairs[1][0]["unscaled"] == {"client_steps_per_s": 137.5, "peak_rss_mb": 62.5}
    assert pairs[1][0]["host_speed_factor"] == 1.25
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
    # unscaled steps: parent 100, 137.5, 90, 157.5 and change 60, 100, 95, 130
    assert summary["host_speed_factor"] == {"parent": 1.125, "change": 1.0}
    assert steps["unscaled"] == {"parent": 118.75, "change": 97.5, "change_vs_parent": 97.5 / 118.75}
    # a run without the unscaled lines (a traced run) leaves the unscaled side out
    traced = record.parse_output(bench_output(env, 1.0, client_steps_per_s=1.0).replace("unscaled", "traced"))
    assert traced[1]["unscaled"] == {}
    bare = record.summarise([(traced[1], traced[1])] * 2, end_to_end[:1])
    assert "unscaled" not in bare["metrics"]["client_steps_per_s"] and "host_speed_factor" in bare


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


def test_phase_profile_restores_every_seam_and_leaves_the_records_bitwise(tmp_path):
    phase_profile = load_script("phase_profile")
    from dgossip import engine, localopt
    from dgossip.config import load_config

    preset = str(ROOT / "configs" / "logistic_dirichlet.toml")
    cfg = engine.validated(load_config(preset, ["rounds=3", "eval_every=1", "diagnostics=true"]))
    problem = engine.build_problem(cfg)
    originals = {(module, name): getattr(module, name) for module, name in phase_profile.SEAMS}
    assert (localopt, "batch_grads") in originals
    plain = engine.run_experiment(cfg, problem=problem)
    stats, wall, profiled = phase_profile.profile(cfg, problem, runs=2)
    assert all(getattr(module, name) is fn for (module, name), fn in originals.items())
    assert [repr(r) for r in profiled.records] == [repr(r) for r in plain.records]
    assert profiled.final_x.tobytes() == plain.final_x.tobytes()
    calls = {name: tally[0] for name, tally in stats.items()}
    assert calls["local_train"] == calls["gossip_mix"] == calls["_queue"] == 6  # 2 runs of 3 rounds
    assert calls["_evaluate"] == calls["full_objective"] == calls["eval_model"] == 2  # one group of 3 per run
    assert calls["build_mixing"] == 2 and 0 < stats["local_train"][1] < wall
    assert calls["batch_grads"] == 6 * cfg.local_steps and 0 < stats["batch_grads"][1] < stats["local_train"][1]
    # per recorded round, for the evaluation seams only: 6 records, one group call of 3 per run
    rows = {row[0]: row for row in phase_profile.table(stats, wall, 6, 2 * len(profiled.records))}
    assert list(rows) == list(stats) and len(profiled.records) == 3
    for name, (_, share, per_call, per_round, per_record) in rows.items():
        assert share == 100 * stats[name][1] / wall and per_round == calls[name] / 6
        if name in phase_profile.EVALUATION:
            assert per_record == 1e6 * stats[name][1] / 6 and math.isclose(3 * per_record, per_call)
        else:
            assert per_record is None
    # a run that raises leaves no wrapper behind either
    other_m = engine.validated(load_config(preset, ["rounds=3", "m=8"]))
    with pytest.raises(engine.ConfigError, match="built for 16 clients"):
        phase_profile.profile(other_m, problem)
    assert all(getattr(module, name) is fn for (module, name), fn in originals.items())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_profile.py"), "--config", preset,
         "--set", "rounds=3", "--workers", "2", "--runs", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "the caller's calls only" in lines[1]
    assert [line.split()[0] for line in lines[3:]] == [name for _, name in phase_profile.SEAMS]
    assert lines[2].split()[-1] == "us/record"
    assert {line.split()[0] for line in lines[3:] if len(line.split()) == 5} == set(phase_profile.EVALUATION)


def test_output_digest_is_the_same_on_two_runs(tmp_path):
    # and another seed, whose records differ, gives another digest
    def digest(*args):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--workload", "gossip_ring100", *args],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = digest("--seeds", "1")
    assert len(first.strip()) == 64 and digest("--seeds", "1") == first != digest("--seeds", "2")
