"""The experiment scripts run end to end, and the quadratic oracle checks the spectral claim exactly."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dgossip.config import ALGORITHMS, AlgorithmKind, load_config, validated
from dgossip.engine import Problem, build_problem, run_experiment, run_round
from dgossip.metrics import consensus_distance, consistency_delta
from dgossip.models import ShardStack, quadratic_testbed
from dgossip.topology import TopologyKind, TopologySpec, build_mixing

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("quadratic_oracle.py", ["--set", "rounds=10"]),
        ("compare_algorithms.py", ["--set", "rounds=5", "--seeds", "1"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_lists_every_script():
    block = (ROOT / "README.md").read_text().split("## Experiment scripts\n", 1)[1].split("```")[1]
    listed = re.findall(r"^python3 scripts/(\S+\.py)", block, flags=re.MULTILINE)
    assert sorted(listed) == sorted(path.name for path in (ROOT / "scripts").glob("*.py"))


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def oracle():
    return load_script("quadratic_oracle")


def engine_trace(cfg, spec, starts, rounds: int) -> tuple[list[float], list[float]]:
    """The engine's consensus distance and delta_t after each round, every client starting at its row of ``starts``."""
    problem = Problem(spec, ShardStack.of(range(cfg.m)), None, np.zeros(cfg.model.p))
    w, x, z = build_mixing(cfg.topology), starts, starts
    consensus, delta = [], []
    for t in range(rounds):
        info = run_round(x, z, t, cfg, w, problem, np.arange(cfg.m), None)
        x, z = info.x_mixed, info.z
        consensus.append(consensus_distance(x))
        delta.append(consistency_delta(z, x))
    return consensus, delta


def window_rate(trace, start: int = 50, stop: int = 60) -> float:
    """The geometric-mean per-round ratio of ``trace`` from round ``start`` to ``stop``, past the transient."""
    return (trace[stop] / trace[start]) ** (1.0 / (stop - start))


def test_the_spectral_claim_holds_as_a_number(oracle):
    # with one curvature A shared by every client and no heterogeneity, T restricted to the disagreement
    # subspace has radius psi_tilde * rho_L exactly, the modified matrix's radius times the shared local
    # map's; from spread-out starts, the engine's consensus and delta_t contract per round by its square
    cfg = validated(load_config(str(oracle.PRESET)))
    m, p, k_steps, eta = cfg.m, cfg.model.p, cfg.local_steps, cfg.optimizer.eta0
    assert (m, p, k_steps, eta) == (16, 8, 5, 0.05)
    spec = quadratic_testbed(m, p, 0.0, seed=11, identical_curvature=True)
    ring = build_mixing(cfg.topology)
    rho_l = float(np.max(np.abs(1.0 - eta * np.linalg.eigvalsh(spec.quad_a[0])))) ** k_steps
    disagreement = np.kron(np.eye(2), np.kron(np.eye(m) - 1.0 / m, np.eye(p)))  # x and z, each off its mean
    starts = 3.0 * np.random.default_rng(3).normal(size=(m, p))
    beta_star = ring.beta_star
    assert beta_star == pytest.approx(0.445, abs=1e-3)
    for beta in (0.0, 0.2, beta_star, 0.6):
        t_map, _ = oracle.affine_round(spec, ring.w, eta, k_steps, beta)
        exact = ring.psi_tilde(beta) * rho_l
        assert np.max(np.abs(np.linalg.eigvals(t_map @ disagreement))) == pytest.approx(exact, rel=0, abs=1e-12), beta
        consensus, delta = engine_trace(validated(replace(cfg, beta=beta)), spec, starts, 61)
        rate = window_rate(consensus)
        assert rate == pytest.approx(exact**2, abs=1e-3), beta
        assert window_rate(delta) == pytest.approx(rate, abs=1e-3), beta
        if beta == 0.0:  # the engine's rate against the prediction, to the digits they have read at since
            assert f"{rate:.6f} vs {exact**2:.6f}" == "0.685104 vs 0.685172"
    # past beta* the modified matrix alone stops contracting; only rho_L < 1 keeps beta = 0.6 convergent
    psi_tilde = ring.psi_tilde(0.6)
    assert psi_tilde > 1.0 > psi_tilde * rho_l


def test_beta_star_minimises_psi_tilde():
    # the beta* the oracle prints, on the preset's ring
    ring = build_mixing(TopologySpec(TopologyKind.RING, 16))
    grid = [ring.psi_tilde(beta) for beta in np.linspace(0.0, 0.99, 199)]
    assert ring.psi_tilde(ring.beta_star) <= min(grid) + 1e-12


# rho(T) and the fixed point's grad_norm_sq, consensus and delta_t on the preset, as the oracle prints them
PRESET_TABLE = {
    0.0: ("0.7762", "1.31e-02", "0.858", "0.294"),
    0.2: ("0.7736", "1.04e-02", "0.775", "0.226"),
    0.4: ("0.7717", "8.45e-03", "0.708", "0.180"),
    0.6: ("0.8744", "7.03e-03", "0.652", "0.146"),
}


def test_the_oracle_holds_every_recorded_round_of_the_preset_to_the_iterated_map(oracle):
    cfg = validated(load_config(str(oracle.PRESET), ["eval_every=1"]))
    problem, ring = build_problem(cfg), build_mixing(cfg.topology)
    deltas = []
    for beta, shown in PRESET_TABLE.items():
        rho, (_, grad_sq, consensus, delta, _), gap = oracle.oracle(validated(replace(cfg, beta=beta)), problem, ring.w)
        assert gap <= 1e-12, beta  # over all 300 recorded rounds
        assert (f"{rho:.4f}", f"{grad_sq:.2e}", f"{consensus:.3f}", f"{delta:.3f}") == shown
        deltas.append(delta)
    assert deltas == sorted(set(deltas), reverse=True)  # lookahead shrinks the consistency term


def test_the_oracle_flags_only_coefficients_with_psi_tilde_past_1(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "quadratic_oracle.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "beta* = 0.4450" in proc.stdout
    rows = {line.split(":")[0]: line for line in proc.stdout.splitlines() if line.startswith("beta=")}
    assert sorted(rows) == ["beta=0.00", "beta=0.20", "beta=0.40", "beta=0.60"]
    assert [name for name, line in rows.items() if "psi_tilde >= 1" in line] == ["beta=0.60"]
    for beta, (rho, grad_sq, consensus, delta) in PRESET_TABLE.items():
        shown = f"rho(T) {rho}, grad_norm_sq {grad_sq}, consensus {consensus}, delta_t {delta},"
        assert shown in rows[f"beta={beta:4.2f}"]


@pytest.mark.parametrize(
    "override, key",
    [
        ("model.kind=logistic", "model.kind"),
        ("algorithm=oled_sam", "algorithm"),
        ("algorithm=dfedavgm", "algorithm"),
        ("algorithm=fedavg_central", "algorithm"),
        ("topology.kind=random_k", "topology.kind"),
        ("optimizer.decay=0.99", "optimizer.decay"),
    ],
)
def test_the_oracle_refuses_a_round_that_is_not_one_constant_affine_map(oracle, capsys, override, key):
    assert oracle.main(["--set", override]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"quadratic_oracle.py: error: {key} = ")


def test_the_oracle_exits_3_on_a_round_map_that_overflows(oracle, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the map's products overflow first
        assert oracle.main(["--set", "optimizer.eta0=1e300", "--betas", "0.2"]) == 3
    err = capsys.readouterr().err
    assert err == "quadratic_oracle.py: error: non-finite round map T (beta = 0.2, eta0 = 1e+300) at round 0\n"


@pytest.fixture(scope="module")
def compare():
    return load_script("compare_algorithms")


def test_the_algorithm_table_is_the_medians_of_runs_that_build_their_own_problem(compare):
    base = load_config(str(compare.PRESET), ["rounds=10", "participation=0.25"])
    table = compare.algorithm_table(base, 2)
    assert [row[0] for row in table] == [kind.value for kind in ALGORITHMS]
    for (_, *row), kind in zip(table, ALGORITHMS):
        summaries = [run_experiment(replace(base, algorithm=kind, seed=seed)).summary for seed in (0, 1)]
        hits = [summary["rounds_to_targets"]["0.5"] for summary in summaries]
        expected = (
            np.median([summary["best_acc"] for summary in summaries]),
            np.median([base.rounds + 1 if hit is None else hit for hit in hits]),
            np.median([summary["final"]["delta_t"] for summary in summaries]),
        )
        assert [float(value).hex() for value in row] == [float(value).hex() for value in expected], kind
    # the preset's own algorithm picks no row's beta or local_steps
    assert compare.algorithm_table(replace(base, algorithm=AlgorithmKind.DPSGD), 2) == table


@pytest.mark.parametrize(
    "override, code, named",
    [
        ("partition.bogus=1", 2, "partition.bogus"),
        ("targets=[]", 2, "targets = []"),
        ("model.kind=quadratic", 2, "held-out data"),
        ("optimizer.eta0=1e300", 3, "oled_sgd, seed 0: non-finite"),
    ],
)
def test_compare_algorithms_exits_naming_what_it_refused(compare, capsys, override, code, named):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a diverging run overflows first
        assert compare.main(["--set", override, "--set", "rounds=3", "--seeds", "1"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("compare_algorithms.py: error: ") and named in err


PRESETS = {name: str(ROOT / "configs" / f"{preset}.toml") for name, preset in (
    ("compare_algorithms", "logistic_dirichlet"), ("quadratic_oracle", "quadratic_ring"),
    ("phase_profile", "logistic_dirichlet"),
)}
MISSING = str(ROOT / "configs" / "missing.toml")


@pytest.mark.parametrize(
    "name, argv, code, named",
    [
        *((name, ["--config", MISSING], 4, MISSING) for name in PRESETS),
        *((name, ["--config", PRESETS[name], "--set", "bogus=1"], 2, "unknown config key: bogus") for name in PRESETS),
        ("phase_profile", ["--config", PRESETS["phase_profile"], "--set", "rounds=2", "--workers", "0"], 2,
         "workers must be a positive integer, got 0"),
        ("phase_profile", ["--config", PRESETS["phase_profile"], "--runs", "0"], 2, "--runs = 0, rounds = 200"),
        ("phase_profile", ["--config", PRESETS["phase_profile"], "--set", "rounds=0"], 2, "--runs = 3, rounds = 0"),
        ("quadratic_oracle", ["--betas", ","], 2, "--betas names no coefficient"),
    ],
    ids=[*(f"{name}-missing" for name in PRESETS), *(f"{name}-bogus" for name in PRESETS), "phase_profile-workers",
         "phase_profile-runs", "phase_profile-rounds", "quadratic_oracle-betas"],
)
def test_every_preset_script_exits_as_dgossip_does(capsys, name, argv, code, named):
    assert load_script(name).main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{name}.py: error: ") and named in err


def test_compare_algorithms_reads_dgossip_seed_beneath_set(compare, capsys, monkeypatch):
    def table(*sets):
        assert compare.main([*(f"--set={pair}" for pair in ("rounds=3", *sets)), "--seeds", "1"]) == 0
        return capsys.readouterr().out

    monkeypatch.delenv("DGOSSIP_SEED", raising=False)
    seed_0, seed_3 = table(), table("seed=3")
    assert seed_0 != seed_3
    monkeypatch.setenv("DGOSSIP_SEED", "3")
    assert table() == seed_3
    assert table("seed=0") == seed_0


def test_phase_profile_names_the_seed_it_ran(capsys, monkeypatch):
    def header(*sets):
        argv = ["--config", PRESETS["phase_profile"], "--set", "rounds=2", *sets, "--runs", "1"]
        assert load_script("phase_profile").main(argv) == 0
        return capsys.readouterr().out.splitlines()[0]

    monkeypatch.delenv("DGOSSIP_SEED", raising=False)
    assert ", seed=0, " in header()
    monkeypatch.setenv("DGOSSIP_SEED", "5")
    assert ", seed=5, " in header()
    assert ", seed=6, " in header("--set", "seed=6")


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
