"""Acceptance suite: one test per release criterion, at stated tolerances.

Each criterion gets exactly one test function; the conftest hook prints a
PASS/FAIL line per criterion when the suite runs.  Runtime-budgeted
criteria assert their own wall-clock limits.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dgossip.cli import main
from dgossip.data import generate_synthetic, partition_dirichlet, partition_iid, partition_pathological
from dgossip.config import (
    AlgorithmKind,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
    validated,
)
from dgossip.engine import (
    Problem,
    build_problem,
    gossip_mix,
    ole_init,
    run_experiment,
    run_round,
)
from dgossip.localopt import OptimizerConfig, local_train
from dgossip.metrics import consensus_distance
from dgossip.stability import stability_probe
from dgossip.models import ModelSpec, Shard, ShardStack, loss_and_grad, quadratic_testbed
from dgossip.topology import TopologyKind, TopologySpec, averaging_matrix, build_mixing

SIZES = (4, 9, 16, 25, 100)


def desk_logistic(**overrides):
    base = dict(
        algorithm=AlgorithmKind.OLED_SGD,
        beta=0.2,
        m=16,
        rounds=200,
        local_steps=5,
        seed=0,
        topology=TopologySpec(TopologyKind.RING, 16),
        model=ModelConfig(kind="logistic"),
        optimizer=OptimizerConfig(eta0=0.1, decay=0.998, batch_size=32),
        partition=PartitionConfig(scheme="dirichlet", alpha=0.3),
        data=DataConfig(classes=4, dim=10, per_class=100, spread=1.0, test_per_class=50),
    )
    base.update(overrides)
    if "m" in overrides and "topology" not in overrides:
        base["topology"] = TopologySpec(TopologyKind.RING, overrides["m"])
    return ExperimentConfig(**base)


def test_criterion_01_mixing_matrix_suite():
    start = time.perf_counter()
    for kind in TopologyKind:
        for m in SIZES:
            k = 10 if m == 100 else 3
            spec = TopologySpec(kind=kind, m=m, k=min(k, m - 1), seed=1)
            w = build_mixing(spec)
            assert np.array_equal(w.w, w.w.T)  # bitwise symmetry
            assert np.max(np.abs(w.w.sum(axis=1) - 1.0)) <= 1e-12
            vals = np.linalg.eigvalsh(w.w)
            assert vals[0] > -1.0
            assert vals[-1] <= 1.0 + 1e-9
            p = averaging_matrix(m)
            power = np.eye(m)
            for t in range(1, 6):
                power = power @ w.w
                assert np.linalg.norm(power - p, 2) <= w.psi**t + 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_02_spectral_values_and_ordering():
    for m in SIZES:
        full = build_mixing(TopologySpec(TopologyKind.FULLY_CONNECTED, m))
        assert abs(full.psi) <= 1e-12
    ring4 = build_mixing(TopologySpec(TopologyKind.RING, 4))
    assert ring4.psi == pytest.approx(1 / 3, abs=1e-9)
    ring16 = build_mixing(TopologySpec(TopologyKind.RING, 16))
    assert ring16.psi == pytest.approx(1 / 3 + (2 / 3) * math.cos(math.pi / 8), abs=1e-9)
    psi = {
        kind: build_mixing(TopologySpec(kind, 16)).psi
        for kind in (
            TopologyKind.FULLY_CONNECTED,
            TopologyKind.EXPONENTIAL,
            TopologyKind.GRID,
            TopologyKind.RING,
        )
    }
    assert (
        psi[TopologyKind.FULLY_CONNECTED]
        < psi[TopologyKind.EXPONENTIAL]
        < psi[TopologyKind.GRID]
        < psi[TopologyKind.RING]
    )


def test_criterion_03_lookahead_chebyshev_equivalence():
    rng = np.random.default_rng(42)
    kinds = [TopologyKind.RING, TopologyKind.GRID, TopologyKind.EXPONENTIAL, TopologyKind.RANDOM_K]
    for trial in range(50):
        kind = kinds[trial % len(kinds)]
        m = 9 if kind is TopologyKind.GRID else int(rng.integers(3, 20))
        spec = TopologySpec(kind, m, k=max(1, min(3, m - 1)), seed=int(rng.integers(0, 2**31)))
        w = build_mixing(spec)
        beta = float(rng.uniform(0.0, 0.9))
        z = rng.normal(size=(m, 7))
        x_mixed = gossip_mix(z, w)
        ole_points = np.stack([ole_init(x_mixed[i], z[i], beta) for i in range(m)])
        direct = ((1.0 + beta) * w.w - beta * np.eye(m)) @ z
        assert np.abs(ole_points - direct).max() <= 1e-10


def test_criterion_04_degeneracies_are_bitwise():
    # lookahead with beta = 0 against the plain decentralized baseline
    cfg_a = desk_logistic(rounds=50, beta=0.0, data=DataConfig(classes=3, dim=6, per_class=50))
    cfg_b = dataclasses.replace(cfg_a, algorithm=AlgorithmKind.DFEDAVG)
    ra, rb = run_experiment(cfg_a), run_experiment(cfg_b)
    assert ra.records == rb.records
    assert np.array_equal(ra.final_x, rb.final_x)

    # two-gradient step with lambda = 0 against plain sgd, per step (one local step each)
    ds = generate_synthetic(3, 5, 30, 0.8, seed=2)
    shard = ShardStack.of([Shard(ds.features, ds.labels)])  # one client as a one-row stack
    spec = ModelSpec(kind="logistic", dim=5, num_classes=3)
    sam = OptimizerConfig(method="sam", eta0=0.1, lam=0.0, batch_size=8)
    sgd = dataclasses.replace(sam, method="sgd")
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=(1, spec.param_count()))
        draws = rng.integers(0, shard.sizes[0], size=(1, 1, 8))
        assert np.array_equal(
            local_train(spec, x, shard, 1, sam, draws, round_index=0).z,
            local_train(spec, x, shard, 1, sgd, draws, round_index=0).z,
        )


def test_criterion_05_gradient_oracle():
    rng = np.random.default_rng(11)
    ds = generate_synthetic(3, 5, 30, 0.8, seed=4)
    shard = Shard(ds.features, ds.labels)
    quad = quadratic_testbed(1, 6, 1.0, seed=5)
    cases = [
        (quad, 0, 6, 1.0),
        (ModelSpec(kind="logistic", dim=5, num_classes=3), shard, None, 1.0),
        (ModelSpec(kind="mlp", dim=5, num_classes=3, hidden=(7,)), shard, None, 0.7),
    ]
    h, rtol = 1e-6, 1e-5
    for spec, data_arg, p_override, scale in cases:
        p = p_override or spec.param_count()
        for _ in range(20):
            x = scale * rng.normal(size=p)
            batch = None if spec.kind == "quadratic" else rng.integers(0, len(shard), size=8)
            loss, g = loss_and_grad(spec, x, data_arg, batch)
            fd = np.zeros(p)
            for i in range(p):
                e = np.zeros(p)
                e[i] = h
                up = loss_and_grad(spec, x + e, data_arg, batch)[0]
                down = loss_and_grad(spec, x - e, data_arg, batch)[0]
                fd[i] = (up - down) / (2 * h)
            # the difference quotient carries ~eps*|f|/h rounding noise, so
            # the relative comparison applies where the oracle resolves it;
            # everything below gets an absolute bound at the noise floor
            atol = 1e-9 * max(1.0, abs(loss))
            np.testing.assert_allclose(g, fd, rtol=rtol, atol=atol)
            mask = np.abs(g) > atol / rtol
            if mask.any():
                rel = np.max(np.abs(g[mask] - fd[mask]) / np.abs(g[mask]))
                assert rel < rtol, f"{spec.kind}: max rel err {rel}"


def test_criterion_06_average_preservation_over_full_run():
    cfg = desk_logistic(rounds=100, beta=0.3, m=8, eval_every=10)
    infos = []
    run_experiment(cfg, on_round=lambda t, info: infos.append(info))
    assert len(infos) == 100
    for info in infos:
        assert np.abs(info.x_mixed.mean(axis=0) - info.z.mean(axis=0)).max() <= 1e-12
    for info in infos[1:]:  # lookahead means coincide with post-mix means for t >= 1
        assert np.abs(info.ole_points.mean(axis=0) - info.x_prev.mean(axis=0)).max() <= 1e-10


def _rounds_to_consensus(beta: float, tol=1e-6, cap=300) -> int:
    m, p = 16, 8
    spec = quadratic_testbed(m, p, heterogeneity=0.0, seed=11, identical_curvature=True)
    cfg = validated(
        ExperimentConfig(
            algorithm=AlgorithmKind.OLED_SGD,
            beta=beta,
            m=m,
            rounds=cap,
            local_steps=5,
            seed=3,
            topology=TopologySpec(TopologyKind.RING, m),
            model=ModelConfig(kind="quadratic", p=p, heterogeneity=0.0),
            optimizer=OptimizerConfig(eta0=0.05, decay=1.0),
        )
    )
    w = build_mixing(cfg.topology)
    problem = Problem(spec, ShardStack.of(range(m)), None, np.zeros(p))
    x = z = 3.0 * np.random.default_rng(3).normal(size=(m, p))
    for t in range(cap):
        info = run_round(x, z, t, cfg, w, problem, np.arange(m), None)
        x, z = info.x_mixed, info.z
        if consensus_distance(info.x_mixed) < tol:
            return t + 1
    raise AssertionError(f"no consensus within {cap} rounds at beta={beta}")


def test_criterion_07_consensus_acceleration():
    start = time.perf_counter()
    ring16 = build_mixing(TopologySpec(TopologyKind.RING, 16))
    assert ring16.psi_tilde(0.2) < ring16.psi  # 0.9392 < 0.9493
    accelerated = _rounds_to_consensus(0.2)
    baseline = _rounds_to_consensus(0.0)
    assert accelerated < baseline, f"{accelerated} rounds vs {baseline}"
    assert time.perf_counter() - start < 10.0


def _quadratic_final(algo: AlgorithmKind, beta: float, seed: int):
    cfg = ExperimentConfig(
        algorithm=algo,
        beta=beta,
        m=16,
        rounds=300,
        local_steps=5,
        seed=seed,
        eval_every=10,
        topology=TopologySpec(TopologyKind.RING, 16),
        model=ModelConfig(kind="quadratic", p=8, heterogeneity=1.0),
        optimizer=OptimizerConfig(eta0=0.05, decay=1.0),
    )
    final = run_experiment(cfg).summary["final"]
    return final["grad_norm_sq"], final["delta_t"]


def test_criterion_08_heterogeneous_quadratic_trend():
    start = time.perf_counter()
    grads_look, deltas_look, grads_base, deltas_base = [], [], [], []
    for seed in range(5):
        g1, d1 = _quadratic_final(AlgorithmKind.OLED_SGD, 0.2, seed)
        g0, d0 = _quadratic_final(AlgorithmKind.DFEDAVG, 0.0, seed)
        grads_look.append(g1)
        deltas_look.append(d1)
        grads_base.append(g0)
        deltas_base.append(d0)
    assert np.median(grads_look) <= np.median(grads_base)
    assert np.median(deltas_look) <= np.median(deltas_base)
    assert time.perf_counter() - start < 60.0


def test_criterion_09_logistic_desk_benchmark():
    start = time.perf_counter()
    best_look, best_base = [], []
    for seed in range(5):
        cfg = desk_logistic(seed=seed)
        best_look.append(run_experiment(cfg).summary["best_acc"])
        base = dataclasses.replace(cfg, algorithm=AlgorithmKind.DFEDAVG, beta=0.0)
        best_base.append(run_experiment(base).summary["best_acc"])
    med_look, med_base = float(np.median(best_look)), float(np.median(best_base))
    print(f"desk benchmark medians: lookahead {med_look:.4f}, baseline {med_base:.4f}")
    assert med_look >= med_base - 0.005  # non-inferiority; superiority reported above
    assert time.perf_counter() - start < 120.0


def test_criterion_10_partition_properties():
    ds = generate_synthetic(10, 3, 100, 0.5, seed=0)  # n = 1000

    def assert_partition(plan):
        flat = np.concatenate(plan)
        assert np.array_equal(np.sort(flat), np.arange(len(ds)))

    assert_partition(partition_iid(ds, 7, seed=1))
    assert_partition(partition_dirichlet(ds, 7, alpha=0.3, seed=1))
    path_plan = partition_pathological(ds, 100, classes_per_client=2, seed=1)
    assert_partition(path_plan)
    for a in path_plan:
        assert len(np.unique(ds.labels[a])) == 2  # exact class counts

    global_hist = np.bincount(ds.labels, minlength=10) / len(ds)
    means = []
    for alpha in (0.1, 0.3, 1.0, 10.0, 1e6):
        tvs = []
        for seed in range(10):
            plan = partition_dirichlet(ds, 10, alpha=alpha, seed=seed)
            per_client = [
                0.5 * np.abs(np.bincount(ds.labels[a], minlength=10) / len(a) - global_hist).sum()
                for a in plan
            ]
            tvs.append(np.mean(per_client))
        means.append(np.mean(tvs))
    assert all(a >= b for a, b in zip(means, means[1:])), means


def test_criterion_11_stability_probe():
    cfg = desk_logistic(
        rounds=100,
        m=8,
        seed=5,
        optimizer=OptimizerConfig(eta0=0.1, decay=0.998, batch_size=4),
        partition=PartitionConfig(scheme="iid"),
        data=DataConfig(classes=4, dim=10, per_class=100, spread=0.8, test_per_class=40),
    )
    problem = build_problem(cfg)
    flipped = (int(problem.shards[0].labels[3]) + 1) % problem.spec.num_classes
    trace = stability_probe(cfg, problem, (0, 3), flipped)
    assert trace.first_draw is not None
    first_round = trace.first_draw[0]
    for t in range(first_round):
        assert (trace.distances[t] == 0.0).all()  # bitwise zero prefix
    assert np.isfinite(trace.distances).all()
    for t in range(first_round, 100):
        assert trace.mean_distance[t] > 0.0


def test_criterion_12_worker_count_determinism(tmp_path):
    config = tmp_path / "exp.toml"
    config.write_text(
        'algorithm = "oled_sam"\nbeta = 0.3\nm = 8\nrounds = 25\nlocal_steps = 5\nseed = 9\n'
        'diagnostics = true\n'
        '[topology]\nkind = "random_k"\nk = 3\n'
        '[model]\nkind = "mlp"\nhidden = [8]\n'
        "[optimizer]\neta0 = 0.1\ndecay = 0.998\nlambda = 0.1\nbatch_size = 16\n"
        '[partition]\nscheme = "dirichlet"\nalpha = 0.3\n'
        "[data]\nclasses = 3\ndim = 6\nper_class = 60\nspread = 0.8\ntest_per_class = 30\n"
    )
    outputs = {}
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        assert main(
            ["run", "--config", str(config), "--out", str(out), "--workers", workers]
        ) == 0
        outputs[workers] = (out / "metrics.csv").read_bytes()
    assert outputs["1"] == outputs["4"]


def test_criterion_13_beta_validation_rejected_at_load(tmp_path, capsys):
    config = tmp_path / "bad.toml"
    config.write_text(
        'algorithm = "oled_sgd"\nbeta = 1.2\nm = 4\nrounds = 1\n'
        '[topology]\nkind = "ring"\n[model]\nkind = "quadratic"\np = 2\n'
    )
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "beta" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="beta"):
        validated(desk_logistic(beta=1.0))
