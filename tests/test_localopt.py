"""Local optimizer steps and the per-round training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip import localopt
from dgossip.data import generate_synthetic
from dgossip.engine import (
    AlgorithmKind,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    build_problem,
    client_batches,
    run_round,
    validated,
)
from dgossip.localopt import (
    OptimizerConfig,
    local_train,
    lr_at_round,
    momentum_step,
    sam_step,
    sgd_step,
)
from dgossip.models import (
    ModelSpec,
    Shard,
    ShardStack,
    Workspace,
    batch_grads,
    init_params,
    loss_and_grad,
    quadratic_testbed,
)
from dgossip.stability import first_draw
from dgossip.topology import TopologyKind, TopologySpec, build_mixing
from stream_reference import column


def identity_quadratic(p=1):
    return ModelSpec(
        kind="quadratic",
        quad_a=np.eye(p)[None],
        quad_b=np.zeros((1, p)),
        quad_opt=np.zeros(p),
    )


def toy_shard(seed=0):
    ds = generate_synthetic(3, 4, 10, 0.8, seed=seed)
    return Shard(ds.features, ds.labels)


class TestLrSchedule:
    def test_documented_default_start(self):
        cfg = OptimizerConfig(eta0=0.1, decay=0.998)
        assert lr_at_round(cfg, 0) == 0.1
        assert lr_at_round(cfg, 1) == pytest.approx(0.0998)

    def test_no_decay(self):
        cfg = OptimizerConfig(eta0=0.05, decay=1.0)
        assert all(lr_at_round(cfg, t) == 0.05 for t in (0, 10, 500))

    @settings(max_examples=50)
    @given(st.floats(min_value=1e-4, max_value=1.0), st.floats(min_value=0.5, max_value=1.0))
    def test_positive_nonincreasing(self, eta0, decay):
        cfg = OptimizerConfig(eta0=eta0, decay=decay)
        lrs = [lr_at_round(cfg, t) for t in range(30)]
        assert all(lr > 0 for lr in lrs)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestSgdStep:
    def test_identity_quadratic(self):
        spec = identity_quadratic()
        out = sgd_step(spec, np.array([1.0]), 0, None, eta=0.1)
        assert out == pytest.approx([0.9])

    def test_zero_eta_leaves_x_unchanged(self):
        # eta = 0 is rejected at config level; the raw step still honors it
        spec = identity_quadratic()
        x = np.array([1.3])
        assert np.array_equal(sgd_step(spec, x, 0, None, eta=0.0), x)

    def test_two_steps_linear_recursion(self):
        spec = identity_quadratic()
        x = np.array([1.0])
        eta = 0.1
        for _ in range(2):
            x = sgd_step(spec, x, 0, None, eta)
        assert x == pytest.approx([(1 - eta) ** 2])


class TestSamStep:
    def test_hand_example(self):
        # g1 = [2, 0]; perturbed point [3, 0]; g = [3, 0]; x' = [1.7, 0]
        spec = identity_quadratic(p=2)
        out = sam_step(spec, np.array([2.0, 0.0]), 0, None, eta=0.1, lam=1.0)
        assert out == pytest.approx([1.7, 0.0], abs=1e-15)

    def test_lambda_zero_is_bitwise_sgd(self, rng):
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=4, num_classes=3)
        for _ in range(10):
            x = rng.normal(size=spec.param_count())
            batch = rng.integers(0, len(shard), size=5)
            a = sam_step(spec, x, shard, batch, eta=0.1, lam=0.0)
            b = sgd_step(spec, x, shard, batch, eta=0.1)
            assert np.array_equal(a, b)

    def test_stationary_point_guard(self):
        spec = identity_quadratic(p=2)
        x = np.zeros(2)  # exact stationary point: g1 = 0
        out = sam_step(spec, x, 0, None, eta=0.1, lam=0.5)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("p", [3, 7, 50, 99, 1002, 4097])
    @pytest.mark.parametrize("m", [1, 4, 100])
    def test_stacked_norms_equal_per_row_linalg_norm(self, monkeypatch, m, p):
        # the ascent point x + lam * g / ||g|| of each row, with ||g|| bitwise
        # the one-row np.linalg.norm, whatever the row length
        g = np.random.default_rng([m, p]).normal(size=(m, p)) * np.logspace(-6, 6, m)[:, None]
        points = []

        def grads(spec, x, minibatch, **_):  # the scratch and output keywords go unused
            points.append(x)
            return g.copy()

        monkeypatch.setattr(localopt, "batch_grads", grads)
        x = np.zeros((m, p))
        sam_step(identity_quadratic(), x, ShardStack.of(range(m)), None, eta=0.1, lam=0.5, grad_floor=0.0)
        norms = np.array([np.linalg.norm(row) for row in g])
        assert np.array_equal(points[1], np.multiply(0.5, g) / norms[:, None] + x)


class TestMomentumStep:
    def test_mu_zero_is_sgd(self, rng):
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=4, num_classes=3)
        x = rng.normal(size=spec.param_count())
        batch = rng.integers(0, len(shard), size=5)
        out, _ = momentum_step(spec, x, np.zeros_like(x), shard, batch, eta=0.1, mu=0.0)
        assert np.array_equal(out, sgd_step(spec, x, shard, batch, eta=0.1))

    def test_hand_recursion(self):
        spec = identity_quadratic()
        x, v = np.array([1.0]), np.zeros(1)
        x, v = momentum_step(spec, x, v, 0, None, eta=0.1, mu=0.9)
        assert v == pytest.approx([1.0]) and x == pytest.approx([0.9])
        x, v = momentum_step(spec, x, v, 0, None, eta=0.1, mu=0.9)
        assert v == pytest.approx([1.8]) and x == pytest.approx([0.72])

    def test_fresh_buffer_first_step_equals_sgd(self):
        spec = identity_quadratic()
        cfg = OptimizerConfig(method="sgd_momentum", eta0=0.1, decay=1.0, mu=0.9)
        res = local_train(
            spec, np.array([1.0]), 0, 1, cfg, np.random.default_rng(0), round_index=0
        )
        assert res.z == pytest.approx([0.9])


class TestLocalTrain:
    def test_single_step_composition(self):
        spec = identity_quadratic()
        cfg = OptimizerConfig(method="sgd", eta0=0.1, decay=1.0)
        res = local_train(spec, np.array([1.0]), 0, 1, cfg, np.random.default_rng(0), round_index=0)
        assert np.array_equal(res.z, sgd_step(spec, np.array([1.0]), 0, None, 0.1))

    def test_closed_form_after_k_steps(self):
        spec = identity_quadratic()
        cfg = OptimizerConfig(method="sgd", eta0=0.1, decay=1.0)
        res = local_train(spec, np.array([1.0]), 0, 5, cfg, np.random.default_rng(0), round_index=0)
        assert res.z == pytest.approx([(1 - 0.1) ** 5])

    def test_identical_stream_identical_trajectory(self):
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=4, num_classes=3)
        cfg = OptimizerConfig(method="sgd", eta0=0.1, decay=0.998, batch_size=4)
        x0 = np.linspace(-1, 1, spec.param_count())
        a = local_train(spec, x0.copy(), shard, 7, cfg, np.random.default_rng([5]), round_index=2)
        b = local_train(spec, x0.copy(), shard, 7, cfg, np.random.default_rng([5]), round_index=2)
        assert np.array_equal(a.z, b.z)

    def test_sam_lambda_zero_bitwise_equals_sgd_over_round(self):
        # same generator consumption: one batch draw per step on both paths
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=4, num_classes=3)
        x0 = np.linspace(-0.5, 0.5, spec.param_count())
        sam = OptimizerConfig(method="sam", eta0=0.1, decay=1.0, lam=0.0, batch_size=4)
        sgd = OptimizerConfig(method="sgd", eta0=0.1, decay=1.0, batch_size=4)
        a = local_train(spec, x0.copy(), shard, 6, sam, np.random.default_rng([9]), round_index=0)
        b = local_train(spec, x0.copy(), shard, 6, sgd, np.random.default_rng([9]), round_index=0)
        assert np.array_equal(a.z, b.z)

    def test_descent_on_noiseless_quadratic(self):
        # eta below 1/L with L = 2 keeps full-batch local loss non-increasing
        spec = quadratic_testbed(1, 6, 0.0, seed=4)
        cfg = OptimizerConfig(method="sgd", eta0=0.4, decay=1.0)
        x = np.random.default_rng(0).normal(size=6)
        losses = [loss_and_grad(spec, x, 0)[0]]
        for _ in range(20):
            x = sgd_step(spec, x, 0, None, cfg.eta0)
            losses.append(loss_and_grad(spec, x, 0)[0])
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_drift_accumulation_counts_pre_step_iterates(self):
        # K=1 with ref == x0 contributes only the k=0 term, which is 0
        spec = identity_quadratic()
        cfg = OptimizerConfig(method="sgd", eta0=0.1, decay=1.0)
        x0 = np.array([1.0])
        res = local_train(
            spec, x0, 0, 1, cfg, np.random.default_rng(0), round_index=0, ref_point=x0
        )
        assert res.v1 == 0.0

    def test_first_draw_replays_the_client_stream(self):
        cfg = ExperimentConfig(
            algorithm=AlgorithmKind.DFEDAVG, m=4, rounds=8, local_steps=3, seed=7,
            topology=TopologySpec(TopologyKind.RING, 4), optimizer=OptimizerConfig(batch_size=2),
        )
        size, (client, sample) = 30, (2, 6)
        # step k takes the k-th run of B values of the client's (seed, client, round) stream
        expected = None
        batch_size = cfg.optimizer.batch_size
        for t in range(cfg.rounds):
            values = column(cfg.seed, client, t, size, cfg.local_steps * batch_size)
            for k in range(cfg.local_steps):
                if expected is None and sample in values[k * batch_size : (k + 1) * batch_size]:
                    expected = (t, k)
        assert expected is not None and expected[0] > 0
        assert first_draw(cfg, size, (client, sample)) == expected

    def test_rejects_zero_steps(self):
        spec = identity_quadratic()
        cfg = OptimizerConfig()
        with pytest.raises(ValueError):
            local_train(spec, np.zeros(1), 0, 0, cfg, np.random.default_rng(0), round_index=0)


class TestOptimizerConfigValidation:
    def test_rejects_bad_values(self):
        for kwargs in (
            dict(method="adam"),
            dict(eta0=0.0),
            dict(decay=0.0),
            dict(decay=1.5),
            dict(lam=-0.1),
            dict(mu=1.0),
            dict(batch_size=0),
        ):
            with pytest.raises(ValueError):
                OptimizerConfig(**kwargs).validate()

    def test_defaults_validate(self):
        OptimizerConfig().validate()


def mlp_stack(m=6, n=15, batch_size=4, k_steps=3, seed=0):
    """(spec, ShardStack, x0, (K, m, B) draws) of a small MLP stack."""
    ds = generate_synthetic(3, 4, 40, 0.8, seed=seed)
    sizes = np.full(m, n)
    stack = ShardStack(np.arange(m), sizes, np.arange(m) * n, ds.features, ds.labels)
    spec = ModelSpec(kind="mlp", dim=4, num_classes=3, hidden=(5, 3))
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(m, spec.param_count()))
    draws = rng.integers(0, n, size=(k_steps, m, batch_size))
    return spec, stack, x0, draws


class TestNoAliasing:
    """A local phase's scratch never leaks into what it returns or reads."""

    def test_second_batch_grads_call_leaves_the_first_result(self):
        spec, stack, x0, draws = mlp_stack()
        ws = Workspace(spec, stack, draws.shape[-1])
        first = batch_grads(spec, x0, stack.batch(draws[0], ws), ws=ws)
        kept = first.copy()
        second = batch_grads(spec, x0 + 1.0, stack.batch(draws[1], ws), ws=ws)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)
        assert np.array_equal(first, batch_grads(spec, x0, stack.batch(draws[0])))

    @pytest.mark.parametrize("method", ["sgd", "sam", "sgd_momentum"])
    @pytest.mark.parametrize("with_ref", [False, True])
    def test_local_train_writes_neither_x0_nor_ref_point(self, method, with_ref):
        spec, stack, x0, draws = mlp_stack()
        ref = x0 + 0.5 if with_ref else None
        cfg = OptimizerConfig(method=method, lam=0.05, mu=0.9, batch_size=draws.shape[-1])
        inputs = [a for a in (x0, ref, draws) if a is not None]
        kept = [a.copy() for a in inputs]
        res = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=1, ref_point=ref)
        again = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=1, ref_point=ref)
        for a, b in zip(inputs, kept):
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(res.z, a)
        assert res.z.tobytes() == again.z.tobytes()
        assert not np.shares_memory(res.z, again.z)

    @pytest.mark.parametrize("central", [False, True], ids=["ring", "central"])
    def test_run_round_writes_none_of_its_inputs(self, central):
        algo = dict(algorithm=AlgorithmKind.FEDSAM_CENTRAL, participation=0.5) if central else dict(
            algorithm=AlgorithmKind.OLED_SAM, beta=0.5, topology=TopologySpec(TopologyKind.RING, 6)
        )
        cfg = validated(ExperimentConfig(
            m=6, rounds=1, local_steps=3, diagnostics=True, model=ModelConfig(kind="mlp", hidden=(5,)),
            optimizer=OptimizerConfig(lam=0.05, batch_size=4),
            data=DataConfig(classes=3, dim=4, per_class=20, test_per_class=5), **algo,
        ))
        problem = build_problem(cfg)
        rng = np.random.default_rng(3)
        x = problem.x0 + rng.normal(size=(6, problem.x0.size))
        z = problem.x0 + rng.normal(size=(6, problem.x0.size))
        w = None if central else build_mixing(cfg.topology)
        inputs = (x, z, problem.x0, problem.shards.features, problem.shards.labels)
        kept = [a.copy() for a in inputs]
        info = run_round(x, z, 1, cfg, w, problem)
        for a, b in zip(inputs, kept):
            assert a.tobytes() == b.tobytes()
        for name in ("z", "x_mixed"):
            assert not any(np.shares_memory(getattr(info, name), a) for a in inputs)


class TestLocalPhaseMemory:
    # the peak was 6.26 m*p*8 with the workspace and 9.06 before it; 7.0 leaves 0.74 of headroom,
    # less than one more (m, p) array per step
    PEAK_MULTIPLE = 7.0

    def test_stacked_sam_peak_stays_within_a_fixed_multiple_of_the_stack(self):
        m, k_steps, batch_size = 100, 5, 32
        ds = generate_synthetic(10, 20, 200, 0.5, seed=3)
        sizes = np.full(m, 20)
        stack = ShardStack(np.arange(m), sizes, np.cumsum(sizes) - sizes, ds.features, ds.labels)
        spec = ModelSpec(kind="mlp", dim=20, num_classes=10, hidden=(32,))
        x0 = np.tile(init_params(spec, 1), (m, 1))
        draws = client_batches(1, np.arange(m), 0, sizes, k_steps, batch_size)
        cfg = OptimizerConfig(method="sam", lam=0.05, batch_size=batch_size)
        local_train(spec, x0, stack, k_steps, cfg, draws, round_index=0)
        tracemalloc.start()
        try:
            local_train(spec, x0, stack, k_steps, cfg, draws, round_index=0, ref_point=x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_MULTIPLE * x0.nbytes
