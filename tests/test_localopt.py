"""Local optimizer steps and the per-round training loop."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip import engine, localopt
from dgossip.config import (
    AlgorithmKind,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    load_config,
    validated,
)
from dgossip.data import generate_synthetic
from dgossip.engine import (
    build_problem,
    client_batches,
    participants,
    run_experiment,
    run_round,
)
from dgossip.localopt import OptimizerConfig, local_train, lr_at_round
from dgossip.models import (
    ModelSpec,
    Scratch,
    Shard,
    ShardStack,
    Workspace,
    _with_ones,
    batch_grads,
    full_objective,
    init_params,
    loss_and_grad,
    quadratic_testbed,
)
from dgossip.stability import first_draw
from dgossip.topology import TopologyKind, TopologySpec, build_mixing
from minibatch import gather
from stream_reference import column

ROOT = Path(__file__).parents[1]


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


# one client as a one-row stack
CLIENT0 = ShardStack.of([0])


def step(spec, x, stack=CLIENT0, batch=None, k_steps=1, **optimizer):
    """``k_steps`` local steps of the stack ``x`` at eta = eta0, on the (m, B) ``batch`` every step."""
    cfg = OptimizerConfig(decay=1.0, batch_size=1 if batch is None else batch.shape[-1], **optimizer)
    draws = None if batch is None else np.stack([batch] * k_steps)
    return local_train(spec, x, stack, k_steps, cfg, draws, round_index=0).z


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
        out = step(spec, np.array([[1.0]]), eta0=0.1)
        assert out == pytest.approx(np.array([[0.9]]))

    def test_zero_eta_leaves_x_unchanged(self):
        # eta = 0 is rejected at config level; the raw step still honors it
        spec = identity_quadratic()
        x = np.array([[1.3]])
        assert np.array_equal(step(spec, x, eta0=0.0), x)

    def test_two_steps_linear_recursion(self):
        spec = identity_quadratic()
        x = np.array([[1.0]])
        eta = 0.1
        for _ in range(2):
            x = step(spec, x, eta0=eta)
        assert x == pytest.approx(np.array([[(1 - eta) ** 2]]))


class TestSamStep:
    def test_hand_example(self):
        # g1 = [2, 0]; perturbed point [3, 0]; g = [3, 0]; x' = [1.7, 0]
        spec = identity_quadratic(p=2)
        out = step(spec, np.array([[2.0, 0.0]]), method="sam", eta0=0.1, lam=1.0)
        assert out == pytest.approx(np.array([[1.7, 0.0]]), abs=1e-15)

    def test_lambda_zero_is_bitwise_sgd(self, rng):
        shard = ShardStack.of([toy_shard()])
        spec = ModelSpec(kind="logistic", dim=4, num_classes=3)
        for _ in range(10):
            x = rng.normal(size=(1, spec.param_count()))
            batch = rng.integers(0, shard.sizes[0], size=(1, 5))
            a = step(spec, x, shard, batch, method="sam", eta0=0.1, lam=0.0)
            b = step(spec, x, shard, batch, method="sgd", eta0=0.1)
            assert np.array_equal(a, b)

    def test_stationary_point_guard(self):
        spec = identity_quadratic(p=2)
        x = np.zeros((1, 2))  # exact stationary point: g1 = 0
        out = step(spec, x, method="sam", eta0=0.1, lam=0.5)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("p", [3, 7, 50, 99, 1002, 4097])
    @pytest.mark.parametrize("m", [1, 4, 100])
    def test_stacked_norms_equal_per_row_linalg_norm(self, monkeypatch, m, p):
        # the ascent point x + lam * g / ||g|| of each row, with ||g|| bitwise
        # the one-row np.linalg.norm, whatever the row length
        g = np.random.default_rng([m, p]).normal(size=(m, p)) * np.logspace(-6, 6, m)[:, None]
        points = []

        def grads(spec, x, ws, out=None):  # the workspace and output go unused
            points.append(x)
            return g.copy()

        monkeypatch.setattr(localopt, "batch_grads", grads)
        # a one-class logistic model has p parameters; every row draws the one sample
        spec = ModelSpec(kind="logistic", dim=p - 1, num_classes=1)
        ones = np.ones(m, dtype=np.intp)
        features = _with_ones(np.zeros((1, p - 1)))
        stack = ShardStack(np.arange(m), ones, ones - 1, features, np.zeros(1, dtype=np.int64))
        x = np.zeros((m, p))
        step(spec, x, stack, np.zeros((m, 1), dtype=np.intp), method="sam", lam=0.5, grad_floor=0.0)
        norms = np.array([np.linalg.norm(row) for row in g])
        assert np.array_equal(points[1], np.multiply(0.5, g) / norms[:, None] + x)


class TestMomentumStep:
    def test_mu_zero_is_sgd(self, rng):
        shard = ShardStack.of([toy_shard()])
        spec = ModelSpec(kind="logistic", dim=4, num_classes=3)
        x = rng.normal(size=(1, spec.param_count()))
        batch = rng.integers(0, shard.sizes[0], size=(1, 5))
        out = step(spec, x, shard, batch, method="sgd_momentum", eta0=0.1, mu=0.0)
        assert np.array_equal(out, step(spec, x, shard, batch, method="sgd", eta0=0.1))

    def test_hand_recursion(self):
        spec = identity_quadratic()
        # v1 = 1, x1 = 0.9; v2 = 0.9 * 1 + 0.9 = 1.8, x2 = 0.9 - 0.18 = 0.72
        x = np.array([[1.0]])
        assert step(spec, x, method="sgd_momentum", eta0=0.1, mu=0.9) == pytest.approx(np.array([[0.9]]))
        assert step(spec, x, k_steps=2, method="sgd_momentum", eta0=0.1, mu=0.9) == pytest.approx(
            np.array([[0.72]])
        )

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
        assert np.array_equal(res.z, step(spec, np.array([[1.0]]), eta0=0.1)[0])

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
        # SAM at lambda = 0 and momentum at mu = 0, over a stacked MLP round of K = 3 steps
        spec, stack, x0, draws = mlp_stack()
        sgd = OptimizerConfig(method="sgd", eta0=0.1, decay=0.998, batch_size=draws.shape[-1])
        expected = local_train(spec, x0, stack, len(draws), sgd, draws, round_index=2, ref_point=x0)
        for method, degenerate in (("sam", dict(lam=0.0)), ("sgd_momentum", dict(mu=0.0))):
            cfg = replace(sgd, method=method, **degenerate)
            res = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=2, ref_point=x0)
            assert res.z.tobytes() == expected.z.tobytes(), method
            assert res.v1.tobytes() == expected.v1.tobytes(), method

    def test_descent_on_noiseless_quadratic(self):
        # eta below 1/L with L = 2 keeps full-batch local loss non-increasing
        spec = quadratic_testbed(1, 6, 0.0, seed=4)
        cfg = OptimizerConfig(method="sgd", eta0=0.4, decay=1.0)
        x = np.random.default_rng(0).normal(size=(1, 6))
        losses = [loss_and_grad(spec, x[0], 0)[0]]
        for _ in range(20):
            x = step(spec, x, eta0=cfg.eta0)
            losses.append(loss_and_grad(spec, x[0], 0)[0])
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

    @pytest.mark.parametrize("client, row", [(0, 27), (1, -1)], ids=["past_its_end", "before_its_start"])
    def test_a_row_outside_its_own_shard_raises(self, client, row):
        # client 0 holds 27 samples and client 1 holds 2, so client 0's row 27 is client 1's first
        # sample and client 1's row -1 is client 0's last: inside the stack, outside the shard
        cfg = validated(load_config(str(ROOT / "configs" / "logistic_dirichlet.toml")))
        problem = build_problem(cfg)
        sizes, k_steps, batch_size = problem.shards.sizes, cfg.local_steps, cfg.optimizer.batch_size
        assert sizes[:2].tolist() == [27, 2]
        draws = client_batches(cfg.seed, np.arange(cfg.m), 0, sizes, k_steps, batch_size)
        draws[:, client] = row
        x0 = np.tile(problem.x0, (cfg.m, 1))
        message = rf"^minibatch rows of client {client} outside its {sizes[client]} samples$"
        with pytest.raises(IndexError, match=message):
            local_train(problem.spec, x0, problem.shards, k_steps, cfg.optimizer, draws, round_index=0)

    def test_draws_of_another_shape_raise(self):
        spec, stack, x0, draws = mlp_stack(batch_size=4)
        cfg = OptimizerConfig(batch_size=32)
        message = r"^draws shaped \(3, 6, 4\), expected \(K, m, batch_size\) = \(3, 6, 32\)$"
        with pytest.raises(ValueError, match=message):
            local_train(spec, x0, stack, 3, cfg, draws, round_index=0)


class TestPhaseIndex:
    """A local phase checks and indexes all K steps' minibatches once, before its first step."""

    def test_a_bad_index_in_the_last_step_raises_before_any_gradient_call(self, monkeypatch):
        spec, stack, x0, draws = mlp_stack()
        draws[-1, 4, 2] = stack.sizes[4]
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return batch_grads(*args, **kwargs)

        monkeypatch.setattr(localopt, "batch_grads", spy)
        cfg = OptimizerConfig(batch_size=draws.shape[-1])
        with pytest.raises(IndexError, match=r"^minibatch rows of client 4 outside its 15 samples$"):
            local_train(spec, x0, stack, len(draws), cfg, draws, round_index=0)
        assert calls == []
        draws[-1, 4, 2] = 0
        local_train(spec, x0, stack, len(draws), cfg, draws, round_index=0)
        assert len(calls) == len(draws)

    @pytest.mark.parametrize("late", [-1, 10**6], ids=["before_its_start", "past_its_end"])
    def test_the_error_names_the_first_bad_client_over_all_steps(self, late):
        # client 3 is out of range in step 0 and client 1 only in the last step: client 1 comes first
        spec, stack, x0, draws = mlp_stack()
        draws[0, 3, 0] = stack.sizes[3]
        draws[-1, 1, -1] = late
        cfg = OptimizerConfig(batch_size=draws.shape[-1])
        with pytest.raises(IndexError, match=r"^minibatch rows of client 1 outside its 15 samples$"):
            local_train(spec, x0, stack, len(draws), cfg, draws, round_index=0)

    @pytest.mark.parametrize("method", ["sgd", "sam", "sgd_momentum"])
    def test_a_stacked_phase_equals_a_step_loop_over_batch_and_batch_grads(self, method):
        spec, stack, x0, draws = mlp_stack(m=8, k_steps=4)
        floor = float(np.median([np.linalg.norm(g) for g in first_gradients(spec, stack, x0, draws[0])]))
        cfg = OptimizerConfig(method=method, lam=0.05, mu=0.9, grad_floor=floor, batch_size=draws.shape[-1])
        res = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=3, ref_point=x0)
        eta = lr_at_round(cfg, 3)
        ws = Workspace(spec, stack, draws.shape[-1])
        x, v, v1, split = x0.copy(), np.zeros_like(x0), np.zeros(len(x0)), []
        for rows in draws:
            v1 += np.square(x - x0).sum(axis=1)
            gather(stack, rows, ws)
            g = batch_grads(spec, x, ws)
            if method == "sam":
                norms = np.array([np.linalg.norm(row) for row in g])
                ascend = norms > floor
                split.append(ascend.sum())
                peak = np.multiply(cfg.lam, g) / np.where(ascend, norms, 1.0)[:, None] + x
                g = np.where(ascend[:, None], batch_grads(spec, peak, ws), g)
            if method == "sgd_momentum":
                v = v * cfg.mu + g
                g = eta * v
            else:
                g = eta * g
            x = x - g
        assert res.z.tobytes() == x.tobytes() and res.v1.tobytes() == v1.tobytes()
        if method == "sam":  # the floor splits step 0's rows in half
            assert split[0] == len(x0) // 2


def first_gradients(spec, stack, x, rows):
    """The stack's gradients at x on the (m, B) minibatch ``rows``, by a local step's gather and the kernel."""
    ws = Workspace(spec, stack, rows.shape[-1])
    gather(stack, rows, ws)
    return batch_grads(spec, x, ws)


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
    stack = ShardStack(np.arange(m), sizes, np.arange(m) * n, _with_ones(ds.features), ds.labels)
    spec = ModelSpec(kind="mlp", dim=4, num_classes=3, hidden=(5, 3))
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(m, spec.param_count()))
    draws = rng.integers(0, n, size=(k_steps, m, batch_size))
    return spec, stack, x0, draws


@pytest.mark.parametrize("hidden", [(), (5, 3)], ids=["logistic", "mlp"])
@pytest.mark.parametrize("method", ["sgd", "sam", "sgd_momentum"])
def test_a_poisoned_scratch_leaves_the_local_phase_bitwise(hidden, method):
    # every float64 of the block reads NaN until written: each ones column is written on every call
    spec, stack, x0, draws = mlp_stack()
    spec = replace(spec, kind="mlp" if hidden else "logistic", hidden=hidden)
    x0 = x0[:, : spec.param_count()]
    cfg = OptimizerConfig(method=method, lam=0.05, mu=0.9, batch_size=draws.shape[-1])
    want = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=1, ref_point=x0)
    scratch = Scratch()
    for t in range(3):
        res = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=1, ref_point=x0, scratch=scratch)
        assert res.z.tobytes() == want.z.tobytes() and res.v1.tobytes() == want.v1.tobytes(), t
        scratch._block.fill(0xFF)


def test_a_central_quadratic_run_reuses_one_local_phase_workspace(monkeypatch):
    # the participants change every round; the workspace holds none of their terms, so it is laid out once
    cfg = load_config(
        str(ROOT / "configs" / "quadratic_ring.toml"),
        ["algorithm=fedsam_central", "participation=0.5", "rounds=6", "optimizer.lambda=0.05"],
    )
    problem = build_problem(cfg)
    laid, calls = [], []
    arrays, train = Scratch._arrays, engine.local_train

    def recorded(self, layout):
        laid.append(self)
        return arrays(self, layout)

    def with_a_fresh_call(*args, scratch, **kwargs):
        res = train(*args, scratch=scratch, **kwargs)
        calls.append((args[2].clients.tolist(), scratch, res, train(*args, **kwargs)))
        return res

    monkeypatch.setattr(Scratch, "_arrays", recorded)
    monkeypatch.setattr(engine, "local_train", with_a_fresh_call)
    run_experiment(cfg, problem=problem)
    scratch = calls[0][1]
    assert len(calls) == 6 and len({tuple(clients) for clients, *_ in calls}) > 1
    assert laid.count(scratch) == 1 and all(s is scratch for _, s, *_ in calls)
    for t, (_, _, res, fresh) in enumerate(calls):
        assert res.z.tobytes() == fresh.z.tobytes() and res.v1.tobytes() == fresh.v1.tobytes(), t


@pytest.mark.parametrize("method", ["sgd", "sam"])
def test_an_infinite_scratch_between_an_evaluation_and_a_local_phase_leaves_it_bitwise(method):
    # +inf, unlike NaN, warns when multiplied by zero, and a RuntimeWarning fails the test
    spec, stack, x0, draws = mlp_stack()
    cfg = OptimizerConfig(method=method, lam=0.05, batch_size=draws.shape[-1])
    want = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=1)
    scratch = Scratch()
    for t in range(3):
        res = local_train(spec, x0, stack, len(draws), cfg, draws, round_index=1, scratch=scratch)
        assert res.z.tobytes() == want.z.tobytes(), t
        full_objective(spec, x0[0], stack, scratch)  # lays out over the local phase's cached workspace
        scratch._block.view(np.uint64).fill(0x7FF0000000000000)  # every float64 reads +inf


class TestNoAliasing:
    """A local phase's scratch never leaks into what it returns or reads."""

    def test_second_batch_grads_call_leaves_the_first_result(self):
        spec, stack, x0, draws = mlp_stack()
        ws = Workspace(spec, stack, draws.shape[-1])
        gather(stack, draws[0], ws)
        first = batch_grads(spec, x0, ws)
        kept = first.copy()
        gather(stack, draws[1], ws)
        second = batch_grads(spec, x0 + 1.0, ws)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)
        fresh = Workspace(spec, stack, draws.shape[-1])
        gather(stack, draws[0], fresh)
        assert np.array_equal(first, batch_grads(spec, x0, fresh))

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
        clients = participants(cfg, 6, 1)
        draws = client_batches(cfg.seed, clients, 1, problem.shards.sizes[clients], 3, 4)
        info = run_round(x, z, 1, cfg, w, problem, clients, draws)
        for a, b in zip(inputs, kept):
            assert a.tobytes() == b.tobytes()
        for name in ("z", "x_mixed"):
            assert not any(np.shares_memory(getattr(info, name), a) for a in inputs)


class TestLocalPhaseMemory:
    # the peak was 6.26 m*p*8 with the workspace and 9.06 before it, and 6.57 once a local phase
    # holds all its steps' minibatch rows and label index; 7.0 leaves 0.43 of headroom, less than
    # one more (m, p) array per step
    PEAK_MULTIPLE = 7.0

    def test_stacked_sam_peak_stays_within_a_fixed_multiple_of_the_stack(self):
        m, k_steps, batch_size = 100, 5, 32
        ds = generate_synthetic(10, 20, 200, 0.5, seed=3)
        sizes = np.full(m, 20)
        stack = ShardStack(np.arange(m), sizes, np.cumsum(sizes) - sizes, _with_ones(ds.features), ds.labels)
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
