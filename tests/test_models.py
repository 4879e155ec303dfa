"""Objectives and analytic gradients against a finite-difference oracle."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip import models
from dgossip.config import load_config
from dgossip.data import generate_synthetic
from dgossip.engine import build_problem
from dgossip.localopt import OptimizerConfig, local_train
from dgossip.metrics import eval_model
from dgossip.models import (
    ModelSpec,
    Shard,
    ShardStack,
    full_objective,
    init_params,
    loss_and_grad,
    quadratic_testbed,
)
from minibatch import gather


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def central_fd_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def assert_gradcheck(fn, analytic, x, h=1e-6, rtol=1e-5):
    """Central-difference check at the oracle's own resolution.

    The difference quotient carries rounding noise of roughly
    eps * |f| / h, so components smaller than noise / rtol cannot be
    validated relatively; they get an absolute allowance at the noise
    floor instead (a stronger statement than skipping them).
    """
    numeric = central_fd_grad(fn, x, h)
    atol = 1e-9 * max(1.0, abs(fn(x)))
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)
    mask = np.abs(analytic) > atol / rtol  # relative check where resolvable
    if mask.any():
        rel = np.max(np.abs(analytic[mask] - numeric[mask]) / np.abs(analytic[mask]))
        assert rel < rtol


def toy_shard(seed=0, n=24, d=5, c=3):
    ds = generate_synthetic(c, d, n // c, 0.8, seed=seed)
    return Shard(ds.features, ds.labels)


class TestShardStack:
    @pytest.mark.parametrize(
        "offsets, sizes, client",
        [([0, 5], [5, 10], 1), ([0, -1], [4, 2], 1), ([13, 0], [1, 12], 0)],
        ids=["past_the_end", "before_the_start", "first_client"],
    )
    def test_a_shard_outside_the_data_is_refused_naming_its_client(self, offsets, sizes, client):
        features, labels = np.ones((12, 3)), np.zeros(12, dtype=np.intp)
        offsets, sizes = np.array(offsets), np.array(sizes)
        end = offsets[client] + sizes[client]
        message = rf"^shard of client {client + 7} spans rows {offsets[client]} to {end}, outside the 12 rows of data$"
        with pytest.raises(ValueError, match=message):
            ShardStack(np.arange(2) + 7, sizes, offsets, features, labels)

    def test_a_stack_that_fits_its_data_builds_and_takes(self):
        features, labels = np.ones((12, 3)), np.zeros(12, dtype=np.intp)
        stack = ShardStack(np.arange(2), np.array([5, 7]), np.array([7, 0]), features, labels)
        assert stack.take([1]).offsets.tolist() == [0]
        assert len(ShardStack.of(range(3)).take([0, 2])) == 2  # the quadratic family has no data to check


class TestInitParams:
    def test_quadratic_starts_at_origin(self):
        spec = quadratic_testbed(2, 3, 1.0, seed=0)
        assert np.array_equal(init_params(spec, 5), np.zeros(3))

    def test_logistic_param_count(self):
        spec = ModelSpec(kind="logistic", dim=2, num_classes=2)
        assert spec.param_count() == 6
        assert init_params(spec, 0).shape == (6,)

    def test_mlp_param_count(self):
        spec = ModelSpec(kind="mlp", dim=4, num_classes=3, hidden=(8, 5))
        assert spec.param_count() == (4 * 8 + 8) + (8 * 5 + 5) + (5 * 3 + 3)

    def test_deterministic_and_bounded(self):
        spec = ModelSpec(kind="logistic", dim=7, num_classes=4)
        a = init_params(spec, 42)
        assert np.array_equal(a, init_params(spec, 42))
        bound = math.sqrt(6.0 / (7 + 4))
        assert np.abs(a).max() <= bound
        # biases (last num_classes entries) start at zero
        assert np.array_equal(a[-4:], np.zeros(4))


class TestQuadratic:
    def test_identity_objective_by_hand(self):
        spec = ModelSpec(
            kind="quadratic",
            quad_a=np.eye(2)[None],
            quad_b=np.zeros((1, 2)),
            quad_opt=np.zeros(2),
        )
        loss, grad = loss_and_grad(spec, np.array([1.0, 2.0]), shard=0)
        assert loss == pytest.approx(2.5)
        assert np.array_equal(grad, np.array([1.0, 2.0]))

    def test_testbed_optimum_is_stationary(self):
        spec = quadratic_testbed(4, 8, 1.0, seed=3)
        # independent oracle: solve with the raw stacked matrices
        x_star = np.linalg.solve(spec.quad_a.mean(axis=0), spec.quad_b.mean(axis=0))
        assert np.allclose(x_star, spec.quad_opt, atol=1e-12)
        _, grad = full_objective(spec, spec.quad_opt, ShardStack.of(range(4)))
        assert np.linalg.norm(grad) < 1e-10

    def test_eigenvalue_range(self):
        spec = quadratic_testbed(3, 6, 0.5, seed=9)
        for a in spec.quad_a:
            vals = np.linalg.eigvalsh(a)
            assert vals.min() >= 0.5 - 1e-9 and vals.max() <= 2.0 + 1e-9
            assert np.allclose(a, a.T, atol=1e-12)

    def test_zero_heterogeneity_with_shared_curvature(self):
        spec = quadratic_testbed(5, 4, 0.0, seed=1, identical_curvature=True)
        for i in range(5):
            _, g = loss_and_grad(spec, spec.quad_opt, shard=i)
            assert np.linalg.norm(g) < 1e-9

    def test_determinism(self):
        a = quadratic_testbed(3, 5, 1.0, seed=11)
        b = quadratic_testbed(3, 5, 1.0, seed=11)
        assert np.array_equal(a.quad_a, b.quad_a) and np.array_equal(a.quad_b, b.quad_b)

    @pytest.mark.parametrize(
        "m, p, identical", [(1, 1, False), (2, 2, True), (16, 3, False), (16, 3, True), (100, 8, False)]
    )
    def test_stacked_build_equals_the_per_client_loop(self, m, p, identical):
        # the reference: one qr and one product per client, in the draw order of the stream
        spec = quadratic_testbed(m, p, 0.7, seed=4, identical_curvature=identical)
        rng = np.random.default_rng([4])
        mats = np.empty((m, p, p))
        for i in range(1 if identical else m):
            q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            eigs = rng.uniform(0.5, 2.0, size=p)
            mats[i] = (q * eigs) @ q.T
            mats[i] = 0.5 * (mats[i] + mats[i].T)
        if identical:
            mats[1:] = mats[0]
        b_bar = rng.normal(size=p)
        delta = rng.normal(size=(m, p))
        delta -= delta.mean(axis=0)
        assert spec.quad_a.tobytes() == mats.tobytes()
        assert spec.quad_b.tobytes() == (b_bar + 0.7 * delta).tobytes()

    def test_averaging_cancels_opposite_linear_terms(self):
        spec = ModelSpec(
            kind="quadratic",
            quad_a=np.stack([np.eye(2), np.eye(2)]),
            quad_b=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            quad_opt=np.zeros(2),
        )
        _, grad = full_objective(spec, np.zeros(2), ShardStack.of([0, 1]))
        assert np.array_equal(grad, np.zeros(2))


class TestLogistic:
    def test_uniform_softmax_loss_at_zero(self):
        shard = toy_shard(c=2, n=20, d=3)
        spec = ModelSpec(kind="logistic", dim=3, num_classes=2)
        loss, _ = loss_and_grad(spec, np.zeros(spec.param_count()), shard)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=5, num_classes=3)
        for _ in range(5):
            x = rng.normal(size=spec.param_count())
            batch = rng.integers(0, len(shard), size=8)
            _, g = loss_and_grad(spec, x, shard, batch)
            assert_gradcheck(lambda v: loss_and_grad(spec, v, shard, batch)[0], g, x)

    def test_loss_nonnegative(self, rng):
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=5, num_classes=3)
        for _ in range(10):
            loss, _ = loss_and_grad(spec, rng.normal(size=spec.param_count()), shard)
            assert loss >= 0.0


class TestMlp:
    def test_gradient_matches_finite_differences(self, rng):
        shard = toy_shard()
        spec = ModelSpec(kind="mlp", dim=5, num_classes=3, hidden=(7, 4))
        for _ in range(5):
            x = rng.normal(size=spec.param_count()) * 0.7
            batch = rng.integers(0, len(shard), size=6)
            _, g = loss_and_grad(spec, x, shard, batch)
            assert_gradcheck(lambda v: loss_and_grad(spec, v, shard, batch)[0], g, x)

    def test_loss_nonnegative(self, rng):
        shard = toy_shard()
        spec = ModelSpec(kind="mlp", dim=5, num_classes=3, hidden=(6,))
        for _ in range(10):
            loss, _ = loss_and_grad(spec, rng.normal(size=spec.param_count()), shard)
            assert loss >= 0.0


def plain_logits(spec, x, feats):
    """Logits as ``a @ W + b`` per layer, tanh between: each layer's weight block, then its bias."""
    sizes = [spec.dim, *spec.hidden, spec.num_classes]
    a, offset = feats, 0
    for li, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        w = x[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        a = a @ w + x[offset : offset + fan_out]
        offset += fan_out
        if li < len(sizes) - 2:
            a = np.tanh(a)
    return a


@pytest.mark.parametrize("hidden", [(), (1,), (7, 5)])
def test_predictions_take_the_plain_forward_bitwise(hidden, rng):
    # evaluation keeps each bias out of its layer's product, so accuracy can be recomputed from the plain form
    shard = toy_shard(n=60)
    spec = ModelSpec(kind="mlp" if hidden else "logistic", dim=5, num_classes=3, hidden=hidden)
    for _ in range(5):
        x = rng.normal(size=spec.param_count())
        logits = plain_logits(spec, x, shard.features)
        assert np.array_equal(bits(models._forward(spec, x, shard.features)), bits(logits))
        assert np.array_equal(models.predictions(spec, x, shard), np.argmax(logits, axis=1))
        assert np.array_equal(models.loss_and_predictions(spec, x, shard)[1], np.argmax(logits, axis=1))


class TestFullObjective:
    def test_single_client_identity(self):
        shard = toy_shard()
        spec = ModelSpec(kind="logistic", dim=5, num_classes=3)
        x = init_params(spec, 1)
        loss_full, grad_full = full_objective(spec, x, ShardStack.of([shard]))
        loss_one, grad_one = loss_and_grad(spec, x, shard)
        assert loss_full == loss_one
        assert np.array_equal(grad_full, grad_one)

    def test_equals_mean_of_client_losses(self, rng):
        spec = ModelSpec(kind="logistic", dim=5, num_classes=3)
        shards = [toy_shard(seed=s) for s in range(4)]
        x = rng.normal(size=spec.param_count())
        total, _ = full_objective(spec, x, ShardStack.of(shards))
        per_client = [loss_and_grad(spec, x, s)[0] for s in shards]
        assert abs(total - np.mean(per_client)) <= 1e-12

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_one_pass_equals_the_per_shard_loop(self, kind, rng):
        # Dirichlet(0.3) shards of 16 clients, sized 1 to 81 at seed 0
        cfg = load_config(
            str(CONFIGS / "logistic_dirichlet.toml"), [f"model.kind={kind}", "model.hidden=[7]"]
        )
        problem = build_problem(cfg)
        spec, shards = problem.spec, problem.shards
        if kind != "quadratic":
            assert shards.sizes.min() == 1 and len(set(shards.sizes.tolist())) > 1
        x = problem.x0 + 0.5 * rng.normal(size=problem.x0.shape)
        # the whole stack, and a take() whose rows are not laid end to end
        for stack in (shards, shards.take(np.array([5, 0, 11, 3]))):
            loss, grad = full_objective(spec, x, stack)
            per_shard = [loss_and_grad(spec, x, shard) for shard in stack]
            ref_loss = np.mean([l for l, _ in per_shard])
            ref_grad = np.mean([g for _, g in per_shard], axis=0)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert abs(grad @ grad - ref_grad @ ref_grad) <= 1e-12 * (ref_grad @ ref_grad)
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    def test_independent_of_blas_threads(self):
        # 5000 training rows: one unblocked product over them rounds differently on two threads
        child = (
            "import hashlib, sys; import numpy as np; "
            "from dgossip.config import load_config; from dgossip.engine import build_problem; "
            "from dgossip.models import full_objective; "
            "p = build_problem(load_config(sys.argv[1], [])); "
            "x = p.x0 + 0.3 * np.random.default_rng(1).normal(size=p.x0.shape); "
            "loss, grad = full_objective(p.spec, x, p.shards); "
            "print(hashlib.sha256(np.float64(loss).tobytes() + grad.tobytes()).hexdigest())"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"), "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", child, str(CONFIGS / "large_random_topology.toml")],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_layout_is_built_once_per_stack(self, monkeypatch):
        problem = build_problem(load_config(str(CONFIGS / "logistic_dirichlet.toml")))
        spec, shards = problem.spec, problem.shards
        sub = shards.take(np.array([5, 0, 11, 3]))  # rows not laid end to end
        built = []
        layout = ShardStack.objective_blocks.func
        monkeypatch.setattr(ShardStack.objective_blocks, "func", lambda stack: built.append(stack) or layout(stack))
        for stack in (shards, sub, shards, sub):
            full_objective(spec, problem.x0, stack)
        assert built == [shards, sub]
        fresh = layout(sub)  # a take() keeps no layout of the stack it was taken from
        for cached, want in zip(sub.objective_blocks, fresh, strict=True):
            assert np.array_equal(cached, want) and np.asarray(cached).dtype == np.asarray(want).dtype
        assert fresh[0].shape != shards.objective_blocks[0].shape  # (blocks, length)

    @pytest.mark.parametrize("held", [None, 1, 5])
    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("n", [1, 63, 65, 2047, 2048, 2049, 4097, 5000, 6500, 9001])
    def test_layout_passes_are_equal_and_pad_with_whole_blocks(self, monkeypatch, n, g, held):
        spec, _, stack = split_stack(n, hidden=())
        rows, divisor, starts, sizes = stack.objective_blocks
        blocks, length = rows.shape
        block = models._block_bytes(spec, stack)
        if held is not None:
            hold(monkeypatch, spec, stack, held)
        passes, per_pass, pass_length = stack.objective_layout(spec, g)
        assert pass_length == length <= models._BLOCK_ROWS and divisor.shape == (blocks, length, 1)
        assert per_pass * block <= max(models._OBJECTIVE_BYTES, block)
        assert passes == -(-g * blocks // max(1, models._OBJECTIVE_BYTES // block))  # the fewest
        assert 0 <= passes * per_pass - g * blocks <= passes - 1  # whole blocks fill the last pass
        flat = divisor.reshape(-1)
        assert np.isfinite(flat[:n]).all() and np.isinf(flat[n:]).all() and len(flat) - n < length
        assert blocks == -(-n // models._BLOCK_ROWS)  # the fewest blocks
        order = np.concatenate([np.arange(o, o + k) for o, k in zip(stack.offsets, stack.sizes)])
        assert np.array_equal(rows.reshape(-1)[:n], order) and starts[-1] + sizes[-1] == n

    @pytest.mark.parametrize("held", [None, 1, 7])
    @pytest.mark.parametrize("hidden", [(), (1,), (7, 5), (3, 1)])
    @pytest.mark.parametrize("n", [2047, 2049, 4097, 6500])
    def test_gradient_adds_the_blocks_in_order(self, monkeypatch, n, hidden, held):
        # width-1 layers too: numpy adds a contiguous (blocks, 1) column pairwise, not in block order
        spec, x, stack = split_stack(n, hidden)
        for st in (stack, stack.take(np.arange(len(stack))[::-1])):
            if held is not None:  # the running sum carried from pass to pass
                hold(monkeypatch, spec, st, held)
                assert st.objective_layout(spec)[0] > 1
            _, grad = full_objective(spec, x, st)
            assert grad.tobytes() == blockwise_reference(spec, x, st).tobytes()

    @pytest.mark.parametrize("hidden", [(), (1,), (7, 5)])
    def test_a_broadcast_stack_equals_its_copy(self, hidden, rng):
        spec, x, stack = split_stack(300, hidden)
        feats = stack.features[:300].reshape(5, 60, -1)
        labels = stack.labels[:300].reshape(5, 60)
        divisor = rng.uniform(1.0, 400.0, size=(5, 60, 1))
        ws = models.Workspace(spec, stack, 60, blocks=5)
        ws.features[...] = feats
        picked = ws.class_starts + labels.reshape(-1)
        (nll_b, grad_b), (nll_t, grad_t) = (
            models._forward_backward(spec, stacked, ws, picked, divisor, True)
            for stacked in (np.broadcast_to(x, (5, len(x))), np.tile(x, (5, 1)))
        )
        assert nll_b.tobytes() == nll_t.tobytes() and grad_b.tobytes() == grad_t.tobytes()

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_scratch_leaves_the_result_bitwise(self, kind, rng):
        # a scratch that a local phase and other layouts wrote before, as in a run
        cfg = load_config(str(CONFIGS / "logistic_dirichlet.toml"), [f"model.kind={kind}", "model.hidden=[7]"])
        problem = build_problem(cfg)
        spec, shards = problem.spec, problem.shards
        x = problem.x0 + 0.5 * rng.normal(size=problem.x0.shape)
        scratch = models.Scratch()
        for stack in (shards, shards.take(np.array([5, 0, 11, 3])), shards):
            want_loss, want_grad = full_objective(spec, x, stack)
            models.Workspace(spec, stack, 32, point=True, stacks=2, scratch=scratch)
            scratch._block.fill(0xFF)  # every float64 of the block reads NaN until it is written
            loss, grad = full_objective(spec, x, stack, scratch)
            assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


def split_stack(n, hidden, d=6, classes=4):
    """A model and point, and a stack of n random rows over clients of uneven sizes."""
    rng = np.random.default_rng(n)
    feats, labels = rng.normal(size=(n, d)), rng.integers(0, classes, size=n)
    bounds = [0, *sorted(set(rng.integers(1, n, size=min(5, n - 1)).tolist())), n]
    stack = ShardStack.of([Shard(feats[a:b], labels[a:b]) for a, b in zip(bounds, bounds[1:])])
    spec = ModelSpec("mlp" if hidden else "logistic", d, classes, hidden)
    return spec, init_params(spec, 3) + 0.3 * rng.normal(size=spec.param_count()), stack


def hold(monkeypatch, spec, stack, blocks):
    """Set the pass budget to the bytes of ``blocks`` of the stack's blocks under ``spec``, and less than one more."""
    block = models._block_bytes(spec, stack)
    monkeypatch.setattr(models, "_OBJECTIVE_BYTES", (blocks + 1) * block - 1)


def blockwise_reference(spec, x, stack):
    """full_objective's gradient from one-row stacks, one block of rows at a time, added from zero."""
    rows = np.concatenate([np.arange(o, o + k) for o, k in zip(stack.offsets, stack.sizes)])
    divisor = np.repeat(len(stack) * stack.sizes.astype(np.float64), stack.sizes)
    blocks = -(-len(rows) // 64)
    length = -(-len(rows) // blocks)
    pad = blocks * length - len(rows)
    rows = np.concatenate([rows, np.zeros(pad, dtype=rows.dtype)])
    divisor = np.concatenate([divisor, np.full(pad, np.inf)])
    total = np.zeros(spec.param_count())
    ws = models.Workspace(spec, stack, length, blocks=1)
    for block, div in zip(rows.reshape(blocks, length), divisor.reshape(blocks, length, 1)):
        ws.features[0] = stack.features[block]
        _, grad = models._forward_backward(spec, x[None], ws, ws.class_starts + stack.labels[block], div, False)
        total += grad[0]
    return total


def columns(logits):
    """The class columns of C-contiguous logits, as the kernel's workspace binds them (models._softmax_views)."""
    return models._softmax_views(logits, np.empty(logits.shape[:-1]))[2]


def class_pass(ufunc, logits):
    """models._class_pass over the class columns of logits, into a new array shaped as logits less its last axis."""
    row = np.empty(logits.shape[:-1])
    models._class_pass(ufunc, columns(logits), row.reshape(-1))
    return row


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def class_rows(rng, classes, rows=64):
    """Logit rows with magnitudes from 1e-300 to 1e300 of either sign, and rows of tied maxima."""
    mags = 10.0 ** rng.uniform(-300, 300, size=(rows, classes))
    logits = np.where(rng.random((rows, classes)) < 0.5, -mags, mags)
    logits[: rows // 4] = rng.normal(size=(rows // 4, classes))  # the softmax's usual range
    ties = logits[rows // 4 : rows // 2]
    ties[:, rng.integers(0, classes, size=2)] = ties.max(axis=-1, keepdims=True)
    logits[rows // 2, :] = 1.5  # every class tied
    logits[rows // 2 + 1, :] = 0.0
    return logits


class TestClassReductions:
    """The softmax's class-axis max and sum are one left-to-right pass over the class columns.

    The same rule holds at every class count and stack size.  A maximum is
    exact in any order, so it equals numpy's.  The sum adds column 0 and
    each later column in turn; below 8 classes that is numpy's own row-sum
    order, which is why the 4-class goldens did not move with the rule.  At
    any class count it is numpy's own sum over the columns as a leading axis.
    """

    @pytest.mark.parametrize("classes", range(2, 131))
    def test_class_max_equals_numpys_max_bitwise(self, classes):
        rng = np.random.default_rng(classes)
        logits = class_rows(rng, classes).reshape(4, 16, classes)
        assert np.array_equal(bits(class_pass(np.maximum, logits)), bits(logits.max(axis=-1)))
        out = np.empty(logits.shape[:-1])
        flat = out.reshape(-1)
        assert models._class_pass(np.maximum, columns(logits), flat) is flat

    @pytest.mark.parametrize("classes", [2, 3, 9, 17, 33, 130])
    def test_zero_maxima_of_either_sign_shift_the_softmax_alike(self, classes):
        # numpy's vectorised max may return either zero for a row of +0 and -0 ties;
        # x - 0.0 and x - (-0.0) are equal for every x but a zero, and exp(+-0) == 1
        rng = np.random.default_rng(classes)
        logits = np.where(rng.random((8, classes)) < 0.5, -0.0, 0.0)
        logits[4:, 0] = -1.0
        ours, numpys = class_pass(np.maximum, logits), logits.max(axis=-1)
        assert np.array_equal(ours, numpys)
        shifted = [np.exp(logits - row[:, None]) for row in (ours, numpys)]
        assert np.array_equal(bits(shifted[0]), bits(shifted[1]))

    @pytest.mark.parametrize("classes", range(1, 201))
    def test_class_sum_adds_the_columns_left_to_right_bitwise(self, classes):
        rng = np.random.default_rng(1000 + classes)
        logits = class_rows(rng, classes).reshape(4, 16, classes)
        logits[0, :4] = np.exp(rng.normal(size=(4, classes)) * 30)  # softmax terms
        logits[0, 4, :] = -0.0
        reference = functools.reduce(np.add, np.moveaxis(logits, -1, 0))
        assert np.array_equal(bits(class_pass(np.add, logits)), bits(reference))
        out = np.empty(logits.shape[:-1])
        flat = out.reshape(-1)
        assert models._class_pass(np.add, columns(logits), flat) is flat
        assert np.array_equal(bits(out), bits(reference))

    @pytest.mark.parametrize("classes", range(2, 131))
    def test_class_sum_equals_numpys_sum_bitwise(self, classes):
        # over a leading axis numpy adds the columns in turn, with no pairwise split;
        # it starts from +0 unless told otherwise, and -0 + x == x keeps the -0 row
        rng = np.random.default_rng(1000 + classes)
        logits = class_rows(rng, classes).reshape(4, 16, classes)
        logits[0, :4] = np.exp(rng.normal(size=(4, classes)) * 30)  # softmax terms
        logits[0, 4, :] = -0.0
        columns = np.ascontiguousarray(np.moveaxis(logits, -1, 0))
        numpys = columns.sum(axis=0, initial=-0.0)
        assert np.array_equal(bits(class_pass(np.add, logits)), bits(numpys))

    @pytest.mark.parametrize("classes", range(1, 8))
    def test_class_sum_is_numpys_row_sum_on_softmax_terms_below_8_classes(self, classes):
        # numpy adds fewer than 8 terms in turn onto its identity +0, which only a -0 row could tell apart
        rng = np.random.default_rng(2000 + classes)
        terms = np.abs(class_rows(rng, classes, rows=256))
        terms[:64] = np.exp(rng.normal(size=(64, classes)) * 30)
        assert np.array_equal(bits(class_pass(np.add, terms)), bits(terms.sum(axis=-1)))

    @pytest.mark.parametrize("classes", [10, 130])
    @pytest.mark.parametrize("m", [1, 24])
    def test_a_stacked_row_equals_the_one_client_gradient(self, classes, m):
        # 32 and 24 * 32 rows of 10 classes sat on either side of the 64 * C rows
        # from which the softmax once switched from numpy's reductions to its own
        rng = np.random.default_rng(classes + m)
        shards = [Shard(rng.normal(size=(40, 6)), rng.integers(0, classes, size=40)) for _ in range(m)]
        stack = ShardStack.of(shards)
        spec = ModelSpec("mlp", 6, classes, (8,))
        x = init_params(spec, 1) + 0.3 * rng.normal(size=(m, spec.param_count()))
        rows = rng.integers(0, 40, size=(m, 32))
        ws = models.Workspace(spec, stack, 32)
        gather(stack, rows, ws)
        grads = models.batch_grads(spec, x, ws)
        for i, shard in enumerate(shards):
            _, grad = loss_and_grad(spec, x[i], shard, rows[i])
            assert np.array_equal(bits(grads[i]), bits(grad)), i


def owners(ws, view):
    """The names of the workspace's own arrays that ``view`` shares memory with."""
    arrays = {"features": ws.features, "row": ws.row}
    arrays.update({f"acts[{i}]": a for i, a in enumerate(ws.acts)})
    arrays.update({f"errors[{i}]": e for i, e in enumerate(ws.errors)})
    return [name for name, array in arrays.items() if np.shares_memory(view, array)]


class TestBoundViews:
    """A workspace binds, once when it is laid out, every view of its own arrays the gradient kernel reads."""

    @pytest.mark.parametrize("hidden", [(), (1,), (3, 1), (2, 5)])
    def test_every_bound_view_shares_memory_with_its_own_array(self, hidden):
        spec, _, stack = split_stack(200, hidden)
        ws = models.Scratch().workspace(spec, stack, 8, point=True)
        inputs = ["features", *(f"acts[{i}]" for i in range(len(hidden)))]
        for i, (a, pre, z, ones) in enumerate(ws.forward):
            assert owners(ws, a) == [inputs[i]]
            assert owners(ws, pre) == owners(ws, z) == owners(ws, ones) == [f"acts[{i}]"]
        assert len(ws.forward) == len(hidden) and owners(ws, ws.forward_last) == [inputs[-1]]
        logits, flat, class_columns, row, shift = ws.softmax
        assert len(class_columns) == spec.num_classes
        for view in (logits, flat, *class_columns):
            assert owners(ws, view) == [f"acts[{len(hidden)}]"]
        assert owners(ws, row) == owners(ws, shift) == ["row"]
        assert owners(ws, ws.features_t) == ["features"]
        assert len(ws.backward) == len(hidden)
        for layer, (a_t, errors, a, derivative) in zip(range(len(hidden), 0, -1), ws.backward):
            assert owners(ws, a_t) == owners(ws, a) == owners(ws, derivative) == [f"acts[{layer - 1}]"]
            assert owners(ws, errors) == [f"errors[{layer - 1}]"]
            assert errors.shape == (len(stack), 8, hidden[layer - 1]) and errors.flags.c_contiguous

    @pytest.mark.parametrize("hidden", [(), (1,), (3, 1), (2, 5)])
    def test_a_grown_scratch_binds_views_in_its_new_block(self, hidden, rng):
        spec, x, stack = split_stack(300, hidden)
        xs = x + 0.1 * rng.normal(size=(len(stack), len(x)))
        rows = rng.integers(0, stack.sizes[:, None], size=(len(stack), 16))
        scratch = models.Scratch()
        small = scratch.workspace(spec, stack.take(np.array([0])), 2)
        gather(stack.take(np.array([0])), rows[:1, :2], small)
        models.batch_grads(spec, xs[:1], small)
        old = scratch._block
        old.fill(0xFF)  # every float64 of the old block reads NaN
        ws = scratch.workspace(spec, stack, 16, point=True)
        assert scratch._block is not old and scratch.workspace(spec, stack.take(np.array([0])), 2) is not small
        fresh = models.Workspace(spec, stack, 16, point=True)
        for w in (ws, fresh):
            gather(stack, rows, w)
        assert models.batch_grads(spec, xs, ws).tobytes() == models.batch_grads(spec, xs, fresh).tobytes()

    @pytest.mark.parametrize("hidden", [(), (1,), (3, 1)])
    def test_every_array_laid_out_is_read(self, monkeypatch, hidden, rng):
        # in a SAM and a momentum local phase and an objective pass, each array a workspace lays out is
        # under a view that the kernel reads, or the caller's own: point, a stacks entry or grads
        spec, x, stack = split_stack(300, hidden)
        xs = x + 0.1 * rng.normal(size=(len(stack), len(x)))
        draws = rng.integers(0, stack.sizes[:, None], size=(3, len(stack), 8))
        laid = []
        arrays = models.Scratch._arrays

        def recorded(self, layout):
            laid.append(arrays(self, layout))
            return laid[-1]

        monkeypatch.setattr(models.Scratch, "_arrays", recorded)
        calls = [
            *(functools.partial(local_train, spec, xs, stack, len(draws), OptimizerConfig(method, batch_size=8), draws, round_index=0)
              for method in ("sam", "sgd_momentum")),
            functools.partial(full_objective, spec, x, stack),
        ]
        for call in calls:
            laid.clear()
            scratch = models.Scratch()
            call(scratch=scratch)
            [ws], [arrays_of_ws] = scratch._workspaces.values(), laid
            views = [view for group in (*ws.forward, *ws.backward) for view in group]
            logits, flat, class_columns, row, shift = ws.softmax
            views += [ws.forward_last, logits, flat, *class_columns, row, shift, ws.features_t]
            own = [ws.point, *ws.stacks, getattr(ws, "grads", None)]
            for i, array in enumerate(arrays_of_ws):
                assert any(array is a for a in own) or any(np.shares_memory(array, v) for v in views), i
            assert len(arrays_of_ws) == 2 + 2 * len(hidden) + 1 + sum(a is not None for a in own)

    def test_a_block_stays_under_the_huge_page_size_while_its_need_does(self):
        scratch = models.Scratch()
        mib = 2**20
        for need, size in [(mib, 2 * mib), (3 * mib, 4 * mib - 1), (4 * mib - 64, 4 * mib - 1), (5 * mib, 10 * mib)]:
            [array] = scratch._arrays([((need,), np.uint8)])
            assert scratch._block.size == size and array.size == need

    @pytest.mark.parametrize("hidden", [(), (1,), (3, 1), (2, 5)])
    @pytest.mark.parametrize("classes", [1, 2, 7, 8, 9, 100])
    def test_batch_grads_equals_the_one_client_reference(self, classes, hidden):
        # one class takes the single-column copy, 8 is numpy's pairwise boundary, and width 1 a one-column error
        from test_batched import reference_loss_grad

        rng = np.random.default_rng(classes + 10 * len(hidden))
        shards = [Shard(rng.normal(size=(30, 5)), rng.integers(0, classes, size=30)) for _ in range(6)]
        stack = ShardStack.of(shards)
        spec = ModelSpec("mlp" if hidden else "logistic", 5, classes, hidden)
        x = init_params(spec, 2) + 0.3 * rng.normal(size=(len(shards), spec.param_count()))
        rows = rng.integers(0, 30, size=(len(shards), 12))
        ws = models.Workspace(spec, stack, 12)
        gather(stack, rows, ws)
        grads = models.batch_grads(spec, x, ws)
        for i, shard in enumerate(shards):
            _, grad = reference_loss_grad(spec, x[i], shard.features[rows[i]], shard.labels[rows[i]])
            assert np.array_equal(bits(grads[i]), bits(grad)), i


@st.composite
def evaluation_stacks(draw):
    """A logistic or MLP model, uneven shards (maybe a take()), held-out rows and a stack of models that fits one pass."""
    classes = draw(st.integers(2, 130))
    hidden = draw(st.sampled_from([(), (1,), (4,), (3, 1)]))
    dim = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 90), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    stack = ShardStack.stacked(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n), sizes)
    if draw(st.booleans()):  # a take(): the rows are no longer laid end to end
        order = draw(st.permutations(range(len(sizes))))
        stack = stack.take(np.array(order[: draw(st.integers(1, len(order)))]))
    test_rows = draw(st.integers(1, 200))
    test = Shard(rng.normal(size=(test_rows, dim)), rng.integers(0, classes, size=test_rows))
    spec = ModelSpec("mlp" if hidden else "logistic", dim, classes, hidden)
    group = models.evaluation_group(spec, stack, test)
    g = draw(st.integers(1, group))
    xs = init_params(spec, 1) + draw(st.sampled_from([0.3, 3.0])) * rng.normal(size=(g, spec.param_count()))
    return spec, stack, test, xs


class TestStackedEvaluation:
    """A (g, p) stack of models evaluates in one pass, each row bitwise its own one-model call."""

    @settings(max_examples=60, deadline=None)
    @given(evaluation_stacks())
    def test_each_row_equals_its_one_model_call(self, case):
        spec, stack, test, xs = case
        scratch = models.Scratch()
        losses, grads = full_objective(spec, xs, stack, scratch)
        accs = eval_model(spec, xs, test)
        preds = models.predictions(spec, xs, test)
        assert losses.shape == (len(xs),) and grads.shape == xs.shape and preds.shape == (len(xs), len(test))
        for j, x in enumerate(xs):
            loss, grad = full_objective(spec, x, stack)
            assert bits(losses[j]) == bits(loss) and grads[j].tobytes() == grad.tobytes(), j
            assert np.array_equal(preds[j], models.predictions(spec, x, test)), j
            assert bits(accs[j]) == bits(eval_model(spec, x, test)), j

    @pytest.mark.parametrize(
        "preset, group, layout, block",
        [
            ("configs/large_random_topology.toml", 1, (3, 27, 64), 58_192),
            ("bench/gossip_ring100.toml", 1, (3, 27, 64), 58_192),
            ("configs/logistic_dirichlet.toml", 29, (1, 203, 58), 8_240),
        ],
    )
    def test_the_group_rule_on_the_presets(self, preset, group, layout, block):
        # m=100: 5000 rows in 79 blocks of 64 rows; desk: 406 rows in 7 blocks of 58
        problem = build_problem(load_config(str(CONFIGS.parent / preset)))
        spec, shards, test = problem.spec, problem.shards, problem.test
        assert models.evaluation_group(spec, shards, test) == group
        assert shards.objective_layout(spec, group) == layout
        assert shards.objective_layout(spec, group + 1)[0] > 1  # one model more takes another pass
        assert models._block_bytes(spec, shards) == block and layout[1] * block <= models._OBJECTIVE_BYTES
        # and the group's test forward, each layer's output, fits the same bytes
        assert group * 8 * len(test) * (sum(spec.hidden) + spec.num_classes) <= models._OBJECTIVE_BYTES

    def test_a_desk_group_equals_its_one_model_calls(self, rng):
        problem = build_problem(load_config(str(CONFIGS / "logistic_dirichlet.toml")))
        spec, shards, test = problem.spec, problem.shards, problem.test
        xs = problem.x0 + rng.normal(size=(models.evaluation_group(spec, shards, test), problem.x0.size))
        losses, grads = full_objective(spec, xs, shards, models.Scratch())
        accs = eval_model(spec, xs, test)
        for j, x in enumerate(xs):
            loss, grad = full_objective(spec, x, shards)
            assert bits(losses[j]) == bits(loss) and grads[j].tobytes() == grad.tobytes(), j
            assert bits(accs[j]) == bits(eval_model(spec, x, test)), j

    @pytest.mark.parametrize("held", [1, 4, 16])
    def test_a_stack_in_many_passes_equals_its_one_pass(self, monkeypatch, held, rng):
        # 5 models of 7 blocks: one block per pass, or passes that split models, carry whole ones or both
        cfg = load_config(str(CONFIGS / "logistic_dirichlet.toml"), ["model.kind=mlp", "model.hidden=[5]"])
        problem = build_problem(cfg)
        spec, shards = problem.spec, problem.shards
        xs = problem.x0 + 0.5 * rng.normal(size=(5, problem.x0.size))
        kernel = models._forward_backward

        def signed_zeros(*args):  # every block's gradient starts with -0.0, which +0.0 plus them turns to +0.0
            nll, out = kernel(*args)
            out[:, :3] = -0.0
            return nll, out

        monkeypatch.setattr(models, "_forward_backward", signed_zeros)
        assert shards.objective_layout(spec, len(xs))[0] == 1
        want_losses, want_grads = full_objective(spec, xs, shards)
        assert not np.signbit(want_grads[:, :3]).any()
        hold(monkeypatch, spec, shards, held)
        assert shards.objective_layout(spec, len(xs))[0] == -(-5 * len(shards.objective_blocks[0]) // held)
        losses, grads = full_objective(spec, xs, shards, models.Scratch())
        assert losses.tobytes() == want_losses.tobytes() and grads.tobytes() == want_grads.tobytes()

    def test_a_wide_model_lays_out_no_more_than_the_budget_or_one_block(self, monkeypatch, rng):
        # a 100-class logistic on d=3072 and 120 rows: one block of 60 rows and its gradient exceed the budget
        spec = ModelSpec("logistic", 3072, 100)
        stack = ShardStack.stacked(rng.normal(size=(120, 3072)), rng.integers(0, 100, size=120), [50, 70])
        test = Shard(rng.normal(size=(40, 3072)), rng.integers(0, 100, size=40))
        laid = []
        arrays = models.Scratch._arrays

        def recorded(self, layout):
            laid.append(sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout))
            return arrays(self, layout)

        monkeypatch.setattr(models.Scratch, "_arrays", recorded)
        xs = 0.01 * rng.normal(size=(models.evaluation_group(spec, stack, test), spec.param_count()))
        losses, grads = full_objective(spec, xs, stack, models.Scratch())
        block = models._block_bytes(spec, stack)
        assert len(xs) == 1 and block > models._OBJECTIVE_BYTES and stack.objective_layout(spec) == (2, 1, 60)
        assert laid and max(laid) <= max(models._OBJECTIVE_BYTES, block)
        loss, grad = full_objective(spec, xs[0], stack)
        assert bits(losses[0]) == bits(loss) and grads[0].tobytes() == grad.tobytes()

    def test_the_quadratic_family_takes_one_model(self):
        problem = build_problem(load_config(str(CONFIGS / "quadratic_ring.toml")))
        spec, shards = problem.spec, problem.shards
        assert models.evaluation_group(spec, shards) == 1
        x = problem.x0 + 1.0
        losses, grads = full_objective(spec, x[None], shards)
        loss, grad = full_objective(spec, x, shards)
        assert bits(losses[0]) == bits(loss) and grads[0].tobytes() == grad.tobytes()
        with pytest.raises(ValueError, match="one model"):
            full_objective(spec, np.tile(x, (2, 1)), shards)

    def test_the_quadratic_objective_lays_nothing_out(self, monkeypatch):
        problem = build_problem(load_config(str(CONFIGS / "quadratic_ring.toml")))
        spec, shards = problem.spec, problem.shards
        laid = []
        arrays = models.Scratch._arrays

        def recorded(self, layout):
            laid.append(layout)
            return arrays(self, layout)

        monkeypatch.setattr(models.Scratch, "_arrays", recorded)
        scratch = models.Scratch()
        x = problem.x0 + 1.0
        assert full_objective(spec, x, shards)[1].tobytes() == full_objective(spec, x, shards, scratch)[1].tobytes()
        assert laid == []
        assert models.objective_workspace(spec, shards, 1, scratch) is None
