"""The batched local phase and both gossip paths against references.

The engine trains every client as one row of an (m, p) stack and mixes
by one dense product or over a neighbour table.  These tests hold the
local phase to a straightforward one-client-at-a-time implementation
written here, bitwise: same minibatch draws, same gradients (each bias
carried in its layer's product, as the kernel does), same optimizer
arithmetic; and that gradient to the bias-apart form within rounding.
They hold dense gossip to one ``W @ Z`` on one BLAS thread and table
gossip to the ascending-j dense sum, both bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip import blas
from dgossip.engine import client_batches, gossip_mix
from dgossip.localopt import OptimizerConfig, local_train
from dgossip.models import ModelSpec, Shard, ShardStack, loss_and_grad, quadratic_testbed
from dgossip.topology import TopologyKind, TopologySpec, build_mixing
from stream_reference import column


def reference_layers(spec, x):
    """Each layer's slice of x as the augmented (fan_in + 1, fan_out) matrix [W; b], its bias the last row."""
    sizes = [spec.dim, *spec.hidden, spec.num_classes]
    layers, offset = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        layers.append(x[offset : offset + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out))
        offset += (fan_in + 1) * fan_out
    return layers


def softmax_error(logits, labels):
    """Mean cross-entropy and the output error (probabilities less the one-hot labels) over n."""
    n = len(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    # the classes summed left to right, as the kernel sums them; numpy's row sum
    # takes that order only below 8 classes
    total = e[:, 0].copy()
    for j in range(1, e.shape[1]):
        total += e[:, j]
    probs = e / total[:, None]
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    return loss, probs


def reference_loss_grad(spec, x, feats, labels):
    """Cross-entropy loss and gradient of one model, with 2-D products only.

    A layer's input gains a column of ones, so the forward pass is
    [a, 1] @ [W; b] and the weight and bias gradient together is
    [a, 1]^T @ delta.  The error goes back through W alone.
    """
    layers = reference_layers(spec, x)
    ones = np.ones((len(labels), 1))
    acts = [np.hstack([feats, ones])]
    for li, layer in enumerate(layers):
        z = acts[-1] @ layer
        acts.append(np.hstack([np.tanh(z), ones]) if li < len(layers) - 1 else z)
    loss, delta = softmax_error(acts[-1], labels)
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        grads.append((acts[li].T @ delta).ravel())
        if li > 0:
            delta = (delta @ layers[li][:-1].T) * (1.0 - acts[li][:, :-1] ** 2)
    return loss, np.concatenate(grads[::-1])


def unfused_reference_loss_grad(spec, x, feats, labels):
    """The same loss and gradient with each bias apart: ``a @ W + b`` forward and ``delta.sum(0)`` back."""
    layers = reference_layers(spec, x)
    acts = [feats]
    for li, layer in enumerate(layers):
        z = acts[-1] @ layer[:-1] + layer[-1]
        acts.append(np.tanh(z) if li < len(layers) - 1 else z)
    loss, delta = softmax_error(acts[-1], labels)
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        grads.append(delta.sum(axis=0))
        grads.append((acts[li].T @ delta).ravel())
        if li > 0:
            delta = (delta @ layers[li][:-1].T) * (1.0 - acts[li] ** 2)
    return loss, np.concatenate(grads[::-1])


def reference_grad(spec, x, shard, batch):
    if spec.kind == "quadratic":
        return spec.quad_a[shard] @ x - spec.quad_b[shard]
    return reference_loss_grad(spec, x, shard.features[batch], shard.labels[batch])[1]


def stacked_draws(spec, seed, shards, k_steps, batch_size):
    """(K, m, B) indices from default_rng([seed, i]) for row i; None for the quadratic family."""
    if spec.kind == "quadratic":
        return None
    return np.stack(
        [
            np.random.default_rng([seed, i]).integers(0, len(shard), size=(k_steps, batch_size))
            for i, shard in enumerate(shards)
        ],
        axis=1,
    )


def reference_local_train(spec, x, shard, cfg, batches, t, ref=None):
    """One client's steps, one per size-B row of ``batches`` (a None per step for the quadratic family).

    Returns the last iterate and, given ``ref``, the drift sum_k ||x_k - ref||^2 over the pre-step iterates.
    """
    eta = cfg.eta0 * cfg.decay**t
    velocity = np.zeros_like(x)
    v1 = 0.0
    for batch in batches:
        if ref is not None:
            v1 += float(np.sum((x - ref) ** 2))
        g = reference_grad(spec, x, shard, batch)
        if cfg.method == "sgd":
            x = x - eta * g
        elif cfg.method == "sam":
            norm = float(np.linalg.norm(g))
            if cfg.lam != 0.0 and norm > cfg.grad_floor:
                g = reference_grad(spec, x + cfg.lam * g / norm, shard, batch)
            x = x - eta * g
        else:
            velocity = cfg.mu * velocity + g
            x = x - eta * velocity
    return x, v1


@st.composite
def local_phases(draw):
    kind = draw(st.sampled_from(["quadratic", "logistic", "mlp"]))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        spec = quadratic_testbed(m, draw(st.integers(1, 6)), 1.0, seed)
        shards = list(range(m))
    else:
        hidden = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))) if kind == "mlp" else ()
        dim, classes = draw(st.integers(1, 5)), draw(st.integers(2, 4))
        spec = ModelSpec(kind=kind, dim=dim, num_classes=classes, hidden=hidden)
        shards = []
        for _ in range(m):
            n = draw(st.integers(1, 12))
            shards.append(Shard(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n)))
    method = draw(st.sampled_from(["sgd", "sam", "sgd_momentum"]))
    cfg = OptimizerConfig(
        method=method,
        eta0=draw(st.floats(0.01, 0.5)),
        decay=0.99,
        lam=draw(st.sampled_from([0.0, 0.05, 0.3])),
        mu=draw(st.sampled_from([0.0, 0.5, 0.9])),
        batch_size=draw(st.integers(1, 9)),
    )
    x0 = rng.normal(size=(m, spec.param_count()))
    if method == "sam" and draw(st.booleans()):
        # put the floor among the first-step gradient norms, so that some
        # clients keep their plain gradient and the others take the SAM step
        probe = [np.random.default_rng([seed, i]) for i in range(m)]
        norms = sorted(
            float(np.linalg.norm(reference_grad(
                spec, x0[i], shards[i],
                None if kind == "quadratic" else probe[i].integers(0, len(shards[i]), size=cfg.batch_size),
            )))
            for i in range(m)
        )
        cfg = OptimizerConfig(**{**cfg.__dict__, "grad_floor": norms[m // 2]})
    k_steps = draw(st.integers(1, 4))
    t = draw(st.integers(0, 3))
    return spec, shards, cfg, x0, k_steps, t, seed


class TestStackedLocalPhase:
    @settings(max_examples=80, deadline=None)
    @given(local_phases())
    def test_equals_per_client_reference_bitwise(self, case):
        spec, shards, cfg, x0, k_steps, t, seed = case
        m = len(shards)
        ref = x0 + 0.25
        res = local_train(
            spec, x0, ShardStack.of(shards), k_steps, cfg,
            stacked_draws(spec, seed, shards, k_steps, cfg.batch_size),
            round_index=t, ref_point=ref,
        )
        for i in range(m):
            rng = np.random.default_rng([seed, i])  # one size-B draw per step
            batches = [
                None if spec.kind == "quadratic" else rng.integers(0, len(shards[i]), size=cfg.batch_size)
                for _ in range(k_steps)
            ]
            z, v1 = reference_local_train(spec, x0[i], shards[i], cfg, batches, t, ref[i])
            assert np.array_equal(res.z[i], z)
            assert res.v1[i] == v1

    @settings(max_examples=40, deadline=None)
    @given(local_phases())
    def test_one_client_form_matches_its_stack_row(self, case):
        spec, shards, cfg, x0, k_steps, t, seed = case
        stacked = local_train(
            spec, x0, ShardStack.of(shards), k_steps, cfg,
            stacked_draws(spec, seed, shards, k_steps, cfg.batch_size), round_index=t,
        )
        single = local_train(
            spec, x0[-1], shards[-1], k_steps, cfg, np.random.default_rng([seed, len(shards) - 1]),
            round_index=t,
        )
        assert single.z.shape == x0[-1].shape
        assert np.array_equal(single.z, stacked.z[-1])

    @settings(max_examples=40, deadline=None)
    @given(local_phases())
    def test_loss_and_grad_matches_reference(self, case):
        spec, shards, _, x0, _, _, _ = case
        for i, shard in enumerate(shards):
            loss, grad = loss_and_grad(spec, x0[i], shard)
            if spec.kind == "quadratic":
                assert np.array_equal(grad, reference_grad(spec, x0[i], shard, None))
            else:
                ref_loss, ref_grad = reference_loss_grad(spec, x0[i], shard.features, shard.labels)
                assert loss == ref_loss
                assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("hidden", [(), (1,), (5,), (1, 3), (8, 1)])
def test_fused_bias_matches_the_unfused_reference(hidden):
    # the kernel carries each bias in its layer's product; the separate add and sum differ only in rounding
    rng = np.random.default_rng(len(hidden) + sum(hidden))
    spec = ModelSpec(kind="mlp" if hidden else "logistic", dim=4, num_classes=3, hidden=hidden)
    for n in (1, 7, 32):
        shard = Shard(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n))
        x = rng.normal(size=spec.param_count())
        loss, grad = loss_and_grad(spec, x, shard)
        ref_loss, ref_grad = unfused_reference_loss_grad(spec, x, shard.features, shard.labels)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


class TestBatchDraws:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=6),
        st.integers(1, 6),
        st.integers(1, 40),
        st.integers(0, 2**31),
    )
    def test_one_draw_per_client_equals_k_draws(self, sizes, k_steps, batch_size, seed):
        # the engine draws all K batches at once; step k is the k-th run of B values of each client's stream
        rows = client_batches(seed, range(len(sizes)), 3, sizes, k_steps, batch_size)
        assert rows.shape == (k_steps, len(sizes), batch_size)
        for i, n in enumerate(sizes):
            values = column(seed, i, 3, n, k_steps * batch_size)
            for k in range(k_steps):
                assert rows[k, i].tolist() == values[k * batch_size : (k + 1) * batch_size]


def dense_gossip(z, w):
    """The dense sum x_i' = sum_j w_ij z_j over every j in ascending order."""
    out = np.zeros_like(z)
    for j in range(len(w)):
        out += np.multiply.outer(w[:, j], z[j])
    return out


class TestSparseGossip:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(list(TopologyKind)),
        st.sampled_from([4, 9, 16, 25, 100]),
        st.integers(1, 300),
        st.integers(0, 2**31),
    )
    def test_dense_path_equals_one_blas_product_bitwise(self, kind, m, p, seed):
        w = build_mixing(TopologySpec(kind, m, k=min(3, m - 1), seed=seed))
        z = np.random.default_rng(seed).normal(size=(m, p))
        with blas.one_thread():
            assert np.array_equal(gossip_mix(z, w), w.w @ z)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([(TopologyKind.RING, 400), (TopologyKind.RING, 512), (TopologyKind.GRID, 900)]),
        st.integers(1, 40),
        st.integers(0, 2**31),
    )
    def test_table_path_equals_dense_ascending_sum_bitwise(self, shape, p, seed):
        w = build_mixing(TopologySpec(*shape))
        z = np.random.default_rng(seed).normal(size=(w.m, p))
        mixed = gossip_mix(z, w)
        assert w._w is None  # the table path never builds the dense W
        assert np.array_equal(mixed, dense_gossip(z, w.w))

    @pytest.mark.parametrize(
        "kind, m, k, dense",
        [
            (TopologyKind.RANDOM_K, 100, 10, True),
            (TopologyKind.RING, 16, 0, True),
            (TopologyKind.FULLY_CONNECTED, 32, 0, True),
            (TopologyKind.RING, 512, 0, False),
        ],
    )
    def test_the_path_follows_m_against_the_table_width(self, kind, m, k, dense):
        w = build_mixing(TopologySpec(kind, m, k=k, seed=1))
        gossip_mix(np.ones((m, 2)), w)
        assert (w._w is not None) == dense

    @pytest.mark.parametrize("p", [1, 7, 44, 1002])
    def test_dense_bits_hold_across_blas_threads_order_and_shape(self, p):
        control = blas.thread_control()
        if control is None:
            pytest.skip("numpy's BLAS exports no known thread-count functions")
        setter, getter = control
        w = build_mixing(TopologySpec(TopologyKind.RANDOM_K, 100, k=10, seed=p))
        z = np.random.default_rng(p).normal(size=(100, p))
        wide = np.zeros((100, 2 * p))
        wide[:, ::2] = z
        layouts = [z, np.asfortranarray(z), wide[:, ::2]]  # C order, Fortran order, a strided view
        before = getter()
        try:
            setter(1)
            reference = gossip_mix(z, w)
            results = [gossip_mix(layout, w) for layout in layouts]
            setter(2)
            results += [gossip_mix(layout, w) for layout in layouts]
            assert getter() == 2  # gossip restores the caller's count
        finally:
            setter(before)
        assert all(r.tobytes() == reference.tobytes() and r.shape == z.shape for r in results)
        column = z[:, :1]
        assert np.array_equal(gossip_mix(column[:, 0], w), gossip_mix(column, w)[:, 0])
        cube = z.reshape(100, 1, p)
        assert np.array_equal(gossip_mix(cube, w), reference.reshape(cube.shape))

    def test_neighbour_table_lists_support_in_ascending_order(self):
        w = build_mixing(TopologySpec(TopologyKind.RANDOM_K, 30, k=4, seed=7))
        index, weight = w.neighbours
        for i in range(w.m):
            support = np.flatnonzero(w.w[i])
            assert np.array_equal(index[i, : len(support)], support)
            assert np.array_equal(weight[i, : len(support)], w.w[i, support])
            assert (weight[i, len(support) :] == 0.0).all()
