"""The batched local phase and both gossip paths against references.

The engine trains every client as one row of an (m, p) stack and mixes
by one dense product or over a neighbour table.  These tests hold the
local phase to a straightforward one-client-at-a-time implementation
written here, bitwise: same minibatch draws, same gradients, same
optimizer arithmetic.  They hold dense gossip to one ``W @ Z`` on one
BLAS thread and table gossip to the ascending-j dense sum, both bitwise.
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


def reference_loss_grad(spec, x, feats, labels):
    """Cross-entropy loss and gradient of one model, with 2-D products only."""
    sizes = [spec.dim, *spec.hidden, spec.num_classes]
    layers, offset = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = x[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, x[offset : offset + fan_out]))
        offset += fan_out
    n = len(labels)
    acts = [feats]
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if li < len(layers) - 1 else z)
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        grads.append(delta.sum(axis=0))
        grads.append((acts[li].T @ delta).ravel())
        if li > 0:
            delta = (delta @ w.T) * (1.0 - acts[li] ** 2)
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


def reference_local_train(spec, x, shard, k_steps, cfg, rng, t, ref):
    """One client's K steps, one size-B draw per step."""
    eta = cfg.eta0 * cfg.decay**t
    velocity = np.zeros_like(x)
    v1 = 0.0
    for k in range(k_steps):
        batch = None if spec.kind == "quadratic" else rng.integers(0, len(shard), size=cfg.batch_size)
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
            z, v1 = reference_local_train(
                spec, x0[i], shards[i], k_steps, cfg, np.random.default_rng([seed, i]), t, ref[i],
            )
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
