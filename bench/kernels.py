"""Isolated per-module timings, each checked against a value computed apart
from the program.

Every kernel is timed at the shapes a workload uses: the gradient kernels
at the three presets' shapes, local training, mixing and the full objective
at the running workload's shapes, and gossip at m=16 and m=100.  A timing
is the median per-call time over several batches of calls, after one
warm-up call.  The checks run once per kernel, outside the timed batches:

* gradients against central finite differences of the program's loss;
* ``gossip_mix(Z, W)`` against ``W @ Z``;
* ``W`` for symmetry, unit row sums and the Metropolis weight rule, and
  psi against ``eigvalsh`` of ``W - 11^T/m`` (and the ring's closed form);
* SAM with ``lam=0`` and momentum with ``mu=0`` against SGD, bitwise;
* the full objective's loss against a forward pass written here.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter

import numpy as np

from dgossip import engine, localopt, models, topology
from dgossip.topology import TopologyKind, TopologySpec

BATCH_S = 0.02  # each timed batch of calls lasts at least this long
BATCHES = 7


def time_per_call(fn) -> float:
    """Median seconds per call of ``fn()`` over BATCHES timed batches."""
    fn()
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - start >= BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - start) / n)
    return statistics.median(samples)


def forward_logits(spec, x: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Logits of the flat-vector layout: per layer a row-major (fan_in,
    fan_out) weight block followed by its bias; tanh between layers."""
    sizes = [spec.dim, *spec.hidden, spec.num_classes]
    acts = feats
    offset = 0
    for li in range(len(sizes) - 1):
        fan_in, fan_out = sizes[li], sizes[li + 1]
        w = x[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = x[offset : offset + fan_out]
        offset += fan_out
        acts = acts @ w + b
        if li < len(sizes) - 2:
            acts = np.tanh(acts)
    return acts


def cross_entropy(spec, x: np.ndarray, feats: np.ndarray, labels: np.ndarray) -> float:
    logits = forward_logits(spec, x, feats)
    top = logits.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    return float(np.mean(log_norm - logits[np.arange(len(labels)), labels]))


def fd_mismatch(loss_fn, x: np.ndarray, grad: np.ndarray, coords) -> str | None:
    """Compare ``grad`` with central differences of ``loss_fn`` at ``coords``.

    The difference quotient carries ~eps*|f|/h rounding noise, so entries
    below the noise floor are held to an absolute bound instead.
    """
    h, rtol = 1e-6, 1e-5
    atol = 1e-9 * max(1.0, abs(loss_fn(x)))
    for i in coords:
        e = np.zeros_like(x)
        e[i] = h
        fd = (loss_fn(x + e) - loss_fn(x - e)) / (2 * h)
        if abs(grad[i] - fd) > atol + rtol * abs(grad[i]):
            return f"coordinate {i}: analytic {float(grad[i])!r} vs difference {fd!r}"
    return None


def metropolis_mismatch(w: np.ndarray) -> str | None:
    """Symmetric, unit rows, w_ij = 1/(1+max(deg_i, deg_j)) on every edge."""
    m = len(w)
    if not np.array_equal(w, w.T):
        return "not symmetric"
    if np.abs(w.sum(axis=1) - 1.0).max() > 1e-12:
        return "row sums differ from 1"
    adj = (w != 0) & ~np.eye(m, dtype=bool)
    deg = adj.sum(axis=1)
    for i in range(m):
        for j in np.flatnonzero(adj[i]):
            if w[i, j] != 1.0 / (1 + max(deg[i], deg[j])):
                return f"w[{i},{j}] breaks the Metropolis rule"
    return None


def ring_band(m: int) -> np.ndarray:
    """The ring's Metropolis matrix: 1/3 on the diagonal and each neighbour."""
    return (np.eye(m) + np.roll(np.eye(m), 1, axis=1) + np.roll(np.eye(m), -1, axis=1)) / 3.0


def psi_apart(w: np.ndarray) -> float:
    """Largest |eigenvalue| once the averaging direction is projected out."""
    m = len(w)
    return float(np.abs(np.linalg.eigvalsh(w - np.full((m, m), 1.0 / m))).max())


def run_kernels(presets: dict, problem, cfg) -> tuple[dict, list[str]]:
    """Time every kernel; return (metric name -> value, failed checks).

    ``presets`` maps model kind to a built preset Problem for that kind;
    ``problem``/``cfg`` are the running workload's.
    """
    out: dict[str, float] = {}
    fails: list[str] = []
    rng = np.random.default_rng([cfg.seed, 7])

    # gradient kernel of each model kind at its preset's shapes
    for kind, pre in presets.items():
        spec = pre.spec
        shard = pre.shards[0]
        batch = None if kind == "quadratic" else rng.integers(0, len(shard), size=32)
        x = pre.x0 + 0.1 * rng.normal(size=pre.x0.shape)
        _, grad = models.loss_and_grad(spec, x, shard, batch)
        coords = range(len(x)) if len(x) <= 64 else rng.choice(len(x), 64, replace=False)
        msg = fd_mismatch(lambda v: models.loss_and_grad(spec, v, shard, batch)[0], x, grad, coords)
        if msg:
            fails.append(f"loss_and_grad[{kind}] finite differences, {msg}")
        out[f"models.loss_and_grad.{kind}.us_per_call"] = 1e6 * time_per_call(
            lambda: models.loss_and_grad(spec, x, shard, batch)
        )

    # local training at the workload's model, K and batch size
    spec, shard, x0 = problem.spec, problem.shards[0], problem.x0
    opt = cfg.optimizer

    def train(method, **changes):
        ocfg = replace(opt, method=method, **changes)
        return localopt.local_train(
            spec, x0, shard, cfg.local_steps, ocfg, np.random.default_rng([cfg.seed, 8]),
            round_index=1,
        )

    sgd = train("sgd").z
    if not np.array_equal(train("sam", lam=0.0).z, sgd):
        fails.append("local_train: sam with lam=0 differs from sgd")
    if not np.array_equal(train("sgd_momentum", mu=0.0).z, sgd):
        fails.append("local_train: momentum with mu=0 differs from sgd")
    for label, method, changes in (
        ("sgd", "sgd", {}),
        ("sam", "sam", {"lam": opt.lam or 0.1}),
        ("momentum", "sgd_momentum", {"mu": opt.mu or 0.9}),
    ):
        out[f"localopt.local_train.{label}.ms_per_client_round"] = 1e3 * time_per_call(
            lambda: train(method, **changes)
        )

    # mixing matrices at the workload's m; psi at m=100
    m = cfg.m
    for label, spec_t in (
        ("ring", TopologySpec(TopologyKind.RING, m)),
        ("random_k", TopologySpec(TopologyKind.RANDOM_K, m, k=min(10, m - 1), seed=cfg.seed)),
    ):
        mix = topology.build_mixing(spec_t)
        msg = metropolis_mismatch(mix.w)
        if msg:
            fails.append(f"build_mixing[{label}]: {msg}")
        if abs(mix.psi - psi_apart(mix.w)) > 1e-12:
            fails.append(f"build_mixing[{label}]: psi {mix.psi!r} vs {psi_apart(mix.w)!r}")
        if label == "ring":
            if np.abs(mix.w - ring_band(m)).max() > 1e-12:
                fails.append("build_mixing[ring]: weights differ from the 1/3 band")
            closed = 1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi / m)
            if abs(mix.psi - closed) > 1e-12:
                fails.append(f"build_mixing[ring]: psi {mix.psi!r} vs closed form {float(closed)!r}")
        elif ((mix.w != 0) & ~np.eye(m, dtype=bool)).sum(axis=1).min() < spec_t.k:
            fails.append("build_mixing[random_k]: a node has fewer than k partners")
        out[f"topology.build_mixing.{label}.ms_per_call"] = 1e3 * time_per_call(
            lambda: topology.build_mixing(spec_t)
        )

    w100 = topology.build_mixing(TopologySpec(TopologyKind.RANDOM_K, 100, k=10, seed=cfg.seed))
    psi = topology.spectral_gap(w100)
    if abs(psi - psi_apart(w100.w)) > 1e-12:
        fails.append(f"spectral_gap: {psi!r} vs {psi_apart(w100.w)!r}")
    out["topology.spectral_gap.ms_per_call"] = 1e3 * time_per_call(
        lambda: topology.spectral_gap(w100)
    )

    # gossip at m=16 (ring) and m=100 (random_k), at the workload's p
    p = len(x0)
    for mm, mix in ((16, topology.build_mixing(TopologySpec(TopologyKind.RING, 16))), (100, w100)):
        z = rng.normal(size=(mm, p))
        gap = np.abs(engine.gossip_mix(z, mix) - mix.w @ z).max()
        if gap > 1e-12:
            fails.append(f"gossip_mix m={mm}: differs from W @ Z by {gap:.3g}")
        out[f"engine.gossip_mix.m{mm}.ms_per_call"] = 1e3 * time_per_call(
            lambda: engine.gossip_mix(z, mix)
        )

    # full training objective at the workload's initial point
    loss, grad = models.full_objective(spec, x0, problem.shards)
    ref = float(np.mean([cross_entropy(spec, x0, s.features, s.labels) for s in problem.shards]))
    if abs(loss - ref) > 1e-12 * max(1.0, abs(ref)):
        fails.append(f"full_objective: loss {loss!r} vs forward pass {ref!r}")
    msg = fd_mismatch(lambda v: models.full_objective(spec, v, problem.shards)[0], x0, grad,
                      rng.choice(len(x0), 8, replace=False))
    if msg:
        fails.append(f"full_objective finite differences, {msg}")
    out["models.full_objective.isolated.ms_per_call"] = 1e3 * time_per_call(
        lambda: models.full_objective(spec, x0, problem.shards)
    )
    return out, fails
