"""Local training of all clients at once, by one step rule.

SGD, SAM and heavy-ball momentum are one update, v <- mu v + grad f(x +
lam g / ||g||) and x <- x - eta v with g the gradient at x: SGD is lam = 0
without a velocity, SAM sets lam and momentum keeps v.  Client models are
the rows of an (m, p) stack and every step updates all rows together
through one stacked gradient call (:func:`models.batch_grads`).  Each row
still sees only its own client's minibatch, drawn from that client's own
(seed, client, round) stream (the engine draws every participant of a
block of rounds in one call, :func:`engine.client_batches`, and hands
each round its slice), so a row of the stack is bitwise the trajectory
the client would follow alone.  The one-client form takes a numpy
``Generator`` in place of the indices.

Each :func:`local_train` call checks and offsets all K steps' draws and
gathers their labels into one flat label index at once
(:meth:`models.ShardStack.minibatches`), so an index out of range stops
it before its first step.  It lays one :class:`models.Workspace` out and
hands it to every step: each step gathers its features into it with one
``take`` and points it at its row of the label index, and its K steps
and both gradient calls of a SAM step reuse the same activations,
back-propagated errors, softmax scratch and ascent point, and the
iterates alternate between the result and a spare array.  A run's local
phase passes its :class:`models.Scratch`, of which each worker process
holds its own copy, so the workspace, the spare iterate and the velocity
take the same memory in every round (the run's evaluations reuse the
caller's in between); without it the call lays its own out in a fresh
one.  The quadratic family's workspace holds no data: the call points it
at its stack's gathered terms.
The result is a new array, and no returned array points into the
workspace.

SAM evaluates the gradient twice on the same minibatch: at the current
point for the ascent direction, then at the point perturbed by ``lam``
along it.  With ``lam == 0`` (or a vanishing first gradient) the second
evaluation is skipped, so the step is bitwise plain SGD; so is momentum
with ``mu == 0``.

The learning rate decays per communication round and is constant across
the K steps inside a round.  Momentum buffers are reset at every round
start so that a freshly mixed model never inherits stale velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, Scratch, ShardStack, batch_grads
from .models import loss_and_grad  # noqa: F401  re-exported: bench/spans.py wraps it under this name

__all__ = [
    "OptimizerConfig",
    "LocalResult",
    "lr_at_round",
    "local_train",
]

METHODS = ("sgd", "sam", "sgd_momentum")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "sgd"
    eta0: float = 0.1
    decay: float = 0.998
    lam: float = 0.1  # SAM perturbation radius
    mu: float = 0.9  # heavy-ball momentum
    grad_floor: float = 1e-12  # skip SAM perturbation below this gradient norm
    batch_size: int = 32

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown optimizer method {self.method!r}; choose from {METHODS}")
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")
        if not 0.0 <= self.grad_floor < math.inf:
            raise ValueError(f"grad_floor must be >= 0 and finite, got {self.grad_floor}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class LocalResult:
    z: np.ndarray  # (m, p) local outputs x_{i,K}; (p,) for one client
    v1: np.ndarray | float | None  # sum_k ||x_{i,k} - ref||^2 per client, given a reference point


def lr_at_round(cfg: OptimizerConfig, t: int) -> float:
    """eta_t = eta0 * decay^t, constant within a round."""
    if t < 0:
        raise ValueError("round index must be >= 0")
    return cfg.eta0 * cfg.decay**t


def _step(spec: ModelSpec, x, eta: float, lam: float, cfg: OptimizerConfig, velocity, ws, out):
    """The module's step rule for every row of the (m, p) stack ``x``, written into ``out``.

    ``velocity`` (None for SGD and SAM) is updated in place, ``ws`` is the
    local phase's Workspace, holding the step's minibatch and its label
    index, which both gradient calls of a SAM step read, and ``out`` a
    C-contiguous (m, p) array, not overlapping x.
    """
    g = batch_grads(spec, x, ws, out=out)
    if lam != 0.0:
        # np.linalg.norm(row) is sqrt(row @ row); a stacked (1, p) @ (p, 1) matmul takes that same
        # dot product for every row, while einsum or a sum of squares rounds differently
        norms = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
        # rows at or below the floor would perturb onto x itself: keep g1
        ascend = ~(norms <= cfg.grad_floor)
        every = ascend.all()
        if every or ascend.any():
            peak = np.multiply(lam, g, out=ws.point)
            peak /= (norms if every else np.where(ascend, norms, 1.0))[:, None]
            peak += x
            if every:  # g1 is spent once the ascent point is built
                g = batch_grads(spec, peak, ws, out=g)
            else:
                np.copyto(g, batch_grads(spec, peak, ws), where=ascend[:, None])
    if velocity is not None:
        velocity *= cfg.mu
        velocity += g
        g = np.multiply(eta, velocity, out=g)
    else:
        g *= eta
    return np.subtract(x, g, out=g)


def local_train(
    spec: ModelSpec,
    x0: np.ndarray,
    shard,
    k_steps: int,
    cfg: OptimizerConfig,
    draws,
    *,
    round_index: int,
    ref_point: np.ndarray | None = None,
    scratch: Scratch | None = None,
) -> LocalResult:
    """K sequential steps on every client of a stack at once.

    Stacked form: ``x0`` is (m, p), ``shard`` a :class:`ShardStack` and
    ``draws`` the (K, m, B) shard-local minibatch indices, one column per
    row, as :func:`engine.client_batches` draws them (None for the
    quadratic family); another shape raises ValueError, and an index
    outside its own row's shard, in any step, IndexError before the first
    step (:meth:`ShardStack.minibatches`).
    One client: ``x0`` is (p,), ``shard`` its :class:`Shard` (client index
    for the quadratic family) and ``draws`` its generator, from which all
    K batches are drawn uniformly with replacement in one ``integers(0,
    n, size=(K, B))`` call, the stream of K successive size-B draws; the
    result then drops the client axis.  The quadratic family is noiseless
    and draws nothing.  Each step updates all rows with one stacked
    gradient call.

    ``ref_point`` ((p,) or (m, p)) switches on accumulation of the
    local-drift energy sum_k ||x_{i,k} - ref||^2 over the pre-step iterates.
    The workspace, spare iterate and velocity are laid out in ``scratch``,
    or a fresh :class:`Scratch` when it is None; the result is a new array.
    """
    if k_steps < 1:
        raise ValueError("need at least one local step")
    single = np.ndim(x0) == 1
    if single:
        x0, shard = x0[None], ShardStack.of([shard])
        if spec.kind == "quadratic":
            draws = None
        else:
            draws = draws.integers(0, int(shard.sizes[0]), size=(k_steps, cfg.batch_size))[:, None]
    expected = (k_steps, len(x0), cfg.batch_size)
    if spec.kind != "quadratic" and np.shape(draws) != expected:
        raise ValueError(f"draws shaped {np.shape(draws)}, expected (K, m, batch_size) = {expected}")
    eta = lr_at_round(cfg, round_index)
    lam = cfg.lam if cfg.method == "sam" else 0.0
    momentum = cfg.method == "sgd_momentum"
    ws = (scratch or Scratch()).workspace(spec, shard, cfg.batch_size, point=lam != 0.0, stacks=1 + momentum)
    out = np.empty(x0.shape)
    # the iterates alternate between out and the spare, so that the last step writes into out
    iterates = (out, ws.stacks[0]) if k_steps % 2 else (ws.stacks[0], out)
    x = x0
    velocity = ws.stacks[1] if momentum else None
    if momentum:
        velocity.fill(0.0)
    v1 = np.zeros(len(x0)) if ref_point is not None else None
    if spec.kind == "quadratic":  # noiseless: every step reads the stack's own terms
        ws.quad, index = (spec.quad_a[shard.clients], spec.quad_b[shard.clients]), None
    else:  # every step's minibatch rows and label index, checked and offset at once
        index, picked = shard.minibatches(draws, ws)
    for k in range(k_steps):
        step_out = iterates[k % 2]
        if v1 is not None:  # step_out is free until the step writes it
            drift = np.subtract(x, ref_point, out=step_out)
            np.square(drift, out=drift)
            v1 += drift.sum(axis=1)
        if index is not None:
            # in range, so "clip" clips nothing; it lets take write into ws without a buffer
            shard.features.take(index[k], axis=0, out=ws.features, mode="clip")
            ws.picked = picked[k]
        x = _step(spec, x, eta, lam, cfg, velocity, ws, step_out)
    if single:
        return LocalResult(z=x[0], v1=None if v1 is None else float(v1[0]))
    return LocalResult(z=x, v1=v1)
