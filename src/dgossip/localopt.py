"""Local training of all clients at once: SGD, SAM, and heavy-ball momentum.

Client models are the rows of an (m, p) stack and every optimizer step
updates all rows together through one stacked gradient call
(:func:`models.batch_grads`).  Each row still sees only its own client's
minibatch, drawn from that client's own (seed, client, round) stream (the
engine draws every participant of a block of rounds in one call,
:func:`engine.client_batches`, and hands each round its slice), so a row
of the stack is bitwise the trajectory the client would follow alone.
The one-client form takes a numpy ``Generator`` in place of the indices.

Each :func:`local_train` call builds one :class:`models.Workspace` and
hands it to every step: its K steps and both gradient calls of a SAM
step reuse the same activations, back-propagated errors, softmax scratch
and ascent point, and the iterates alternate between two arrays of the
call.  The workspace lives for that call only; no returned array points
into it, and the outputs are bitwise those of a step that allocates its
own arrays.

The SAM step evaluates the gradient twice on the same minibatch: once at
the current point to obtain the ascent direction, then at the point
perturbed by ``lam`` along the normalized gradient.  With ``lam == 0`` (or
a vanishing first gradient) the perturbed point equals the current one, so
the second evaluation is skipped and the step is bitwise identical to
plain SGD.

The learning rate decays per communication round and is constant across
the K steps inside a round.  Momentum buffers are reset at every round
start so that a freshly mixed model never inherits stale velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, ShardStack, Workspace, batch_grads
from .models import loss_and_grad  # noqa: F401  re-exported: bench/spans.py wraps it under this name

__all__ = [
    "OptimizerConfig",
    "LocalResult",
    "lr_at_round",
    "sgd_step",
    "sam_step",
    "momentum_step",
    "local_train",
]

METHODS = ("sgd", "sam", "sgd_momentum")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "sgd"
    eta0: float = 0.1
    decay: float = 0.998
    lam: float = 0.0  # SAM perturbation radius
    mu: float = 0.0  # heavy-ball momentum
    grad_floor: float = 1e-12  # skip SAM perturbation below this gradient norm
    batch_size: int = 32

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown optimizer method {self.method!r}; choose from {METHODS}")
        if self.eta0 <= 0:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")
        if self.grad_floor < 0:
            raise ValueError("grad_floor must be >= 0")
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


def _as_stack(x: np.ndarray, shard, batch):
    """(x, shard, batch) of one client as a one-row stack; stacks pass through."""
    if np.ndim(x) == 2:
        return x, shard, batch
    return x[None], ShardStack.of([shard]), None if batch is None else np.asarray(batch)[None]


# Each step takes either one client -- x (p,), its Shard (client index for
# the quadratic family) and (B,) shard-local batch indices -- or a stack:
# x (m, p), a ShardStack and (m, B) indices.  The result has x's shape.
# For a stack, ``ws`` is the local phase's Workspace and ``out`` a
# C-contiguous (m, p) array, not overlapping x, to write the new point
# into; without them the step allocates its own.


def sgd_step(spec: ModelSpec, x, shard, batch, eta: float, *, ws=None, out=None) -> np.ndarray:
    xs, stack, rows = _as_stack(x, shard, batch)
    g = batch_grads(spec, xs, stack.batch(rows, ws), ws=ws, out=out)
    g *= eta
    return np.subtract(xs, g, out=g).reshape(np.shape(x))


def sam_step(
    spec: ModelSpec, x, shard, batch, eta: float, lam: float, grad_floor: float = 1e-12, *, ws=None, out=None
) -> np.ndarray:
    xs, stack, rows = _as_stack(x, shard, batch)
    minibatch = stack.batch(rows, ws)
    g = batch_grads(spec, xs, minibatch, ws=ws, out=out)
    if lam != 0.0:
        # np.linalg.norm(row) is sqrt(row @ row); a stacked (1, p) @ (p, 1) matmul takes that same
        # dot product for every row, while einsum or a sum of squares rounds differently
        norms = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
        # rows at or below the floor would perturb onto x itself: keep g1
        ascend = ~(norms <= grad_floor)
        if ascend.any():
            peak = np.multiply(lam, g, out=None if ws is None else ws.point)
            peak /= np.where(ascend, norms, 1.0)[:, None]
            peak += xs
            if ascend.all():  # g1 is spent once the ascent point is built
                g = batch_grads(spec, peak, minibatch, ws=ws, out=g)
            else:
                np.copyto(g, batch_grads(spec, peak, minibatch, ws=ws), where=ascend[:, None])
    g *= eta
    return np.subtract(xs, g, out=g).reshape(np.shape(x))


def momentum_step(
    spec: ModelSpec, x, velocity, shard, batch, eta: float, mu: float, *, ws=None, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """One heavy-ball step; ``out`` is a pair (new point, new velocity), the latter possibly ``velocity``."""
    xs, stack, rows = _as_stack(x, shard, batch)
    x_out, v_out = (None, None) if out is None else out
    g = batch_grads(spec, xs, stack.batch(rows, ws), ws=ws, out=x_out)
    velocity_new = np.multiply(mu, np.reshape(velocity, xs.shape), out=v_out)
    velocity_new += g
    step = np.multiply(eta, velocity_new, out=g)
    x_new = np.subtract(xs, step, out=step)
    return x_new.reshape(np.shape(x)), velocity_new.reshape(np.shape(x))


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
) -> LocalResult:
    """K sequential steps on every client of a stack at once.

    Stacked form: ``x0`` is (m, p), ``shard`` a :class:`ShardStack` and
    ``draws`` the (K, m, B) shard-local minibatch indices, one column per
    row, as :func:`engine.client_batches` draws them (None for the
    quadratic family).  One client: ``x0`` is (p,), ``shard`` its
    :class:`Shard` (client index for the quadratic family) and ``draws``
    its generator, from which all K batches are drawn uniformly with
    replacement in one ``integers(0, n, size=(K, B))`` call, the stream of
    K successive size-B draws; the result then drops the client axis.  The
    quadratic family is noiseless and draws nothing.  Each step updates
    all rows with one stacked gradient call.

    ``ref_point`` ((p,) or (m, p)) switches on accumulation of the
    local-drift energy sum_k ||x_{i,k} - ref||^2 over the pre-step iterates.
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
    eta = lr_at_round(cfg, round_index)
    ws = Workspace(spec, shard, cfg.batch_size, point=cfg.method == "sam" and cfg.lam != 0.0)
    # the iterates alternate between two arrays of this call; the last one is returned
    iterates = (np.empty(x0.shape), np.empty(x0.shape))
    x = x0
    velocity = np.zeros(x0.shape) if cfg.method == "sgd_momentum" else None
    v1 = np.zeros(len(x0)) if ref_point is not None else None
    for k in range(k_steps):
        batch = None if draws is None else draws[k]
        out = iterates[k % 2]
        if v1 is not None:  # out is free until the step writes it
            drift = np.subtract(x, ref_point, out=out)
            np.square(drift, out=drift)
            v1 += drift.sum(axis=1)
        if cfg.method == "sgd":
            x = sgd_step(spec, x, shard, batch, eta, ws=ws, out=out)
        elif cfg.method == "sam":
            x = sam_step(spec, x, shard, batch, eta, cfg.lam, cfg.grad_floor, ws=ws, out=out)
        else:
            x, velocity = momentum_step(
                spec, x, velocity, shard, batch, eta, cfg.mu, ws=ws, out=(out, velocity)
            )
    if single:
        return LocalResult(z=x[0], v1=None if v1 is None else float(v1[0]))
    return LocalResult(z=x, v1=v1)
