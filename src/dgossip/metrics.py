"""Per-round diagnostics and cross-run analyses.

Quantities tracked per round (all over the post-round state):

* consensus      (1/m) sum_i ||x_i - xbar||^2
* delta_t        (1/m) sum_i ||z_i - x_i'||^2, the distance between each
                 client's pre-mix local output and its freshly mixed
                 model -- the inconsistency measure this simulator exists
                 to study
* v1, v2         local-drift and global-step energies (diagnostic mode)
* grad_norm_sq   ||grad f(xbar)||^2 on the full training objective
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .models import ModelSpec, Shard, predictions

__all__ = [
    "RoundRecord",
    "consensus_distance",
    "consistency_delta",
    "update_energies",
    "eval_model",
    "rounds_to_target",
    "write_metrics_csv",
    "METRICS_CSV_COLUMNS",
]

@dataclass(frozen=True)
class RoundRecord:
    """Metrics snapshot for the state after one communication round.

    ``delta_t`` is the consistency term measured at this round's mixing
    step; ``v1``/``v2`` are None unless the run collected diagnostics, and
    ``test_acc`` is None for the quadratic family (no held-out accuracy).
    """

    t: int
    train_loss: float
    test_acc: float | None
    grad_norm_sq: float
    consensus: float
    delta_t: float
    v1: float | None
    v2: float | None
    lr: float


METRICS_CSV_COLUMNS = tuple(f.name for f in fields(RoundRecord))


def consensus_distance(xs: np.ndarray, xbar: np.ndarray | None = None) -> float:
    """(1/m) sum_i ||x_i - xbar||^2 over an (m, p) stack of client models.

    ``xbar`` is the stack's mean when the caller has taken it already.
    """
    xs = np.asarray(xs, dtype=float)
    centred = np.subtract(xs, xs.mean(axis=0) if xbar is None else xbar)
    return _mean_row_sum(np.square(centred, out=centred))


def consistency_delta(z_prev: np.ndarray, x_mixed: np.ndarray) -> float:
    """(1/m) sum_i ||z_i - x_i||^2 between pre-mix outputs and mixed models."""
    z_prev = np.asarray(z_prev, dtype=float)
    x_mixed = np.asarray(x_mixed, dtype=float)
    if z_prev.shape != x_mixed.shape:
        raise ValueError("shape mismatch between local outputs and mixed models")
    gap = np.subtract(z_prev, x_mixed)
    return _mean_row_sum(np.square(gap, out=gap))


def _mean_row_sum(a: np.ndarray) -> float:
    """``np.mean(np.sum(a, axis=1))`` of an (m, p) array, bitwise: np.mean is a sum and one true divide by m."""
    return float(np.add.reduce(np.add.reduce(a, axis=1)) / len(a))


def update_energies(
    per_client_drift: np.ndarray, xbar_before: np.ndarray, xbar_after: np.ndarray
) -> tuple[float, float]:
    """(v1, v2) from one round's internals.

    ``per_client_drift`` holds each client's sum_k ||x_{i,k} - x_i||^2 as
    accumulated by local training; v1 averages them across clients and v2
    is the squared displacement of the client average over the round.
    """
    v1 = float(np.mean(per_client_drift))
    v2 = float(np.sum((xbar_after - xbar_before) ** 2))
    return v1, v2


def eval_model(spec: ModelSpec, x: np.ndarray, test: Shard):
    """Full-test-set top-1 accuracy of one parameter vector, from the argmax of its logits.

    For a (g, p) stack of vectors, a (g,) array of their accuracies, from
    one stacked forward; each equals its vector's own call bitwise.  Ties
    go to the lowest class.  No loss is computed: the held-out loss has
    its own reader (``stability``), which takes it from
    :func:`models.loss_and_predictions`.
    """
    if spec.kind == "quadratic":
        raise ValueError("quadratic objectives have no held-out accuracy")
    hits = predictions(spec, x, test) == test.labels
    return np.mean(hits, axis=-1) if x.ndim == 2 else float(np.mean(hits))


def rounds_to_target(records, targets) -> list[tuple[float, int | None]]:
    """First recorded round whose test accuracy reaches each target."""
    out = []
    for target in targets:
        hit = None
        for rec in records:
            if rec.test_acc is not None and rec.test_acc >= target:
                hit = rec.t
                break
        out.append((float(target), hit))
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def write_metrics_csv(records, path) -> None:
    """One row per evaluated round; '.' decimals, LF endings, blank for absent."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(METRICS_CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(getattr(rec, col)) for col in METRICS_CSV_COLUMNS) + "\n")
