"""Datasets and client partitioning (IID, Dirichlet, pathological).

Datasets are dense feature matrices with integer labels.  A partition is
a tuple of per-client row-index arrays that assigns every dataset row to
exactly one client; heterogeneity is driven either by Dirichlet-distributed
per-class client shares or by restricting each client to a fixed number of
classes.  Under either, a client lists its rows class by class, and a
class's rows in the order of that class's one shuffle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledDataset",
    "generate_synthetic",
    "generate_synthetic_holdout",
    "partition_iid",
    "partition_dirichlet",
    "partition_pathological",
    "load_csv",
]

_PATHOLOGICAL_MAX_RETRIES = 10_000


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, values in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise ValueError("empty dataset")
        if self.features.shape[0] != n:
            raise ValueError("features/labels length mismatch")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return len(self.labels)


def _as_plan(parts: list[np.ndarray], n: int) -> tuple[np.ndarray, ...]:
    """The per-client index arrays, checked to cover every one of ``n`` rows exactly once."""
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if len(flat) != n or flat.min() < 0 or flat.max() >= n or np.bincount(flat, minlength=n).max() != 1:
        raise AssertionError("internal error: assignments are not a partition")
    if any(len(p) == 0 for p in parts):
        raise AssertionError("internal error: empty client shard survived repair")
    return tuple(np.asarray(p, dtype=np.int64) for p in parts)


def _class_rows(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The labels present, ascending; one stable argsort of the labels; and each label's rows, views of it."""
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(labels[order[1:]] != labels[order[:-1]]) + 1
    return labels[order[np.r_[0, cuts]]], order, np.split(order, cuts)


def _deal(rows: np.ndarray, owners: np.ndarray, m: int) -> list[np.ndarray]:
    """Each of ``m`` clients' rows, in the order ``rows`` lists them; ``owners[j]`` holds ``rows[j]``."""
    order = np.argsort(owners, kind="stable")
    return np.split(rows[order], np.bincount(owners, minlength=m).cumsum()[:-1])


def generate_synthetic(
    num_classes: int, dim: int, per_class: int, cluster_spread: float, seed: int
) -> LabeledDataset:
    """Gaussian class clusters with unit-norm means scaled by 2.0.

    Cluster means come from a sub-stream of ``seed`` that is separate from
    the sample-noise stream, so a held-out set for the same distribution
    can be produced by swapping only the noise stream (see
    :func:`generate_synthetic_holdout`).
    """
    return _synthetic(num_classes, dim, per_class, cluster_spread, seed, noise_stream=1)


def generate_synthetic_holdout(
    num_classes: int, dim: int, per_class: int, cluster_spread: float, seed: int
) -> LabeledDataset:
    """Same cluster means as :func:`generate_synthetic`, disjoint noise stream."""
    return _synthetic(num_classes, dim, per_class, cluster_spread, seed, noise_stream=2)


def _synthetic(num_classes, dim, per_class, spread, seed, noise_stream) -> LabeledDataset:
    if num_classes < 2 or dim < 1 or per_class < 1:
        raise ValueError("need num_classes >= 2, dim >= 1, per_class >= 1")
    raw = np.random.default_rng([seed, 0]).normal(size=(num_classes, dim))
    means = 2.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    features = np.random.default_rng([seed, noise_stream]).normal(size=(len(labels), dim))
    features *= spread  # spread * noise + means[labels], in place
    blocks = features.reshape(num_classes, per_class, dim)  # a view: one block of rows per class
    blocks += means[:, None, :]
    return LabeledDataset(features=features, labels=labels, num_classes=num_classes)


def partition_iid(ds: LabeledDataset, m: int, seed: int) -> tuple[np.ndarray, ...]:
    """Global shuffle followed by a round-robin split (sizes differ by <= 1)."""
    n = len(ds)
    if n < m:
        raise ValueError(f"cannot give every client a sample: n={n} < m={m}")
    perm = np.random.default_rng([seed]).permutation(n).astype(np.int64)
    return _as_plan([perm[i::m] for i in range(m)], n)


def partition_dirichlet(ds: LabeledDataset, m: int, alpha: float, seed: int) -> tuple[np.ndarray, ...]:
    """Per-class client shares drawn from Dir(alpha * 1_m).

    Each class's samples are split by cumulative shares with
    largest-remainder rounding; clients left empty at small alpha are
    repaired by stealing one sample from the currently largest client.
    """
    if alpha <= 0:
        raise ValueError(f"partition.alpha must be positive, got {alpha}")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(ds)
    if n < m:
        raise ValueError(f"cannot give every client a sample: n={n} < m={m}")
    rng = np.random.default_rng([seed])
    _, rows, class_rows = _class_rows(ds.labels)  # classes without a sample draw nothing; shuffles act on rows
    owners = []
    for idx in class_rows:
        rng.shuffle(idx)
        shares = rng.dirichlet(np.full(m, alpha))
        # past m * alpha of about 1.8e308 the gamma draws sum to inf, so every share is 0; inf or NaN draws NaN
        if not shares.sum() > 0:
            raise ValueError(f"partition.alpha={alpha} draws no Dirichlet shares (they sum to {shares.sum()})")
        owners.append(np.repeat(np.arange(m), _largest_remainder(shares, len(idx))))
    return _as_plan(_repair_empty(_deal(rows, np.concatenate(owners), m)), n)


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    quota = shares * total
    counts = np.floor(quota).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        # ties broken by client index via stable sort on the negated remainder
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _repair_empty(parts: list[np.ndarray]) -> list[np.ndarray]:
    sizes = np.array([len(p) for p in parts])
    while (sizes == 0).any():
        empty = int(np.argmin(sizes))
        donor = int(np.argmax(sizes))
        if sizes[donor] <= 1:
            raise ValueError("not enough samples to repair empty clients")
        parts[empty] = parts[donor][-1:]
        parts[donor] = parts[donor][:-1]
        sizes[empty] += 1
        sizes[donor] -= 1
    return parts


def partition_pathological(
    ds: LabeledDataset, m: int, classes_per_client: int, seed: int
) -> tuple[np.ndarray, ...]:
    """Each client holds samples from exactly ``classes_per_client`` classes.

    Class assignments are drawn uniformly without replacement per client
    and globally re-drawn until every class is held by someone; each
    class's samples are then divided evenly among its holders.  The
    classes are the labels present, so a label gap holds no class.
    """
    present, rows, class_rows = _class_rows(ds.labels)  # every class on gap-free data, in the same order
    c_total = len(present)
    if not 1 <= classes_per_client <= c_total:
        raise ValueError(
            f"classes_per_client must be in [1, {c_total}], the classes present; got {classes_per_client}"
        )
    if m * classes_per_client < c_total:
        raise ValueError(
            f"infeasible: m*classes_per_client={m * classes_per_client} < {c_total} classes present"
        )
    rng = np.random.default_rng([seed])
    for _ in range(_PATHOLOGICAL_MAX_RETRIES):
        owned = np.array([rng.choice(c_total, size=classes_per_client, replace=False) for _ in range(m)])
        if len(np.unique(owned)) == c_total:
            break
    else:
        raise RuntimeError("could not cover all classes; raise m or classes_per_client")

    # each class's holders, ascending, by its position in ``present``
    holders = _deal(np.repeat(np.arange(m), classes_per_client), owned.ravel(), c_total)
    owners = []
    for c, idx, held_by in zip(present, class_rows, holders):
        if len(idx) < len(held_by):
            raise ValueError(
                f"class {c} has {len(idx)} samples but {len(held_by)} holders; "
                "exact per-client class support is impossible"
            )
        rng.shuffle(idx)
        q, r = divmod(len(idx), len(held_by))  # np.array_split's sizes: r chunks of q + 1, then q
        owners.append(np.repeat(held_by, np.where(np.arange(len(held_by)) < r, q + 1, q)))
    return _as_plan(_deal(rows, np.concatenate(owners), m), len(ds))


def load_csv(path: str) -> LabeledDataset:
    """Read ``f1,...,fd,label`` rows below a one-line header.

    Features must be finite.  The class count is ``max label + 1``; label
    gaps are allowed.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) is None:
                raise ValueError(f"{path}: empty dataset (no header)")
            for rownum, row in enumerate(reader, start=2):
                if not row:
                    continue
                if width is None:
                    width = len(row)
                    if width < 2:
                        raise ValueError(f"{path}:{rownum}: need at least one feature and a label")
                elif len(row) != width:
                    raise ValueError(f"{path}:{rownum}: expected {width} columns, got {len(row)}")
                try:
                    values = [float(v) for v in row[:-1]]
                    label = int(row[-1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{rownum}: parse failure: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"{path}:{rownum}: non-finite feature value")
                features.append(values)
                if label < 0:
                    raise ValueError(f"{path}:{rownum}: negative label {label}")
                if label >= 2**63:  # labels are int64
                    raise ValueError(f"{path}:{rownum}: label {label} exceeds 2**63 - 1")
                labels.append(label)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    if not labels:
        raise ValueError(f"{path}: empty dataset")
    labels_arr = np.asarray(labels, dtype=np.int64)
    return LabeledDataset(
        features=np.asarray(features, dtype=float),
        labels=labels_arr,
        num_classes=int(labels_arr.max()) + 1,
    )

