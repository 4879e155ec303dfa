"""Datasets and client partitioning (IID, Dirichlet, pathological).

Datasets are dense feature matrices with integer labels.  A partition is
a tuple of per-client row-index arrays that assigns every dataset row to
exactly one client; heterogeneity is driven either by Dirichlet-distributed
per-class client shares or by restricting each client to a fixed number of
classes.
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
    if len(flat) != n or len(np.unique(flat)) != n:
        raise AssertionError("internal error: assignments are not a partition")
    if any(len(p) == 0 for p in parts):
        raise AssertionError("internal error: empty client shard survived repair")
    return tuple(np.asarray(p, dtype=np.int64) for p in parts)


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
    noise = np.random.default_rng([seed, noise_stream]).normal(size=(len(labels), dim))
    features = means[labels] + spread * noise
    return LabeledDataset(features=features, labels=labels, num_classes=num_classes)


def partition_iid(ds: LabeledDataset, m: int, seed: int) -> tuple[np.ndarray, ...]:
    """Global shuffle followed by a round-robin split (sizes differ by <= 1)."""
    n = len(ds)
    if n < m:
        raise ValueError(f"cannot give every client a sample: n={n} < m={m}")
    perm = np.random.default_rng([seed]).permutation(n).astype(np.int64)
    parts = [perm[i::m] for i in range(m)]
    return _as_plan(parts, n)


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
    parts: list[list[int]] = [[] for _ in range(m)]
    for c in np.unique(ds.labels):  # classes without a sample draw nothing
        idx = np.nonzero(ds.labels == c)[0].astype(np.int64)
        rng.shuffle(idx)
        shares = rng.dirichlet(np.full(m, alpha))
        # past m * alpha of about 1.8e308 the gamma draws sum to inf, so every share is 0; inf or NaN draws NaN
        if not shares.sum() > 0:
            raise ValueError(f"partition.alpha={alpha} draws no Dirichlet shares (they sum to {shares.sum()})")
        counts = _largest_remainder(shares, len(idx))
        start = 0
        for i, cnt in enumerate(counts):
            parts[i].extend(idx[start : start + cnt].tolist())
            start += cnt
    arrays = [np.asarray(p, dtype=np.int64) for p in parts]
    arrays = _repair_empty(arrays)
    return _as_plan(arrays, n)


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
    present = np.unique(ds.labels)  # every class on gap-free data, in the same order
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
        owned = [rng.choice(c_total, size=classes_per_client, replace=False) for _ in range(m)]
        if len(np.unique(np.concatenate(owned))) == c_total:
            break
    else:
        raise RuntimeError("could not cover all classes; raise m or classes_per_client")

    holders: list[list[int]] = [[] for _ in range(c_total)]  # by position in ``present``
    for i, classes in enumerate(owned):
        for j in classes:
            holders[j].append(i)

    parts: list[list[int]] = [[] for _ in range(m)]
    for c, held_by in zip(present.tolist(), holders):
        idx = np.nonzero(ds.labels == c)[0].astype(np.int64)
        if len(idx) < len(held_by):
            raise ValueError(
                f"class {c} has {len(idx)} samples but {len(held_by)} holders; "
                "exact per-client class support is impossible"
            )
        rng.shuffle(idx)
        for holder, chunk in zip(held_by, np.array_split(idx, len(held_by))):
            parts[holder].extend(chunk.tolist())
    arrays = [np.asarray(p, dtype=np.int64) for p in parts]
    return _as_plan(arrays, len(ds))


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

