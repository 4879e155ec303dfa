"""Communication topologies as symmetric doubly-stochastic mixing matrices.

A gossip round averages neighbor models through a mixing matrix W that is
symmetric, doubly stochastic, and has all eigenvalues in (-1, 1] with a
simple eigenvalue at 1 (connected graph).  The contraction factor of
repeated gossip is psi = max(|lambda_2|, |lambda_m|): powers of W approach
the rank-one averaging matrix P = 11^T/m at rate psi^t.

Weights follow the Metropolis-Hastings rule
    w_ij = 1 / (1 + max(deg_i, deg_j))   for each edge (i, j),
    w_ii = 1 - sum_j w_ij,
which satisfies every property above on any connected undirected graph.

The module also provides the affine spectral transform
    W_tilde = (1 + beta) * W - beta * I,
whose eigenvalues are (1 + beta) * lambda - beta with the principal one
pinned at 1.  Opposite-lookahead client initialization is algebraically
equivalent to gossiping with this modified (possibly negative-entry)
matrix, which is why it can accelerate consensus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "TopologyKind",
    "TopologySpec",
    "MixingMatrix",
    "ModifiedMatrix",
    "build_mixing",
    "spectral_gap",
    "chebyshev_modified",
    "random_k_adjacency",
    "beta_theory_bound",
    "averaging_matrix",
    "REFERENCE_PSI_FORMULAS",
]

_RANDOM_K_MAX_RETRIES = 32


class TopologyKind(str, Enum):
    RING = "ring"
    GRID = "grid"
    EXPONENTIAL = "exponential"
    FULLY_CONNECTED = "full"
    RANDOM_K = "random_k"


# Commonly cited asymptotic orders of psi for Metropolis-free idealized
# weightings of each graph family; reported as annotations only, never
# asserted (the numerically computed psi is authoritative here).
REFERENCE_PSI_FORMULAS: dict[TopologyKind, str] = {
    TopologyKind.FULLY_CONNECTED: "0",
    TopologyKind.EXPONENTIAL: "1 - 2/(1 + ln(m))",
    TopologyKind.GRID: "1 - 1/(m*ln(m))",
    TopologyKind.RING: "1 - 16*pi^2/(3*m^2)",
    TopologyKind.RANDOM_K: "",
}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a communication graph.

    ``k`` and ``seed`` are only meaningful for ``random_k``, where each
    node draws ``k`` partners per round from a seeded stream.
    """

    kind: TopologyKind
    m: int
    k: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least 2 clients, got m={self.m}")
        if self.kind is TopologyKind.GRID:
            side = math.isqrt(self.m)
            if side * side != self.m:
                raise ValueError(f"grid topology: perfect square required, got m={self.m}")
        if self.kind is TopologyKind.RANDOM_K:
            if not 1 <= self.k < self.m:
                raise ValueError(f"random_k topology needs 1 <= k < m, got k={self.k}, m={self.m}")


class MixingMatrix:
    """Symmetric doubly-stochastic gossip weights.

    psi and the neighbour table are derived on first use, so a per-round
    random_k matrix that is only gossiped with never pays for eigvalsh.
    """

    def __init__(self, m: int, w: np.ndarray, psi: float | None = None):
        self.m = m
        self.w = w
        self._psi = psi
        self._neighbours: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def psi(self) -> float:
        """max(|lambda_2|, |lambda_m|), by symmetric eigen-decomposition."""
        if self._psi is None:
            self._psi = _psi_from_matrix(self.w)
        return self._psi

    @property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, weight) tables of shape (m, D), D the largest row support.

        Row i lists the j with w_ij != 0 in ascending order, then pads with
        zero-weight entries of the same row.
        """
        if self._neighbours is None:
            support = self.w != 0
            width = int(support.sum(axis=1).max())
            index = np.argsort(~support, axis=1, kind="stable")[:, :width]
            self._neighbours = (index, np.take_along_axis(self.w, index, axis=1))
        return self._neighbours


@dataclass(frozen=True, eq=False)
class ModifiedMatrix:
    """Affine transform of a mixing matrix; rows still sum to 1 but
    entries may be negative, so it is deliberately a distinct type."""

    m: int
    w: np.ndarray
    psi_tilde: float


def averaging_matrix(m: int) -> np.ndarray:
    """P = 11^T / m, the fixed point of repeated gossip."""
    return np.full((m, m), 1.0 / m)


def _circulant(m: int, hops) -> np.ndarray:
    """Adjacency joining i to i +/- h (mod m) for each hop h in ``hops``, 0 < h < m."""
    step = np.zeros(m, dtype=bool)
    hops = np.asarray(hops)
    step[hops] = step[m - hops] = True
    return step[np.subtract.outer(np.arange(m), np.arange(m)) % m]


def _is_connected(adj: np.ndarray) -> bool:
    # breadth-first frontier from node 0, one vectorised expansion per hop
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def random_k_adjacency(m: int, k: int, round_seed: int) -> np.ndarray:
    """Symmetrized union of k uniform partner draws per node.

    Each node draws k distinct partners without replacement; an edge
    exists if either endpoint drew it, so every degree is >= k.  If the
    union graph is disconnected the draw is repeated with an incremented
    sub-seed, erroring out after a bounded number of retries.
    """
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    for attempt in range(_RANDOM_K_MAX_RETRIES):
        rng = np.random.default_rng([round_seed, attempt])
        adj = np.zeros((m, m), dtype=bool)
        for i in range(m):
            draws = rng.choice(m - 1, size=k, replace=False)
            partners = np.where(draws >= i, draws + 1, draws)
            adj[i, partners] = True
        adj |= adj.T
        np.fill_diagonal(adj, False)
        if _is_connected(adj):
            return adj
    raise RuntimeError(
        f"random_k topology: no connected graph within {_RANDOM_K_MAX_RETRIES} retries "
        f"(m={m}, k={k}, seed={round_seed})"
    )


def _adjacency(spec: TopologySpec) -> np.ndarray:
    m = spec.m
    if spec.kind is TopologyKind.RING:
        return _circulant(m, [1])
    if spec.kind is TopologyKind.GRID:
        # 2D torus: a ring along every row and every column of the side x
        # side layout; for side 2 the +/- neighbours coincide
        side = math.isqrt(m)
        ring, eye = _circulant(side, [1]), np.eye(side, dtype=bool)
        return np.kron(ring, eye) | np.kron(eye, ring)
    if spec.kind is TopologyKind.EXPONENTIAL:
        return _circulant(m, [1 << j for j in range((m - 1).bit_length())])
    if spec.kind is TopologyKind.FULLY_CONNECTED:
        return _circulant(m, range(1, m))
    if spec.kind is TopologyKind.RANDOM_K:
        return random_k_adjacency(spec.m, spec.k, spec.seed)
    raise ValueError(f"unknown topology kind: {spec.kind!r}")


def _metropolis(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1)
    # 1/(1 + max(deg_i, deg_j)) is symmetric in (i, j), so the matrix is
    # symmetric bitwise, not merely up to rounding.
    pair = 1.0 / (1.0 + np.maximum.outer(deg, deg))
    w = np.where(adj, pair, 0.0)
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def _psi_from_matrix(w: np.ndarray) -> float:
    # eigvalsh returns ascending eigenvalues; the principal one (== 1 for
    # a connected stochastic matrix) is last.  psi is the largest
    # magnitude among the rest.
    vals = np.linalg.eigvalsh(w)
    return float(np.max(np.abs(vals[:-1]))) if len(vals) > 1 else 0.0


def build_mixing(spec: TopologySpec) -> MixingMatrix:
    """Construct the Metropolis-weighted mixing matrix for a topology.

    Every graph built here is connected (random_k by redrawing), so the
    matrix contracts: psi < 1.
    """
    spec.validate()
    return MixingMatrix(m=spec.m, w=_metropolis(_adjacency(spec)))


def spectral_gap(w: MixingMatrix | np.ndarray) -> float:
    """psi = max(|lambda_2|, |lambda_m|) via symmetric eigen-decomposition."""
    mat = w.w if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    return _psi_from_matrix(mat)


def chebyshev_modified(w: MixingMatrix, beta: float) -> ModifiedMatrix:
    """(1 + beta) * W - beta * I with its non-principal spectral radius.

    The transform maps each eigenvalue lambda to (1 + beta) * lambda - beta
    on the shared eigenvectors and keeps the principal eigenvalue at
    exactly 1; rows still sum to 1 because the combination is affine.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must satisfy 0 <= beta < 1, got {beta}")
    mat = (1.0 + beta) * w.w - beta * np.eye(w.m)
    vals = np.linalg.eigvalsh(w.w)
    mapped = (1.0 + beta) * vals[:-1] - beta
    psi_tilde = float(np.max(np.abs(mapped))) if len(vals) > 1 else 0.0
    return ModifiedMatrix(m=w.m, w=mat, psi_tilde=psi_tilde)


def beta_theory_bound(psi: float) -> float:
    """Admissible lookahead-coefficient cap from the convergence analysis.

    min{ sqrt(10) * (1 - psi) / 40, sqrt(5) / 30 }.  Diagnostic only: the
    engine reports it but does not enforce it, since empirically useful
    coefficients sit far above this worst-case cap.
    """
    if not 0.0 <= psi < 1.0:
        raise ValueError(f"psi must satisfy 0 <= psi < 1, got {psi}")
    return min(math.sqrt(10.0) * (1.0 - psi) / 40.0, math.sqrt(5.0) / 30.0)
