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

A matrix is built and held as its neighbour table, the (m, D) arrays of
each row's support and weights: each kind lists its partner pairs, and one
shared step symmetrises them and derives the rows and weights.  The dense
(m, m) W is derived, once per matrix, where a spectrum needs it or where
gossip takes its dense path (m <= 100 D for table width D; see
:func:`dgossip.engine.gossip_mix`); a large sparse graph gossips over its
table and never builds it.
random_k partners come from the keyed SplitMix64 stream of
:mod:`dgossip.keyed` by Floyd's sampler, every client's row in one array
pass, with no numpy ``Generator``; a run redraws the graph each round t at
the spec seed keyed (topology.seed, _DOM_TOPO, t).

Opposite-lookahead client initialization is algebraically equivalent to
gossiping with the affine transform
    W_tilde = (1 + beta) * W - beta * I,
a possibly negative-entry matrix whose eigenvalues are
(1 + beta) * lambda - beta with the principal one pinned at 1.  Its
non-principal radius psi_tilde(beta) and the coefficient beta* that
minimises it are read, like psi, from W's non-principal eigenvalues, which
a :class:`MixingMatrix` computes once, on first use (Xiao & Boyd 2004;
Liu & Morse 2011).  W_tilde itself is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .keyed import _DOM_TOPO, _floyd, _keys

__all__ = [
    "TopologyKind",
    "TopologySpec",
    "MixingMatrix",
    "build_mixing",
    "spectral_gap",
    "beta_theory_bound",
    "averaging_matrix",
]

_RANDOM_K_MAX_RETRIES = 32


class TopologyKind(str, Enum):
    RING = "ring"
    GRID = "grid"
    EXPONENTIAL = "exponential"
    FULLY_CONNECTED = "full"
    RANDOM_K = "random_k"


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a communication graph.

    ``k`` and ``seed`` are only meaningful for ``random_k``, where each
    node draws ``k`` distinct partners from its own keyed stream, keyed by
    ``seed``, the topology domain, the redraw attempt and the node.  The
    key takes ``seed`` in as one 64-bit word, so it must lie in [0, 2**64).
    """

    kind: TopologyKind
    m: int
    k: int = 10
    seed: int = 0

    def __post_init__(self):  # an exact kind value becomes its member; validate() refuses any other kind
        if self.kind in tuple(TopologyKind):  # a str enum: its members equal their exact values
            object.__setattr__(self, "kind", TopologyKind(self.kind))

    def validate(self) -> None:
        if not isinstance(self.kind, TopologyKind):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.m < 2:
            raise ValueError(f"need at least 2 clients, got m={self.m}")
        if self.kind is TopologyKind.GRID:
            side = math.isqrt(self.m)
            if side * side != self.m:
                raise ValueError(f"grid topology: perfect square required, got m={self.m}")
        if not 0 <= self.seed < 2**64:  # random_k keys its draws on the seed as one 64-bit word
            raise ValueError(f"topology.seed must be in [0, 2**64), got {self.seed}")
        if self.kind is TopologyKind.RANDOM_K:
            if not 1 <= self.k < self.m:
                raise ValueError(f"random_k topology needs 1 <= k < m, got k={self.k}, m={self.m}")
        # building W sorts m * (2h + 1) neighbour keys, h the partners each client lists
        listed = {"ring": 1, "grid": 2, "exponential": (self.m - 1).bit_length(), "full": self.m - 1}
        size = self.m * (2 * listed.get(self.kind.value, self.k) + 1)
        if size > 2**31:
            h = listed.get(self.kind.value, "topology.k")
            raise ValueError(f"{self.kind.value} topology: m * (2 * {h} + 1) = {size} exceeds 2**31")


class MixingMatrix:
    """Symmetric doubly-stochastic gossip weights, held as a neighbour table.

    ``neighbours`` is the (index, weight) pair of (m, D) tables, D the
    largest row support: row i lists the j with w_ij != 0 in ascending
    order, client i itself included, then pads with (i, 0.0) entries.
    The dense W and its spectrum are each derived on first use and kept:
    gossip builds W only where it takes its dense path (m <= 100 D), once
    per matrix, and no run pays for eigvalsh.
    """

    def __init__(self, index: np.ndarray, weight: np.ndarray):
        self.m = len(index)
        # gossip gathers rows without a bounds check, so a table is checked once here
        if index.ndim != 2 or index.shape != weight.shape:
            raise ValueError(f"index {index.shape} and weight {weight.shape} must be one (m, D) shape")
        if ((index < 0) | (index >= self.m)).any():
            raise ValueError(f"neighbour index out of range [0, {self.m})")
        self.neighbours = (index, weight)
        self._w: np.ndarray | None = None
        self._spectrum: np.ndarray | None = None

    @property
    def w(self) -> np.ndarray:
        """The dense (m, m) matrix, for dense gossip, spectra and reference checks."""
        if self._w is None:
            index, weight = self.neighbours
            live = weight != 0.0  # padding carries weight 0, every edge and w_ii > 0
            self._w = np.zeros((self.m, self.m))
            self._w[live.nonzero()[0], index[live]] = weight[live]
        return self._w

    @property
    def spectrum(self) -> np.ndarray:
        """The m - 1 non-principal eigenvalues lambda_m <= ... <= lambda_2, by one eigvalsh."""
        if self._spectrum is None:
            # eigvalsh is ascending; the principal eigenvalue (1 on a connected graph) is last
            self._spectrum = np.linalg.eigvalsh(self.w)[:-1]
        return self._spectrum

    @property
    def psi(self) -> float:
        """max(|lambda_2|, |lambda_m|), by symmetric eigen-decomposition."""
        return _radius(self.spectrum)

    def psi_tilde(self, beta: float) -> float:
        """Non-principal spectral radius of (1 + beta) * W - beta * I.

        The transform maps each eigenvalue lambda to (1 + beta) * lambda - beta
        on the shared eigenvectors and keeps the principal one at exactly 1.
        """
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must satisfy 0 <= beta < 1, got {beta}")
        return _radius((1.0 + beta) * self.spectrum - beta)

    @property
    def beta_star(self) -> float:
        """The psi_tilde minimiser (lambda_2 + lambda_m) / (2 - lambda_2 - lambda_m), clipped to [0, 1)."""
        lo, hi = self.spectrum[[0, -1]]
        return float(min(max((hi + lo) / (2.0 - hi - lo), 0.0), np.nextafter(1.0, 0.0)))


def _radius(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals))) if len(vals) else 0.0


def averaging_matrix(m: int) -> np.ndarray:
    """P = 11^T / m, the fixed point of repeated gossip."""
    return np.full((m, m), 1.0 / m)


def _partners(spec: TopologySpec, attempt: int) -> np.ndarray:
    """(m, h) array of each client's partners one way; :func:`_metropolis` adds the reverse."""
    m, nodes = spec.m, np.arange(spec.m)[:, None]
    if spec.kind is TopologyKind.RANDOM_K:
        # each client i draws k distinct of the m - 1 others, a uniform k-subset,
        # by Floyd's sampler on its own keyed stream (seed, _DOM_TOPO, attempt, i),
        # all clients at once; draws at or past i skip over it.  An edge exists
        # if either endpoint drew it, so every degree is >= k
        draws = _floyd(_keys(m, spec.seed, _DOM_TOPO, attempt, nodes[:, 0]), m - 1, spec.k)
        return np.where(draws >= nodes, draws + 1, draws)
    if spec.kind is TopologyKind.GRID:
        # 2D torus, client r * side + c at row r and column c: the next
        # client down the column and the next along the row, both wrapping
        side = math.isqrt(m)
        return np.hstack([(nodes + side) % m, nodes - nodes % side + (nodes + 1) % side])
    hops = {
        TopologyKind.RING: [1],
        TopologyKind.EXPONENTIAL: [1 << j for j in range((m - 1).bit_length())],
        TopologyKind.FULLY_CONNECTED: range(1, m),
    }[spec.kind]
    return (nodes + np.asarray(hops)) % m


def _is_connected(index: np.ndarray) -> bool:
    # breadth-first frontier from client 0, one vectorised expansion per hop
    seen = np.zeros(len(index), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        reached = np.zeros_like(seen)
        reached[index[frontier]] = True
        frontier = reached & ~seen
        seen |= frontier
    return bool(seen.all())


def _metropolis(partners: np.ndarray) -> MixingMatrix:
    """The Metropolis matrix of the undirected graph joining each i to every partners[i, h]."""
    m = len(partners)
    nodes = np.arange(m)
    src, dst = np.repeat(nodes, partners.shape[1]), partners.ravel()
    key = np.sort(np.concatenate([src * m + dst, dst * m + src, nodes * (m + 1)]))
    key = key[np.diff(key, prepend=-1) != 0]  # np.unique hashes first, and is slower here
    row, col = np.divmod(key, m)
    count, rows = np.bincount(row, minlength=m), nodes[:, None]
    index = np.repeat(rows, count.max(), axis=1)
    index[row, np.arange(len(key)) - (np.cumsum(count) - count)[row]] = col
    deg, live = count - 1, np.arange(index.shape[1]) < count[:, None]
    # 1/(1 + max(deg_i, deg_j)) is symmetric in (i, j), so the matrix is
    # symmetric bitwise, not merely up to rounding.
    weight = np.where(live & (index != rows), 1.0 / (1.0 + np.maximum(deg[:, None], deg[index])), 0.0)
    # w_ii = 1 - sum_j w_ij over the row as the table lays it out, its own
    # entry and the padding still 0
    weight[live & (index == rows)] = 1.0 - weight.sum(axis=1)
    return MixingMatrix(index, weight)


def build_mixing(spec: TopologySpec) -> MixingMatrix:
    """Construct the Metropolis-weighted mixing matrix for a topology.

    Each kind lists only its partner pairs; the table and its weights
    follow from them.  Every graph built here is connected (random_k by
    redrawing), so the matrix contracts: psi < 1.
    """
    spec.validate()
    for attempt in range(_RANDOM_K_MAX_RETRIES):
        w = _metropolis(_partners(spec, attempt))
        # a disconnected random_k union is redrawn with an incremented sub-seed
        if spec.kind is not TopologyKind.RANDOM_K or _is_connected(w.neighbours[0]):
            return w
    raise RuntimeError(
        f"random_k topology: no connected graph within {_RANDOM_K_MAX_RETRIES} retries "
        f"(m={spec.m}, k={spec.k}, seed={spec.seed})"
    )


def spectral_gap(w: MixingMatrix | np.ndarray) -> float:
    """psi = max(|lambda_2|, |lambda_m|), by a fresh symmetric eigen-decomposition."""
    vals = np.linalg.eigvalsh(w.w if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float))
    return _radius(vals[:-1])


def beta_theory_bound(psi: float) -> float:
    """Admissible lookahead-coefficient cap from the convergence analysis.

    min{ sqrt(10) * (1 - psi) / 40, sqrt(5) / 30 }.  Diagnostic only: the
    engine reports it but does not enforce it, since empirically useful
    coefficients sit far above this worst-case cap.
    """
    if not 0.0 <= psi < 1.0:
        raise ValueError(f"psi must satisfy 0 <= psi < 1, got {psi}")
    return min(math.sqrt(10.0) * (1.0 - psi) / 40.0, math.sqrt(5.0) / 30.0)
