"""Keyed counter-based draws: each random value is a pure function of a key and an index.

The stream is counter-based (Salmon et al. 2011, "Parallel random numbers:
as easy as 1, 2, 3") on SplitMix64's finaliser mix64 and increment gamma
(Steele, Lea & Flood 2014), all mod 2**64:

1. key: from 0, each word that names the stream (a seed, a domain tag,
   then whatever tells the streams of that domain apart) is taken in as
   key = mix64((key + gamma) ^ word);
2. stream: value j, from 0, is mix64(key + (j + 1) gamma), computed
   directly, so no state is carried from one value to the next;
3. bounded draw: the high 32 bits u of a value give the index u * n >> 32
   (Lemire 2019, "Fast random integer generation in an interval"), unless
   the product's low word is below (2**32 - n) mod n.  In a row of
   ``count`` values, a rejected entry j takes value j + r*count at its
   r-th retry.  n == 1 rejects nothing and draws zeros.

Every seed and per-round draw of a run is a key of this rule, each a pure
function of its words: ``engine.client_batches`` draws minibatches from
(seed, _DOM_CLIENT, client, round), ``engine.participants`` keeps the
central clients with the smallest keys (seed, _DOM_COORD, t, i),
``engine.iter_rounds`` seeds round t's random_k graph with the key
(topology.seed, _DOM_TOPO, t), ``engine.build_problem`` seeds the data,
partition and init with (seed, _DOM_DATA), (seed, _DOM_PARTITION) and
(seed, _DOM_INIT), and ``topology`` draws random_k partners by Floyd's
sampler on (seed, _DOM_TOPO, attempt, i).
"""

from __future__ import annotations

import numpy as np

# domain tags for deriving independent streams from one seed
_DOM_CLIENT = 0
_DOM_COORD = 1
_DOM_TOPO = 2
_DOM_DATA = 3
_DOM_PARTITION = 4
_DOM_INIT = 5

# SplitMix64 (Steele, Lea & Flood 2014): its increment (the golden ratio) and its finaliser's multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1, _MIX_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_CHUNK_VALUES = 2**13  # values _draw takes per row chunk; each uint64 temporary of a chunk is 64 KiB


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a uint64 array."""
    z ^= z >> 30
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return z


def _bounded(z: np.ndarray, n: np.ndarray, threshold: np.ndarray, out=None) -> np.ndarray:
    """Lemire's index u * n >> 32 of each value's high word u, in place; True where the value is rejected."""
    z >>= 32
    z *= n
    rejected = np.less(z & 0xFFFFFFFF, threshold, out=out)
    z >>= 32
    return rejected


def _keys(count: int, *words) -> np.ndarray:
    """(count,) stream keys; each word is one int for all keys or one per key, each in [0, 2**64)."""
    key = np.zeros(count, dtype=np.uint64)
    for word in words:
        key += _GAMMA
        key ^= np.asarray(word, dtype=np.uint64)
        _mix64(key)
    return key


def _draw(key: np.ndarray, n: np.ndarray, count: int) -> np.ndarray:
    """(len(key), count) int64: entry (i, j) is value j of stream key[i], bounded to [0, n[i, j]).

    ``n`` holds uint64 bounds in [1, 2**32), shaped (len(key), 1) for one
    per row or (len(key), count).  The draw runs in place in the result,
    rows of at most ``_CHUNK_VALUES`` values at a time, so its temporaries
    stay small beside it; then only the rejected entries are retried, all
    at once.
    """
    m = len(key)
    threshold = (np.uint64(2**32) - n) % n
    steps = np.arange(1, count + 1, dtype=np.uint64)
    steps *= _GAMMA
    out = np.empty((m, count), dtype=np.int64)
    values = out.view(np.uint64)
    rejected = np.empty((m, count), dtype=bool)
    rows = max(1, _CHUNK_VALUES // count)
    for r0 in range(0, m, rows):
        chunk = slice(r0, r0 + rows)
        np.add(key[chunk, None], steps, out=values[chunk])
        _bounded(_mix64(values[chunk]), n[chunk], threshold[chunk], out=rejected[chunk])
    row, col = np.nonzero(rejected)
    tries = 0
    while row.size:
        tries += 1
        retry = col.astype(np.uint64)
        retry += np.uint64(tries * count + 1)
        retry *= _GAMMA
        retry += key[row]
        bound, least = (np.broadcast_to(a, out.shape)[row, col] for a in (n, threshold))
        again = _bounded(_mix64(retry), bound, least)
        out[row[~again], col[~again]] = retry[~again]
        row, col = row[again], col[again]
    return out


def _floyd(key: np.ndarray, n: int, k: int) -> np.ndarray:
    """(len(key), k) int64: row i holds k distinct values of [0, n), a uniform k-subset, from stream key[i].

    Floyd's sampler (Bentley & Floyd 1987, "A sample of brilliance"):
    step j, from 0, draws t uniformly in [0, top_j], top_j = n - k + j,
    from value j of the row's stream, and takes top_j instead when t is
    already among the row's earlier picks.  The t of every step are one
    ``_draw`` of the (len(key), k) block, and the steps run one column at
    a time for all rows.  Needs 1 <= k <= n < 2**32.
    """
    top = np.arange(n - k, n, dtype=np.int64)
    picks = _draw(key, np.broadcast_to((top + 1).astype(np.uint64), (len(key), k)), k)
    for j in range(1, k):
        picks[(picks[:, :j] == picks[:, j, None]).any(axis=1), j] = top[j]
    return picks
