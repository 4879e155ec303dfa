"""The keyed stream's draws as scalar Python, one value at a time.

``engine.client_batches`` draws every column of a block of minibatches at
once, ``engine.participants`` keys every client of a round, ``iter_rounds``
a block's random_k graph seeds and ``build_problem`` its three build seeds,
and ``topology`` every client's random_k partners, in numpy arrays.  This
is the same formula on Python ints, short enough to check by eye, that the
tests hold the vectorised draws to.  The domain tags are 0 for the clients'
minibatches, 1 for the coordinator, 2 for the topology and 3, 4 and 5 for
the data, partition and init seeds.
"""

import numpy as np

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment


def mix64(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea & Flood 2014)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def keyed(*words: int) -> int:
    """The key that takes in ``words`` from 0 as key = mix64((key + gamma) ^ word)."""
    key = 0
    for word in words:
        key = mix64((key + GAMMA & MASK) ^ word)
    return key


def stream_key(seed: int, client: int, t: int) -> int:
    return keyed(seed, 0, client, t)


def bounded(key: int, j: int, n: int, count: int) -> int:
    """Entry j of a row of ``count`` indices in [0, n) on stream key; a rejected entry retries value j + r*count."""
    r = 0
    while True:
        u = mix64(key + (j + r * count + 1) * GAMMA & MASK) >> 32
        if u * n & 0xFFFFFFFF >= (2**32 - n) % n:
            return u * n >> 32
        r += 1


def column(seed: int, client: int, t: int, n: int, count: int) -> list[int]:
    """The ``count`` indices in [0, n) that client draws in round t."""
    key = stream_key(seed, client, t)
    return [bounded(key, j, n, count) for j in range(count)]


def floyd(key: int, n: int, k: int) -> list[int]:
    """k distinct values of [0, n) by Floyd's sampler: step j draws t in [0, n - k + j], or takes n - k + j if t is taken."""
    picks = []
    for j in range(k):
        top = n - k + j
        t = bounded(key, j, top + 1, k)
        picks.append(top if t in picks else t)
    return picks


def partners(seed: int, m: int, k: int, attempt: int) -> np.ndarray:
    """(m, k) random_k partners like ``topology._partners``, each client i skipping itself.

    Client i's Floyd draws read the key (seed, 2, attempt, i), 2 being the topology domain.
    """
    rows = [[p + (p >= i) for p in floyd(keyed(seed, 2, attempt, i), m - 1, k)] for i in range(m)]
    return np.array(rows, dtype=np.int64)


def participants(seed: int, m: int, c: int, t: int) -> list[int]:
    """The c of m clients that train in central round t: the smallest keys (seed, 1, t, i), ascending.

    Of two equal keys the lower client index comes first.
    """
    by_key = sorted(range(m), key=lambda i: (keyed(seed, 1, t, i), i))
    return sorted(by_key[:c])


def graph_seed(seed: int, t: int) -> int:
    """The spec seed of random_k round t's graph, from the topology's seed."""
    return keyed(seed, 2, t)


def build_seeds(seed: int) -> tuple[int, int, int]:
    """The (data, partition, init) seeds ``build_problem`` derives from the run's seed."""
    return keyed(seed, 3), keyed(seed, 4), keyed(seed, 5)


def reference_draws(seed, clients, t, sizes, k_steps, batch_size) -> np.ndarray:
    """(K, m, B) indices like ``client_batches``, one :func:`column` per client; t may differ by column."""
    cols = [
        column(seed, int(i), int(r), int(n), k_steps * batch_size)
        for i, r, n in zip(clients, np.broadcast_to(t, len(clients)), sizes)
    ]
    return np.array(cols, dtype=np.int64).reshape(len(cols), k_steps, batch_size).transpose(1, 0, 2)
