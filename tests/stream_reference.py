"""The engine's minibatch stream as scalar Python, one value at a time.

``engine.client_batches`` draws every column of a block at once in numpy
arrays.  This is the same formula on Python ints, short enough to check
by eye, that the tests hold the vectorised draw to.
"""

import numpy as np

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment


def mix64(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea & Flood 2014)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def stream_key(seed: int, client: int, t: int) -> int:
    key = 0
    for word in (seed, 0, client, t):
        key = mix64((key + GAMMA & MASK) ^ word)
    return key


def column(seed: int, client: int, t: int, n: int, count: int) -> list[int]:
    """The ``count`` indices in [0, n) that client draws in round t; a rejected entry j retries value j + r*count."""
    key = stream_key(seed, client, t)
    out = []
    for j in range(count):
        r = 0
        while True:
            u = mix64(key + (j + r * count + 1) * GAMMA & MASK) >> 32
            if u * n & 0xFFFFFFFF >= (2**32 - n) % n:
                break
            r += 1
        out.append(u * n >> 32)
    return out


def reference_draws(seed, clients, t, sizes, k_steps, batch_size) -> np.ndarray:
    """(K, m, B) indices like ``client_batches``, one :func:`column` per client; t may differ by column."""
    cols = [
        column(seed, int(i), int(r), int(n), k_steps * batch_size)
        for i, r, n in zip(clients, np.broadcast_to(t, len(clients)), sizes)
    ]
    return np.array(cols, dtype=np.int64).reshape(len(cols), k_steps, batch_size).transpose(1, 0, 2)
