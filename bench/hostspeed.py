"""Host speed, sampled by a fixed numpy burst while the benchmark measures.

The speed of the shared host this benchmark was built on drifts between
levels about 1.5x apart, each lasting from seconds to minutes. Identical
runs of a workload therefore spread by 20-40% in wall time, and runs three
times longer spread as much. So the benchmark samples the host's speed
while it measures, with a burst written here that does not use the
program. The burst has two halves: small numpy calls like those of local
training, and outer-product accumulation over a 100 x 1000 array like that
of gossip. Each half is timed against its own time on the faster level of
the reference host. The speed factor is the geometric mean of the two
ratios, since either ratio alone tracks one workload well and another
poorly.

The burst runs at the start and end of every operation, and between rounds
at most every PERIOD_S. That callback time is left out of every timing.
Each operation's run time is divided by the mean factor sampled during it.
Each round interval is divided by the mean of the AROUND samples on either
side of it. End-to-end times are thus in *reference seconds*: the time the
work would take on the reference host at its faster level. A faster
program lowers them; a slower host does not.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

SMALL_CALLS = 200
STREAM_ROWS = 10
REF_SMALL_S = 0.0008  # each half's time at the reference host's faster level
REF_STREAM_S = 0.0015
PERIOD_S = 0.1
AROUND = 3


class HostSpeed:
    """Speed factors (1 = the reference host's faster level) in sampling order."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(32, 20))
        self._w = rng.normal(size=(20, 32))
        self._rows = rng.normal(size=(100, 1000))
        self._acc = np.zeros_like(self._rows)
        self.factors: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(SMALL_CALLS):
            np.tanh(self._x @ self._w)
        mid = perf_counter()
        col = self._rows[:, 0]
        for j in range(STREAM_ROWS):
            self._acc += np.multiply.outer(col, self._rows[j])
        end = perf_counter()
        self._last = end
        self.factors.append(math.sqrt((mid - start) / REF_SMALL_S * (end - mid) / REF_STREAM_S))

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def around(self, k: int) -> float:
        """Mean factor of the AROUND samples before and after the first ``k``."""
        return statistics.fmean(self.factors[max(k - AROUND, 0) : k + AROUND])

    def mean_since(self, mark: int) -> float:
        """Mean factor of the samples taken since ``len(factors)`` was ``mark``."""
        return statistics.fmean(self.factors[mark:])
