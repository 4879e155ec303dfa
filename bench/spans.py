"""Call tracing from outside the program, for the traced benchmark run.

``traced(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which ``dgossip.engine`` (and the gradient calls
of ``dgossip.localopt``) reach each layer, and puts them back afterwards.
Nothing inside ``src/`` is edited, and untraced runs execute the original
functions.

Every wrapped call adds its duration to its name's totals.  Its self time
is the duration minus the time of wrapped calls it made on the same thread.
``local_train`` also records its start and end under the sequence number
of the ``run_round`` call that dispatched it, so the local phase of a round
is measured as the span from its first client's start to its last client's
end, whichever worker thread ran them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

from dgossip import config, engine, localopt

# (module, attribute, span name): the engine's own references to each layer
TARGETS = (
    (engine, "run_round", "engine.round"),
    (engine, "local_train", "localopt.local_train"),
    (engine, "gossip_mix", "engine.gossip_mix"),
    (engine, "build_mixing", "topology.build_mixing"),
    (engine, "full_objective", "models.full_objective"),
    (engine, "eval_model", "metrics.eval_model"),
    (engine, "generate_synthetic", "data.generate"),
    (engine, "generate_synthetic_holdout", "data.generate"),
    (engine, "partition_iid", "data.partition"),
    (engine, "partition_dirichlet", "data.partition"),
    (engine, "partition_pathological", "data.partition"),
    (localopt, "loss_and_grad", "models.loss_and_grad"),
    (config, "load_config", "config.load"),
)


class Tracer:
    """Per-name call counts, total and self seconds, and local-phase spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.phases: dict[int, list[float]] = {}  # round seq -> [first start, last end]
        self._round_seq = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        def traced_call(*args, **kwargs):
            if name == "engine.round":
                self._round_seq += 1  # rounds are dispatched from one thread
            seq = self._round_seq
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child_s = stack.pop()
                if stack:
                    stack[-1] += end - start
                with self._lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.total_s[name] = self.total_s.get(name, 0.0) + end - start
                    self.self_s[name] = self.self_s.get(name, 0.0) + end - start - child_s
                    if name == "localopt.local_train":
                        span = self.phases.setdefault(seq, [start, end])
                        span[0] = min(span[0], start)
                        span[1] = max(span[1], end)

        return traced_call

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def phase_wall_s(self) -> float:
        return sum(end - start for start, end in self.phases.values())


@contextmanager
def traced(tracer: Tracer):
    """Route the engine's calls through ``tracer`` inside the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
    try:
        for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
