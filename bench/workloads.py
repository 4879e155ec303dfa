"""Workload definitions and the checks every run of them must pass.

A workload is a list of experiment configs built from a preset and the
workload seed.  One *cycle* runs each config once through
``engine.run_experiment`` on a Problem built beforehand; a benchmark run
repeats whole cycles.  Each such experiment run is one operation, counted
as failed when it raises ``DivergenceError``/``ConfigError`` or fails a
check:

* every decentralized round preserves the client mean (to 1e-12);
* every central round sets all clients to the participants' mean, bitwise;
* every lookahead run over a ring starts round t+1 from
  ``((1+beta) W - beta I) z_t`` (to 1e-12), with W the ring's 1/3 band
  built here;
* the final averaged model's test accuracy, recomputed by the forward pass
  in ``kernels.py``, equals the reported ``test_acc``, and the best
  accuracy is at least twice chance;
* ``final_x`` is bitwise the same in every cycle of a run and, for a
  workload run with more than one worker, in a workers=1 run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dgossip import config, engine
from dgossip.engine import CENTRAL_KINDS, LOOKAHEAD_KINDS, ConfigError, DivergenceError
from dgossip.topology import TopologyKind

from kernels import forward_logits, ring_band

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

DESK_ALGOS = (
    "dpsgd", "dfedavg", "dfedavgm", "dfedsam",
    "oled_sgd", "oled_sam", "fedavg_central", "fedsam_central",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: Path
    overrides: tuple[tuple[str, ...], ...]  # one override list per operation
    workers: int

    def configs(self, seed: int) -> list:
        """Load every operation's config through the public loader."""
        return [
            engine.validated(config.load_config(str(self.preset), list(o), env_seed=seed))
            for o in self.overrides
        ]


# desk_benchmark.py's table at one seed: central kinds sample a quarter of
# the clients.  The fullscale horizon is cut from 500 to 20 rounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_algorithms", ROOT / "configs" / "logistic_dirichlet.toml",
            tuple((f"algorithm={a}", "participation=0.25") for a in DESK_ALGOS), 1,
        ),
        Workload(
            "fullscale_random_sam", ROOT / "configs" / "large_random_topology.toml",
            (("rounds=20",),), min(2, nproc()),
        ),
        Workload("gossip_ring100", HERE / "gossip_ring100.toml", ((),), 1),
    )
}


def client_steps(cfg) -> int:
    """Local optimizer steps one run of a validated config completes."""
    trained = math.ceil(cfg.participation * cfg.m) if cfg.algorithm in CENTRAL_KINDS else cfg.m
    return cfg.rounds * trained * cfg.local_steps


class RoundWatch:
    """``on_round`` callback: round-interval clock, per-round checks and
    host-speed samples.

    Intervals run from the end of one callback to the start of the next, so
    the time spent in the callback is left out of them and is summed in
    ``check_s`` for the caller to subtract from the run's wall time.
    """

    def __init__(self, cfg, speed):
        self.cfg = cfg
        self.speed = speed
        self.intervals: list[tuple[float, int]] = []  # (seconds, host-speed samples so far)
        self.check_s = 0.0
        self.fails: list[str] = []
        self._last_end: float | None = None
        self._prev_z = None
        self._lookahead = None
        if cfg.algorithm in LOOKAHEAD_KINDS and cfg.topology.kind is TopologyKind.RING:
            self._lookahead = (1.0 + cfg.beta) * ring_band(cfg.m) - cfg.beta * np.eye(cfg.m)

    def __call__(self, t, info):
        start = perf_counter()
        if self._last_end is not None:
            self.intervals.append((start - self._last_end, len(self.speed.factors)))
        if self.cfg.algorithm in CENTRAL_KINDS:
            if not np.array_equal(info.x_mixed, np.broadcast_to(info.z.mean(axis=0), info.x_mixed.shape)):
                self.fails.append(f"round {t}: clients differ from the participants' mean")
        else:
            gap = np.abs(info.x_mixed.mean(axis=0) - info.z.mean(axis=0)).max()
            if gap > 1e-12:
                self.fails.append(f"round {t}: client mean moved by {gap:.3g}")
        if self._lookahead is not None and self._prev_z is not None:
            gap = np.abs(info.ole_points - self._lookahead @ self._prev_z).max()
            if gap > 1e-12:
                self.fails.append(f"round {t}: lookahead start off the modified matrix by {gap:.3g}")
        self._prev_z = info.z
        self.speed.sample_if_due()
        end = perf_counter()
        self.check_s += end - start
        self._last_end = end


@dataclass
class OpResult:
    label: str
    cfg_index: int
    wall_s: float  # run_experiment time, checks excluded
    steps: int
    factor: float = 1.0  # mean host-speed factor while it ran
    intervals: list[tuple[float, float]] = field(default_factory=list)  # (seconds, factor)
    fails: list[str] = field(default_factory=list)
    error: str | None = None


def run_op(cfg, cfg_index: int, problem, workers: int, finals: dict, speed) -> OpResult:
    """One experiment run with its per-round and final-output checks.

    ``finals`` keeps the first ``final_x`` of each config; later runs of the
    same config are compared with it and not kept, so memory does not grow
    with the number of runs.
    """
    label = cfg.algorithm.value
    watch = RoundWatch(cfg, speed)
    mark = len(speed.factors)
    speed.sample()
    start = perf_counter()
    try:
        res = engine.run_experiment(cfg, workers=workers, problem=problem, on_round=watch)
    except (DivergenceError, ConfigError) as exc:
        return OpResult(label, cfg_index, perf_counter() - start, 0, error=f"{type(exc).__name__}: {exc}")
    wall = perf_counter() - start - watch.check_s
    speed.sample()
    intervals = [(dt, speed.around(k)) for dt, k in watch.intervals]
    op = OpResult(label, cfg_index, wall, client_steps(cfg), speed.mean_since(mark),
                  intervals, watch.fails)
    if not np.array_equal(res.final_x, finals.setdefault(cfg_index, res.final_x)):
        op.fails.append("final_x differs from an earlier run of the same config")
    if problem.test is not None:
        xbar = res.final_x.mean(axis=0)
        acc = float(np.mean(np.argmax(forward_logits(problem.spec, xbar, problem.test.features), axis=1)
                            == problem.test.labels))
        if acc != res.summary["final"]["test_acc"]:
            op.fails.append(f"final test_acc {res.summary['final']['test_acc']!r}, recomputed {acc!r}")
        chance = 1.0 / problem.spec.num_classes
        if not res.summary["best_acc"] >= 2.0 * chance:
            op.fails.append(f"best_acc {res.summary['best_acc']!r} not above twice chance {chance!r}")
    return op


def run_cycles(cfgs, problem, workers: int, finals: dict, speed, *, seconds: float | None = None,
               cycles: int | None = None) -> tuple[list[OpResult], int]:
    """Whole cycles until ``seconds`` have passed (at least one), or exactly ``cycles``."""
    ops: list[OpResult] = []
    done = 0
    deadline = perf_counter() + (seconds or 0)
    while True:
        for i, cfg in enumerate(cfgs):
            ops.append(run_op(cfg, i, problem, workers, finals, speed))
        done += 1
        if (cycles is not None and done >= cycles) or (cycles is None and perf_counter() >= deadline):
            return ops, done


def check_worker_invariance(ops: list[OpResult], cfgs, problem, workers: int, finals: dict) -> None:
    """A run with more than one worker must match a workers=1 run bitwise."""
    if workers == 1:
        return
    for i, ref in finals.items():
        single = engine.run_experiment(cfgs[i], workers=1, problem=problem).final_x
        if not np.array_equal(single, ref):
            for op in ops:
                if op.cfg_index == i:
                    op.fails.append("final_x differs from a workers=1 run")
