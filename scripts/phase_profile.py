#!/usr/bin/env python3
"""Each engine seam's share of a run's wall time, its time per call and its calls per round.

    python3 scripts/phase_profile.py --config configs/logistic_dirichlet.toml \\
        [--set KEY=VALUE ...] [--workers N] [--runs R]

Like every preset command it reads DGOSSIP_SEED beneath ``--set`` and
exits 0/2/3/4 the way ``dgossip`` does.  It loads the preset, builds the
problem once, makes one warm-up run and then R timed runs of
``engine.run_experiment`` (3 by default).  During the timed runs each seam
in ``SEAMS``, a (module, name) pair that the module looks up on every call
(``engine``'s round seams, and ``localopt.batch_grads``, the gradient
kernel of every local step), is replaced by a wrapper that counts its
calls and adds up their wall time; every name is restored in a
``finally``, so the wrappers never outlive the profile.  The table gives
each seam's share of the timed runs' wall time, its µs per call and its
calls per round.  Seams nest: ``full_objective`` and ``eval_model`` run
inside ``_evaluate``, and ``batch_grads`` inside ``local_train``, so the
shares do not add up to 100%.  One call of those three evaluation seams
covers a group of recorded rounds (``models.evaluation_group``), so their
µs per call grows with the group; the table also gives their µs per
recorded round, which compares across group sizes.

With more than one worker, the workers' calls stay in their own
processes, so the profile times the caller's calls only: its own row
range's ``local_train`` and ``batch_grads``, and everything else a round
runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

from dgossip import engine, localopt
from dgossip.cli import exit_code, load_preset, preset_arguments

SEAMS = (
    *((engine, name) for name in (
        "local_train", "gossip_mix", "build_mixing", "ole_init", "client_batches",
        "_check_finite", "_queue", "_evaluate", "full_objective", "eval_model",
    )),
    (localopt, "batch_grads"),
)
EVALUATION = ("_evaluate", "full_objective", "eval_model")  # one call per group of recorded rounds


def profile(cfg, problem, workers: int = 1, runs: int = 1):
    """({seam name: [calls, seconds]}, wall seconds, the last ExperimentResult) of ``runs`` runs with every seam wrapped."""
    stats = {name: [0, 0.0] for _, name in SEAMS}
    originals = {(module, name): getattr(module, name) for module, name in SEAMS}

    def timed(fn, tally):
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += perf_counter() - start
        return call

    wall, result = 0.0, None
    try:
        for (module, name), fn in originals.items():
            setattr(module, name, timed(fn, stats[name]))
        for _ in range(runs):
            start = perf_counter()
            result = engine.run_experiment(cfg, workers=workers, problem=problem)
            wall += perf_counter() - start
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    return stats, wall, result


def table(stats, wall: float, rounds: int, records: int) -> list[tuple]:
    """Per seam of ``stats``: (name, % of ``wall``, µs per call, calls per round, µs per recorded round or None).

    The last is given for the ``EVALUATION`` seams only: their seconds over
    the ``records`` recorded rounds of the runs.
    """
    return [
        (
            name, 100 * seconds / wall, 1e6 * seconds / calls if calls else 0.0, calls / rounds,
            1e6 * seconds / records if name in EVALUATION else None,
        )
        for name, (calls, seconds) in stats.items()
    ]


def print_profile(args) -> int:
    cfg = engine.validated(load_preset(args))
    if not (args.runs > 0 and cfg.rounds > 0):  # the table is per round of the timed runs
        raise engine.ConfigError(f"--runs = {args.runs}, rounds = {cfg.rounds}: need one each")
    problem = engine.build_problem(cfg)
    engine.run_experiment(cfg, workers=args.workers, problem=problem)  # warm-up
    stats, wall, result = profile(cfg, problem, args.workers, args.runs)
    rounds = args.runs * cfg.rounds
    print(f"{' '.join([args.config, *args.set])}: {cfg.algorithm.value}, m={cfg.m}, seed={cfg.seed}, "
          f"workers={args.workers}, {args.runs} runs of {cfg.rounds} rounds, {1e3 * wall / rounds:.3f} ms per round")
    if args.workers > 1:
        print("workers > 1: the caller's calls only; each worker's local_train stays in its process")
    print(f"{'seam':<16} {'share':>7} {'us/call':>10} {'calls/round':>12} {'us/record':>10}")
    for name, share, per_call, per_round, per_record in table(stats, wall, rounds, args.runs * len(result.records)):
        last = "" if per_record is None else f" {per_record:>10.1f}"
        print(f"{name:<16} {share:>6.1f}% {per_call:>10.1f} {per_round:>12.3f}{last}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog=Path(__file__).name, description=__doc__.splitlines()[0])
    preset_arguments(parser)
    parser.add_argument("--workers", type=int, default=1, help="worker processes of each run (default 1)")
    parser.add_argument("--runs", type=int, default=3, help="timed runs after the warm-up (default 3)")
    args = parser.parse_args(argv)
    return exit_code(parser.prog, lambda: print_profile(args))


if __name__ == "__main__":
    sys.exit(main())
