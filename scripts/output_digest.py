#!/usr/bin/env python3
"""One sha256 over every output of the benchmark's workloads, so that two trees can be shown to give the same bits.

    python3 scripts/output_digest.py [--seeds 1 2] [--workload NAME ...]

For each seed and each workload of ``bench/workloads.py`` (all of them by
default), it loads the workload's configs, builds its problem from the
first one as ``bench/run.py`` does, and runs every config through
``engine.run_experiment`` at one worker and at the workload's own worker
count.  Each run adds the repr of its records and the bytes of its
``final_x`` to one sha256, whose hex digest it prints.  It reads the
``src`` and ``bench`` of the tree it lies in, and writes nothing, so the
same script copied into two checkouts compares them: equal digests mean
that every record and final model is bitwise the same.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="workload seeds (default 1 2)")
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads), help="a workload to run (default: every workload)"
    )
    return parser.parse_args(argv)


def digest(workloads, seeds) -> str:
    """The hex sha256 over the records and final_x of every run of ``workloads`` at ``seeds``."""
    from dgossip import engine

    total = hashlib.sha256()
    for seed in seeds:
        for workload in workloads:
            cfgs = workload.configs(seed)
            problem = engine.build_problem(cfgs[0])
            for cfg in cfgs:
                for workers in sorted({1, workload.workers}):
                    result = engine.run_experiment(cfg, workers=workers, problem=problem)
                    total.update(repr(result.records).encode())
                    total.update(result.final_x.tobytes())
    return total.hexdigest()


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    print(digest([WORKLOADS[name] for name in args.workload or WORKLOADS], args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
