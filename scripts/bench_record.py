#!/usr/bin/env python3
"""Record a change's benchmark against its parent commit in BENCH_<n>.json.

    python3 scripts/bench_record.py --number 22 --parent HEAD~1

For every workload of ``BENCHMARK.json`` it runs ``bench/run.py`` untraced
at seed 1, for the benchmark's ``run_seconds``, on the parent and on this
checkout in 10 alternating pairs: the parent runs first in even pairs and
second in odd ones.  The parent is its committed
files, exported with ``git archive`` into a temporary directory (an
archive leaves no state in the repository's ``.git``).  The record holds
each side's ``env`` line and, per workload and end-to-end metric, each
side's runs, median and quartiles, and the number of pairs the change won
(ties count for neither side).  Beside each scaled metric it keeps each
side's median of the ``unscaled`` value that ``bench/run.py`` prints, and
per workload each side's median of the runs' host-speed factor medians,
so that a scaled reading can be set against its unscaled twin.  It is
written to ``BENCH_<n>.json`` at the repository root.  Every run is
printed as it finishes.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1
HOST_SPEED = "host speed factor: median "


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD~1", help="the parent commit (default HEAD~1)")
    return parser.parse_args(argv)


def parse_output(text: str) -> tuple[dict, dict]:
    """(env, result) from ``bench/run.py``'s stdout: its ``env`` line and its last line.

    The result also carries ``unscaled``, each ``unscaled <metric> <value>
    <unit>`` line's value by metric name, and ``host_speed_factor``, the
    median of the ``host speed factor: median <f>, ...`` line (None
    without one).
    """
    lines = text.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["unscaled"] = {
        words[1]: float(words[2]) for words in (line.split() for line in lines) if words[:1] == ["unscaled"]
    }
    factors = [line for line in lines if line.startswith(HOST_SPEED)]
    result["host_speed_factor"] = float(factors[0][len(HOST_SPEED):].split(",")[0]) if factors else None
    return env, result


def spread(values: list[float]) -> dict:
    """Median and quartiles of the runs, and the runs themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """One workload's record from its (parent, change) result pairs.

    Per end-to-end metric: each side's spread, the change's wins over the
    parent in the same pair, and the change's median relative to the
    parent's (``change_vs_parent``, > 1 when the change reads higher).
    ``worse_than_bound`` is True when the change's median is worse than
    the parent's by more than the metric's bound.  ``unscaled`` holds each
    side's median of the metric's unscaled values and their ratio, where
    every run printed one, and ``host_speed_factor`` each side's median of
    the runs' factors, where every run printed one.
    """
    sides = ("parent", "change")
    record = {
        "pairs": len(pairs),
        "attempted": {side: sum(p[i]["attempted"] for p in pairs) for i, side in enumerate(sides)},
        "failed": {side: sum(p[i]["failed"] for p in pairs) for i, side in enumerate(sides)},
        "correct": {side: all(p[i]["correct"] for p in pairs) for i, side in enumerate(sides)},
        "metrics": {},
    }
    factors = [[p[i]["host_speed_factor"] for p in pairs] for i in range(2)]
    if None not in factors[0] + factors[1]:
        record["host_speed_factor"] = {side: statistics.median(f) for side, f in zip(sides, factors)}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        values = [[p[i]["metrics"][name]["value"] for p in pairs] for i in range(2)]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(*values))
        parent, change = spread(values[0]), spread(values[1])
        ratio = change["median"] / parent["median"]
        worse = (1.0 - ratio) if higher else (ratio - 1.0)
        record["metrics"][name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_won": wins,
            "change_vs_parent": ratio,
            "worse_than_bound": worse > spec["bound"],
        }
        unscaled = [[p[i]["unscaled"].get(name) for p in pairs] for i in range(2)]
        if None not in unscaled[0] + unscaled[1]:
            medians = {side: statistics.median(u) for side, u in zip(sides, unscaled)}
            record["metrics"][name]["unscaled"] = {
                **medians, "change_vs_parent": medians["change"] / medians["parent"]
            }
    return record


def run_bench(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return parse_output(proc.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev, change_rev = git("rev-parse", args.parent), git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out = {
        "settings": {"pairs": PAIRS, "seconds": bench["run_seconds"], "seed": SEED, "trace": 0},
        "parent": {"rev": parent_rev, "env": {}},
        "change": {"rev": change_rev + ("+uncommitted" if dirty else ""), "env": {}},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(parent_dir, filter="data")
        checkouts = {"parent": parent_dir, "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    env, got[side] = run_bench(checkouts[side], workload, bench["run_seconds"])
                    out[side]["env"].setdefault(workload, env)
                    values = {k: v["value"] for k, v in got[side]["metrics"].items()}
                    unscaled, factor = got[side]["unscaled"], got[side]["host_speed_factor"]
                    print(f"{workload} pair {i} {side}: {json.dumps(values)} unscaled {json.dumps(unscaled)}"
                          f" host speed factor {factor}", flush=True)
                pairs.append((got["parent"], got["change"]))
            out["workloads"][workload] = summarise(pairs, bench["end_to_end"])
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
