#!/usr/bin/env python3
"""dgossip benchmark: one workload, end-to-end or traced per-module metrics.

    python3 bench/run.py --workload desk_algorithms --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout; nothing is installed or written.  The workload seed
replaces the preset's seed, so it fixes data, partition, initial model,
client streams and random topologies.

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs whole cycles of it for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs whole cycles untraced for half of
``--seconds``, then as many cycles again with the engine's entry points
wrapped (see ``spans.py``), then the isolated kernels (see
``kernels.py``), and reports the per-module metrics.
Both modes check every output.  A report goes to stdout; its last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 whenever a result is printed, 2 when the
checkout lacks the program or its presets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_S = 1.0  # set-up is repeated for at least this long ...
SETUP_MIN_REPEATS = 15  # ... and at least this often; setup_s is the median
TRACED_SETUPS = 5
WORKLOAD_NAMES = ("desk_algorithms", "fullscale_random_sam", "gossip_ring100")
PRESET_FILES = {
    "quadratic": "quadratic_ring.toml",
    "logistic": "logistic_dirichlet.toml",
    "mlp": "large_random_topology.toml",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(workload, seed: int) -> dict:
    import numpy as np
    from workloads import nproc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "workers": workload.workers,
        "workload": workload.name,
        "seed": seed,
        "machine": platform.machine(),
    }


def timed_setups(workload, seed: int, speed, *, min_s: float, min_repeats: int):
    """Repeat config load + build_problem after one warm-up set-up.

    Returns (configs, problem, [(seconds, host-speed factor)]), each set-up
    paired with the mean factor sampled around it.
    """
    from dgossip import engine

    cfgs = workload.configs(seed)
    problem = engine.build_problem(cfgs[0])
    times = []
    speed.sample()
    start_all = perf_counter()
    while len(times) < min_repeats or perf_counter() - start_all < min_s:
        start = perf_counter()
        cfgs = workload.configs(seed)
        problem = engine.build_problem(cfgs[0])
        times.append((perf_counter() - start, len(speed.factors)))
        speed.sample_if_due()
    speed.sample()
    return cfgs, problem, [(dt, speed.around(k)) for dt, k in times]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(ops, setup_times, *, scaled: bool = True) -> dict:
    """The end-to-end metrics, in reference seconds unless ``scaled`` is off."""
    done = [op for op in ops if op.error is None]

    def factor(f):
        return f if scaled else 1.0

    intervals = [dt / factor(f) for op in done for dt, f in op.intervals]
    steps = sum(op.steps for op in done)
    wall = sum(op.wall_s / factor(op.factor) for op in done)
    return {
        "setup_s": metric(statistics.median(t / factor(f) for t, f in setup_times), "s"),
        "client_steps_per_s": metric(steps / wall, "steps/s"),
        "round_ms_p50": metric(1e3 * statistics.median(intervals), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_ops, untraced_ops, cycles, setups, cfg, p, workers, kernels) -> dict:
    calls = tracer.count
    total = tracer.total_s
    rounds = calls("engine.round")
    phase_s = tracer.phase_wall_s()
    train_s = total.get("localopt.local_train", 0.0)

    def per_call(name, scale):
        return scale * total.get(name, 0.0) / max(calls(name), 1)

    out = {
        "models.loss_and_grad.calls": metric(calls("models.loss_and_grad") / cycles, "count"),
        "models.loss_and_grad.us_per_call": metric(
            1e6 * tracer.self_s.get("models.loss_and_grad", 0.0) / max(calls("models.loss_and_grad"), 1),
            "us"),
        "localopt.local_train.calls": metric(calls("localopt.local_train") / cycles, "count"),
        "localopt.local_train.ms_per_client_round": metric(per_call("localopt.local_train", 1e3), "ms"),
        "topology.build_mixing.calls": metric(calls("topology.build_mixing") / cycles, "count"),
        "topology.build_mixing.ms_per_call": metric(per_call("topology.build_mixing", 1e3), "ms"),
        "engine.gossip_mix.calls": metric(calls("engine.gossip_mix") / cycles, "count"),
        "engine.gossip_mix.ms_per_call": metric(per_call("engine.gossip_mix", 1e3), "ms"),
        "engine.gossip_mix.flops": metric(2 * cfg.m * cfg.m * p, "flop"),
        "engine.local_phase.ms": metric(1e3 * phase_s / rounds, "ms"),
        "engine.local_phase.parallel_efficiency": metric(train_s / (phase_s * workers), "ratio"),
        "engine.round.self_ms": metric(
            1e3 * (total["engine.round"] - phase_s - total.get("engine.gossip_mix", 0.0)) / rounds, "ms"),
        "models.full_objective.ms_per_call": metric(per_call("models.full_objective", 1e3), "ms"),
        "metrics.eval_model.ms_per_call": metric(per_call("metrics.eval_model", 1e3), "ms"),
        "data.generate.ms": metric(1e3 * total.get("data.generate", 0.0) / setups, "ms"),
        "data.partition.ms": metric(1e3 * total.get("data.partition", 0.0) / setups, "ms"),
        "config.load.ms": metric(1e3 * total.get("config.load", 0.0) / setups, "ms"),
        "trace.overhead_pct": metric(
            100.0 * (sum(op.wall_s / op.factor for op in traced_ops)
                     / sum(op.wall_s / op.factor for op in untraced_ops) - 1.0),
            "%"),
    }
    units = {"us_per_call": "us", "ms_per_client_round": "ms", "ms_per_call": "ms"}
    for name, value in kernels.items():
        out[name] = metric(value, units[name.rsplit(".", 1)[1]])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    needed = [src / "dgossip" / "__init__.py", *(ROOT / "configs" / f for f in PRESET_FILES.values())]
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"bench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    # one BLAS thread: each workload runs in one process with at most
    # nproc busy threads, and its outputs may not depend on BLAS threading
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    from dgossip import config, engine
    from kernels import run_kernels
    from hostspeed import HostSpeed
    from spans import Tracer, traced
    from workloads import WORKLOADS, check_worker_invariance, run_cycles

    workload = WORKLOADS[args.workload]
    env = environment(workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    speed = HostSpeed()
    cfgs, problem, setup_times = timed_setups(
        workload, args.seed, speed, min_s=SETUP_MIN_S if not args.trace else 0.0,
        min_repeats=SETUP_MIN_REPEATS if not args.trace else 1,
    )
    # a traced run splits its time between the untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    finals: dict = {}
    ops, cycles = run_cycles(cfgs, problem, workload.workers, finals, speed, seconds=seconds)
    untraced = list(ops)
    kernel_fails: list[str] = []
    if args.trace:
        tracer = Tracer()
        with traced(tracer):
            for _ in range(TRACED_SETUPS):
                engine.build_problem(workload.configs(args.seed)[0])
            traced_ops, _ = run_cycles(cfgs, problem, workload.workers, finals, speed, cycles=cycles)
        ops += traced_ops
        presets = {
            kind: engine.build_problem(
                config.load_config(str(ROOT / "configs" / name), env_seed=args.seed))
            for kind, name in PRESET_FILES.items()
        }
        # dpsgd forces K=1, so local training is timed at the workload's largest K
        kernel_cfg = max(cfgs, key=lambda c: c.local_steps)
        kernels, kernel_fails = run_kernels(presets, problem, kernel_cfg)
        metrics = per_layer(tracer, traced_ops, untraced, cycles, TRACED_SETUPS, cfgs[0],
                            len(problem.x0), workload.workers, kernels)
    else:
        metrics = end_to_end(ops, setup_times)
        unscaled = end_to_end(ops, setup_times, scaled=False)
    check_worker_invariance(ops, cfgs, problem, workload.workers, finals)

    for op in ops:
        status = op.error or ("; ".join(op.fails[:3]) if op.fails else "ok")
        print(f"op {op.label:<16} wall {op.wall_s:8.3f}s steps {op.steps:>7} {status}")
    for msg in kernel_fails:
        print(f"kernel check failed: {msg}")
    for name, val in metrics.items():
        print(f"{name:<48} {val['value']:>14.6g} {val['unit']}")
    if not args.trace:
        for name, val in unscaled.items():
            print(f"{'unscaled ' + name:<48} {val['value']:>14.6g} {val['unit']}")
    q = statistics.quantiles(speed.factors, n=4)
    print(f"host speed factor: median {statistics.median(speed.factors):.3f}, "
          f"quartiles {q[0]:.3f}-{q[2]:.3f}, {len(speed.factors)} samples")
    failed = sum(1 for op in ops if op.error or op.fails)
    correct = not kernel_fails and not any(op.fails for op in ops)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
