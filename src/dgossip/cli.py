"""Command-line entry point.

Subcommands:

* run          execute one experiment; writes metrics.csv + summary.json
* sweep        re-run the base config across values of one dotted key; writes
               sweep.csv and, per cell, what ``run`` writes
* topo-report  psi, the admissible lookahead cap, beta* and psi_tilde(beta*) per topology
* stability    coupled twin runs differing in a single training sample; writes stability.csv

Every table goes through :func:`metrics.write_table`.  Before it runs,
a command exits 4 naming the first summary.json, sweep.csv or
stability.csv it would replace, unless --force is given; ``topo-report
--out`` replaces its file.

Exit codes: 0 success, 2 config/validation error, 3 numerical divergence,
4 I/O error.  The DGOSSIP_SEED environment variable overrides the config
seed (CLI --set overrides beat it).  The preset scripts under ``scripts/``
take the same ``--config``/``--set``, read the same DGOSSIP_SEED and exit
the same way through :func:`preset_arguments`, :func:`load_preset` and
:func:`exit_code`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .config import ConfigError, _as_kind, config_to_dict, load_config, validated
from .engine import DivergenceError, build_problem, run_experiment
from .metrics import write_metrics_csv, write_table
from .stability import stability_probe
from .topology import TopologyKind, TopologySpec, beta_theory_bound, build_mixing

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _workers(value: str) -> int:
    """``--workers`` as a process count: a positive integer, or 'auto' for the CPUs this process may use.

    More than one needs the ``"fork"`` start method, checked here before any output is written.
    """
    if value == "auto":
        n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    else:
        try:
            n = int(value)
        except ValueError:
            raise ConfigError(f"--workers must be a positive integer or 'auto', got {value!r}") from None
        if n < 1:
            raise ConfigError(f"--workers must be >= 1, got {n}")
    if n > 1:
        from .forked import can_fork

        if not can_fork():
            raise ConfigError(f"--workers {n} needs the 'fork' start method, which this platform lacks")
    return n


def _env_seed() -> int | None:
    raw = os.environ.get("DGOSSIP_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"DGOSSIP_SEED must be an integer, got {raw!r}") from None


def preset_arguments(parser: argparse.ArgumentParser, default: str | None = None) -> None:
    """Add ``--config`` (required without a ``default``) and the repeatable ``--set`` to ``parser``."""
    shown = f" (default {os.path.basename(default)})" if default else ""
    parser.add_argument("--config", required=default is None, default=default, help="experiment config file" + shown)
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", help="dotted-key config override (repeatable)"
    )


def load_preset(args, *overrides: str):
    """The unvalidated config of --config, layered file < DGOSSIP_SEED < --set < ``overrides``."""
    return load_config(args.config, [*args.set, *overrides], _env_seed())


def exit_code(prog: str, run) -> int:
    """``run()``'s code, or 2, 3 or 4 on a ConfigError, DivergenceError or OSError, named on stderr after ``prog``."""
    try:
        return run()
    except (ConfigError, DivergenceError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_DIVERGED if isinstance(exc, DivergenceError) else EXIT_IO


def _write_outputs(result, directory: str) -> None:
    """metrics.csv and summary.json, the latter echoing the config it ran."""
    write_metrics_csv(result.records, os.path.join(directory, "metrics.csv"))
    with open(os.path.join(directory, "summary.json"), "w", newline="\n") as fh:
        json.dump({"config": config_to_dict(result.config), **result.summary}, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _refuse_overwrite(force: bool, *paths: str) -> None:
    """Exit 4 naming the first of ``paths`` that exists, unless --force is given."""
    for path in paths:
        if os.path.exists(path) and not force:
            raise OSError(f"refusing to overwrite {path} (use --force)")


def cmd_run(args) -> int:
    workers = _workers(args.workers)
    cfg = validated(load_preset(args))
    problem = build_problem(cfg)
    _refuse_overwrite(args.force, os.path.join(args.out, "summary.json"))
    os.makedirs(args.out, exist_ok=True)
    result = run_experiment(cfg, workers=workers, problem=problem)
    _write_outputs(result, args.out)
    best = result.summary["best_acc"]
    print(
        f"{result.config.algorithm.value}: {result.config.rounds} rounds, "
        f"best_acc={best if best is not None else 'n/a'}, wrote {args.out}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("empty sweep")
    leaf = args.key.split(".")[-1]
    cell_values = {}  # each cell's directory name: its value
    for raw in values:
        name = f"{leaf}={raw}".replace(os.sep, "_")
        if name in cell_values:
            raise ConfigError(f"--values {cell_values[name]} and {raw} would both write {os.path.join(args.out, name)}")
        cell_values[name] = raw
    workers = _workers(args.workers)
    # every cell is built before any runs, so a bad value leaves no output
    configs = [(name, raw, validated(load_preset(args, f"{args.key}={raw}"))) for name, raw in cell_values.items()]
    cells = [(name, raw, cfg, build_problem(cfg)) for name, raw, cfg in configs]
    table_path = os.path.join(args.out, "sweep.csv")
    _refuse_overwrite(args.force, table_path, *(os.path.join(args.out, name, "summary.json") for name in cell_values))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name, raw, cfg, problem in cells:
        cell_dir = os.path.join(args.out, name)
        os.makedirs(cell_dir, exist_ok=True)
        try:
            result = run_experiment(cfg, workers=workers, problem=problem)
        except DivergenceError as exc:
            print(f"{args.key}={raw}: diverged ({exc})", file=sys.stderr)
            rows.append((raw, None, None, None, "diverged"))
            continue
        _write_outputs(result, cell_dir)
        best = result.summary["best_acc"]
        hit = None
        if cfg.targets and best is not None:  # a target is an accuracy, so no accuracy scores none
            hit = result.summary["rounds_to_targets"].get(repr(float(cfg.targets[0])))
            hit = f">{cfg.rounds}" if hit is None else hit
        rows.append((raw, best, hit, result.summary["final"]["delta_t"], "ok"))
    with open(table_path, "w", newline="\n") as fh:
        write_table(fh, ("value", "best_acc", "rounds_to_first_target", "final_delta_t", "status"), rows)
    print(f"swept {args.key} over {len(values)} values, wrote {table_path}")
    return EXIT_OK


def cmd_topo_report(args) -> int:
    kinds = [_as_kind(TopologyKind, k.strip()) for k in args.kinds.split(",") if k.strip()]
    try:
        sizes = [int(v) for v in args.m.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--m: {exc}") from None
    if not kinds or not sizes:
        raise ConfigError("--kinds and --m each need at least one value")
    if not 0 <= args.seed < 2**64:  # TopologySpec's bound, named by the flag
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    for m in sizes:  # psi is taken of the dense (m, m) matrix
        if m * m > 2**31:
            raise ConfigError(f"--m {m}: m * m = {m * m} exceeds 2**31")
    rows = []
    for kind in kinds:
        for m in sizes:
            spec = TopologySpec(kind=kind, m=m, k=min(args.k, m - 1), seed=args.seed)
            try:
                w = build_mixing(spec)
                psi, beta = w.psi, w.beta_star
            except (ValueError, RuntimeError) as exc:
                raise ConfigError(str(exc)) from None
            except MemoryError:
                raise ConfigError(f"--m {m}: no memory for the dense (m, m) matrix psi needs") from None
            rows.append((kind.value, m, psi, beta_theory_bound(psi), beta, w.psi_tilde(beta)))
    with open(args.out, "w", newline="\n") if args.out else nullcontext(sys.stdout) as fh:
        write_table(fh, ("kind", "m", "psi", "beta_theory_bound", "beta_star", "psi_tilde_at_beta_star"), rows)
    return EXIT_OK


def cmd_stability(args) -> int:
    cfg = validated(load_preset(args))
    problem = build_problem(cfg)
    path = os.path.join(args.out, "stability.csv")
    _refuse_overwrite(args.force, path)
    trace = stability_probe(cfg, problem, (args.client, args.sample), args.replace_label)
    os.makedirs(args.out, exist_ok=True)
    first_round = trace.first_draw[0] if trace.first_draw is not None else None
    rows = [
        (t, int(first_round is not None and t >= first_round), distance, gap)
        for t, (distance, gap) in enumerate(zip(trace.mean_distance, trace.heldout_gap))
    ]
    with open(path, "w", newline="\n") as fh:
        write_table(fh, ("t", "step_of_first_draw_flag", "mean_param_distance", "heldout_loss_gap"), rows)
    if trace.first_draw is None:
        print(f"swapped sample never drawn in {cfg.rounds} rounds; wrote {path}")
    else:
        print(
            f"first draw at round {trace.first_draw[0]} step {trace.first_draw[1]}; wrote {path}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgossip",
        description="Deterministic gossip-based federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, workers_help=None):
        preset_arguments(sp)
        sp.add_argument("--out", default="out", help="output directory")
        if workers_help:
            sp.add_argument(
                "--workers", default="1",
                help=f"positive integer or 'auto' (the CPUs this process may use); {workers_help}",
            )
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")

    procs = (
        "processes that train each round's clients in row ranges, with bitwise the same outputs;"
        " more than one forks worker processes, where the platform can fork"
    )
    sp = sub.add_parser("run", help="run one experiment")
    common(sp, procs)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="run the config across values of one key")
    common(sp, procs + "; the cells run one after another")
    sp.add_argument("--key", required=True, help="dotted config key to sweep")
    sp.add_argument("--values", required=True, help="comma-separated value list")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("topo-report", help="psi table for requested topologies")
    sp.add_argument("--kinds", required=True, help="comma-separated topology kinds")
    sp.add_argument("--m", required=True, help="comma-separated client counts")
    sp.add_argument("--k", type=int, default=10, help="random_k neighbor count")
    sp.add_argument("--seed", type=int, default=0, help="random_k seed")
    sp.add_argument("--out", default="", help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_topo_report)

    sp = sub.add_parser("stability", help="coupled twin runs with one swapped sample")
    common(sp)
    sp.add_argument("--client", type=int, required=True, help="client holding the swap")
    sp.add_argument("--sample", type=int, required=True, help="shard-local sample index")
    sp.add_argument(
        "--replace-label", type=int, default=None,
        help="label written at the swapped position (default: keep, i.e. identical twin)",
    )
    sp.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code("dgossip", lambda: args.func(args))


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
