"""Command-line entry point.

Subcommands:

* run          execute one experiment; writes metrics.csv + summary.json
* sweep        re-run the base config across values of one dotted key
* topo-report  psi, the admissible lookahead cap, beta* and psi_tilde(beta*) per topology
* stability    coupled twin runs differing in a single training sample

Exit codes: 0 success, 2 config/validation error, 3 numerical divergence,
4 I/O error.  The DGOSSIP_SEED environment variable overrides the config
seed (CLI --set overrides beat it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, _as_kind, config_to_dict, load_config, validated
from .engine import DivergenceError, build_problem, run_experiment
from .metrics import write_metrics_csv
from .stability import stability_probe
from .topology import TopologyKind, TopologySpec, beta_theory_bound, build_mixing

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _err(msg: str) -> None:
    print(f"dgossip: error: {msg}", file=sys.stderr)


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


def _load(args, *overrides: str):
    """Load and validate --config under DGOSSIP_SEED, --set, overrides."""
    return validated(load_config(args.config, [*args.set, *overrides], _env_seed()))


def _write_outputs(result, directory: str) -> None:
    """metrics.csv and summary.json, the latter echoing the config it ran."""
    write_metrics_csv(result.records, os.path.join(directory, "metrics.csv"))
    with open(os.path.join(directory, "summary.json"), "w", newline="\n") as fh:
        json.dump({"config": config_to_dict(result.config), **result.summary}, fh, indent=2)
        fh.write("\n")


def _refuse_overwrite(path: str, force: bool) -> None:
    """Exit 4 naming ``path`` if it exists and --force is not given."""
    if os.path.exists(path) and not force:
        raise OSError(f"refusing to overwrite {path} (use --force)")


def _fmt_round(hit, rounds: int) -> str:
    return str(hit) if hit is not None else f">{rounds}"


def cmd_run(args) -> int:
    workers = _workers(args.workers)
    cfg = _load(args)
    problem = build_problem(cfg)
    os.makedirs(args.out, exist_ok=True)
    _refuse_overwrite(os.path.join(args.out, "summary.json"), args.force)
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
    workers = _workers(args.workers)
    # every cell is built before any runs, so a bad value leaves no output
    configs = [(raw, _load(args, f"{args.key}={raw}")) for raw in values]
    cells = [(raw, cfg, build_problem(cfg)) for raw, cfg in configs]
    table_path = os.path.join(args.out, "sweep.csv")
    _refuse_overwrite(table_path, args.force)
    os.makedirs(args.out, exist_ok=True)
    leaf = args.key.split(".")[-1]
    rows = []
    for raw, cfg, problem in cells:
        cell_dir = os.path.join(args.out, f"{leaf}={raw}".replace(os.sep, "_"))
        os.makedirs(cell_dir, exist_ok=True)
        try:
            result = run_experiment(cfg, workers=workers, problem=problem)
        except DivergenceError as exc:
            print(f"{args.key}={raw}: diverged ({exc})", file=sys.stderr)
            rows.append((raw, "", "", "", "diverged"))
            continue
        _write_outputs(result, cell_dir)
        first_target = repr(float(cfg.targets[0])) if cfg.targets else None
        hit = result.summary["rounds_to_targets"].get(first_target) if first_target else None
        best = result.summary["best_acc"]
        rows.append(
            (
                raw,
                "" if best is None else repr(best),
                _fmt_round(hit, cfg.rounds),
                repr(result.summary["final"]["delta_t"]),
                "ok",
            )
        )
    with open(table_path, "w", newline="\n") as fh:
        fh.write("value,best_acc,rounds_to_first_target,final_delta_t,status\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
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
    lines = ["kind,m,psi,beta_theory_bound,beta_star,psi_tilde_at_beta_star"]
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
            lines.append(f"{kind.value},{m},{psi!r},{beta_theory_bound(psi)!r},{beta!r},{w.psi_tilde(beta)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stability(args) -> int:
    _workers(args.workers)  # checked only: the twin runs step in lockstep in one process
    cfg = _load(args)
    problem = build_problem(cfg)
    path = os.path.join(args.out, "stability.csv")
    _refuse_overwrite(path, args.force)
    trace = stability_probe(cfg, problem, (args.client, args.sample), args.replace_label)
    os.makedirs(args.out, exist_ok=True)
    first_round = trace.first_draw[0] if trace.first_draw is not None else None
    with open(path, "w", newline="\n") as fh:
        fh.write("t,step_of_first_draw_flag,mean_param_distance,heldout_loss_gap\n")
        for t in range(len(trace.mean_distance)):
            flag = int(first_round is not None and t >= first_round)
            fh.write(
                f"{t},{flag},{float(trace.mean_distance[t])!r},{float(trace.heldout_gap[t])!r}\n"
            )
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

    def common(sp, workers_help):
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="dotted-key config override (repeatable)",
        )
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
    common(sp, "checked, but the probe runs in one process")
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
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except DivergenceError as exc:
        _err(str(exc))
        return EXIT_DIVERGED
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
