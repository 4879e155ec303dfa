"""Command-line entry point.

Subcommands:

* run          execute one experiment; writes metrics.csv + summary.json
* sweep        re-run the base config across values of one dotted key
* topo-report  psi and the admissible lookahead cap per topology
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

from .config import config_to_dict, load_config, topology_kind
from .engine import ConfigError, DivergenceError, build_problem, run_experiment, validated
from .metrics import write_metrics_csv
from .stability import check_swap, stability_probe
from .topology import (
    REFERENCE_PSI_FORMULAS,
    TopologySpec,
    beta_theory_bound,
    build_mixing,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _err(msg: str) -> None:
    print(f"dgossip: error: {msg}", file=sys.stderr)


def _check_workers(value: str) -> None:
    """Reject a malformed ``--workers``; outputs and speed do not depend on it."""
    if value == "auto":
        return
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(f"--workers must be a positive integer or 'auto', got {value!r}") from None
    if n < 1:
        raise ConfigError(f"--workers must be >= 1, got {n}")


def _env_seed() -> int | None:
    raw = os.environ.get("DGOSSIP_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"DGOSSIP_SEED must be an integer, got {raw!r}") from None


def _load(args, *overrides: str):
    """Check --workers, then load and validate --config under DGOSSIP_SEED, --set, overrides."""
    _check_workers(args.workers)
    return validated(load_config(args.config, [*args.set, *overrides], _env_seed()))


def _summary_payload(result) -> dict:
    return {"config": config_to_dict(result.config), **result.summary}


def _fmt_round(hit, rounds: int) -> str:
    return str(hit) if hit is not None else f">{rounds}"


def cmd_run(args) -> int:
    try:
        cfg = _load(args)
        problem = build_problem(cfg)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.json")
    if os.path.exists(summary_path) and not args.force:
        _err(f"refusing to overwrite {summary_path} (use --force)")
        return EXIT_IO
    try:
        result = run_experiment(cfg, problem=problem)
    except DivergenceError as exc:
        _err(str(exc))
        return EXIT_DIVERGED
    write_metrics_csv(result.records, os.path.join(args.out, "metrics.csv"))
    with open(summary_path, "w", newline="\n") as fh:
        json.dump(_summary_payload(result), fh, indent=2)
        fh.write("\n")
    best = result.summary["best_acc"]
    print(
        f"{result.config.algorithm.value}: {result.config.rounds} rounds, "
        f"best_acc={best if best is not None else 'n/a'}, wrote {args.out}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        _err("empty sweep")
        return EXIT_CONFIG
    try:  # every cell is built before any runs, so a bad value leaves no output
        configs = [(raw, _load(args, f"{args.key}={raw}")) for raw in values]
        cells = [(raw, cfg, build_problem(cfg)) for raw, cfg in configs]
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    table_path = os.path.join(args.out, "sweep.csv")
    if os.path.exists(table_path) and not args.force:
        _err(f"refusing to overwrite {table_path} (use --force)")
        return EXIT_IO
    os.makedirs(args.out, exist_ok=True)
    leaf = args.key.split(".")[-1]
    rows = []
    for raw, cfg, problem in cells:
        cell_dir = os.path.join(args.out, f"{leaf}={raw}".replace(os.sep, "_"))
        os.makedirs(cell_dir, exist_ok=True)
        try:
            result = run_experiment(cfg, problem=problem)
        except DivergenceError as exc:
            print(f"{args.key}={raw}: diverged ({exc})", file=sys.stderr)
            rows.append((raw, "", "", "", "diverged"))
            continue
        write_metrics_csv(result.records, os.path.join(cell_dir, "metrics.csv"))
        with open(os.path.join(cell_dir, "summary.json"), "w", newline="\n") as fh:
            json.dump(_summary_payload(result), fh, indent=2)
            fh.write("\n")
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
    try:
        kinds = [topology_kind(k) for k in args.kinds.split(",") if k.strip()]
        sizes = [int(v) for v in args.m.split(",") if v.strip()]
    except (ConfigError, ValueError) as exc:
        _err(str(exc))
        return EXIT_CONFIG
    if not kinds or not sizes:
        _err("need at least one kind and one m")
        return EXIT_CONFIG
    lines = ["kind,m,psi,beta_theory_bound,reference_formula"]
    for kind in kinds:
        for m in sizes:
            spec = TopologySpec(kind=kind, m=m, k=min(args.k, m - 1), seed=args.seed)
            try:
                mixing = build_mixing(spec)
            except (ValueError, RuntimeError) as exc:
                _err(str(exc))
                return EXIT_CONFIG
            lines.append(
                f"{kind.value},{m},{mixing.psi!r},{beta_theory_bound(mixing.psi)!r},"
                f"{REFERENCE_PSI_FORMULAS[kind]}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stability(args) -> int:
    try:
        cfg = _load(args)
        problem = build_problem(cfg)
        swap = (args.client, args.sample)
        row = check_swap(problem, swap, args.replace_label)
        label = problem.dataset.labels[row] if args.replace_label is None else args.replace_label
        trace = stability_probe(cfg, problem, swap, (problem.dataset.features[row].copy(), label))
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except DivergenceError as exc:
        _err(str(exc))
        return EXIT_DIVERGED
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "stability.csv")
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

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="dotted-key config override (repeatable)",
        )
        sp.add_argument(
            "--workers", default="1",
            help="positive integer or 'auto'; accepted for compatibility, outputs and "
            "speed do not depend on it",
        )
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")

    sp = sub.add_parser("run", help="run one experiment")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="run the config across values of one key")
    common(sp)
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
    try:
        return args.func(args)
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO


def entry() -> None:  # console-script hook
    raise SystemExit(main())
