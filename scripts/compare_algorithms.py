#!/usr/bin/env python3
"""Every algorithm on one preset: best test accuracy, rounds to targets[0] and final delta_t, medians over seeds.

    python3 scripts/compare_algorithms.py [--config configs/logistic_dirichlet.toml] [--set KEY=VALUE ...] [--seeds N]

Each row of ALGORITHMS runs the preset with only its algorithm changed, so only the lookahead rows keep its beta.
Seed i is the preset's seed plus i; each seed's problem is built once and shared by every row.
Like every preset command it reads DGOSSIP_SEED beneath --set and exits 0/2/3/4 the way ``dgossip`` does.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from statistics import median

from dgossip.cli import exit_code, load_preset, preset_arguments
from dgossip.config import ALGORITHMS, ConfigError, validated
from dgossip.engine import DivergenceError, build_problem, run_experiment

PRESET = Path(__file__).resolve().parents[1] / "configs" / "logistic_dirichlet.toml"


def algorithm_table(base, seeds: int) -> list[tuple]:
    """(algorithm, best_acc, rounds to targets[0] or rounds + 1, final delta_t) per row, medians over ``seeds``."""
    if not (base.targets and base.rounds > 0 and seeds > 0):
        raise ConfigError(f"targets = {list(base.targets)}, rounds = {base.rounds}, --seeds = {seeds}: need one each")
    runs = {validated(replace(base, algorithm=kind)): [] for kind in ALGORITHMS}  # config: a tuple per seed
    for seed in range(base.seed, base.seed + seeds):
        problem = build_problem(replace(base, seed=seed))  # reads no algorithm key
        if problem.test is None:
            raise ConfigError("the table needs held-out data: model.kind logistic or mlp, and data.test_path for csv")
        for cfg, rows in runs.items():
            try:
                summary = run_experiment(replace(cfg, seed=seed), problem=problem).summary
            except DivergenceError as exc:
                exc.args = (f"{cfg.algorithm.value}, seed {seed}: {exc}",)
                raise
            hit = summary["rounds_to_targets"][repr(cfg.targets[0])]
            rows.append((summary["best_acc"], base.rounds + 1 if hit is None else hit, summary["final"]["delta_t"]))
    return [(cfg.algorithm.value, *map(median, zip(*rows))) for cfg, rows in runs.items()]


def print_table(base, seeds: int) -> int:
    table = algorithm_table(base, seeds)
    print(f"{'algorithm':<16} {'best_acc':>9} {'rounds@' + format(base.targets[0], '.2f'):>11} {'final_delta':>12}")
    for name, best, hit, delta in table:  # a median past base.rounds missed the target
        print(f"{name:<16} {best:>9.4f} {int(hit) if hit <= base.rounds else f'>{base.rounds}':>11} {delta:>12.3e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog=Path(__file__).name, description=__doc__.splitlines()[0])
    preset_arguments(parser, str(PRESET))
    parser.add_argument("--seeds", type=int, default=3, help="paired seeds per algorithm (default 3)")
    args = parser.parse_args(argv)
    return exit_code(parser.prog, lambda: print_table(load_preset(args), args.seeds))


if __name__ == "__main__":
    sys.exit(main())
