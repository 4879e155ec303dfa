#!/usr/bin/env python3
"""Desk-scale algorithm comparison on the synthetic logistic benchmark.

Runs every decentralized algorithm (plus the centralized references) under
one shared data/partition/seed setting and prints a compact table: best
test accuracy, rounds to the first accuracy target, and the final
consistency term.  Medians over --seeds paired runs.
"""

import argparse
import sys

import numpy as np

from dgossip.config import (
    AlgorithmKind,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from dgossip.engine import run_experiment
from dgossip.localopt import OptimizerConfig
from dgossip.topology import TopologyKind, TopologySpec

ALGOS = [
    (AlgorithmKind.DPSGD, 0.0),
    (AlgorithmKind.DFEDAVG, 0.0),
    (AlgorithmKind.DFEDAVGM, 0.0),
    (AlgorithmKind.DFEDSAM, 0.0),
    (AlgorithmKind.OLED_SGD, None),  # beta from --beta
    (AlgorithmKind.OLED_SAM, None),
    (AlgorithmKind.FEDAVG_CENTRAL, 0.0),
    (AlgorithmKind.FEDSAM_CENTRAL, 0.0),
]


def run_one(algo, beta, seed, args):
    cfg = ExperimentConfig(
        algorithm=algo,
        beta=beta,
        m=args.m,
        rounds=args.rounds,
        local_steps=5,
        seed=seed,
        eval_every=1,
        targets=(args.target,),
        participation=0.25,
        topology=TopologySpec(TopologyKind(args.topology), args.m, k=args.k),
        model=ModelConfig(kind="logistic"),
        optimizer=OptimizerConfig(eta0=0.1, decay=0.998, lam=0.1, mu=0.9, batch_size=32),
        partition=PartitionConfig(scheme="dirichlet", alpha=args.alpha),
        data=DataConfig(classes=4, dim=10, per_class=100, spread=1.0, test_per_class=50),
    )
    summary = run_experiment(cfg).summary
    hit = summary["rounds_to_targets"][repr(float(args.target))]
    return summary["best_acc"], hit, summary["final"]["delta_t"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--beta", type=float, default=0.2)
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--target", type=float, default=0.75)
    parser.add_argument("--topology", default="ring",
                        choices=[k.value for k in TopologyKind])
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    print(f"{'algorithm':<16} {'best_acc':>9} {'rounds@' + format(args.target, '.2f'):>11} "
          f"{'final_delta':>12}")
    for algo, beta in ALGOS:
        beta = args.beta if beta is None else beta
        best, hits, deltas = [], [], []
        for seed in range(args.seeds):
            b, h, d = run_one(algo, beta, seed, args)
            best.append(b)
            hits.append(h if h is not None else args.rounds + 1)
            deltas.append(d)
        hit = int(np.median(hits))
        hit_txt = str(hit) if hit <= args.rounds else f">{args.rounds}"
        print(f"{algo.value:<16} {np.median(best):>9.4f} {hit_txt:>11} "
              f"{np.median(deltas):>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
