#!/usr/bin/env python3
"""Consensus-speed comparison across lookahead coefficients.

Runs the noiseless homogeneous quadratic testbed on a ring from spread-out
per-client starting points and tracks the consensus distance per round for
several lookahead coefficients.  Because the local maps are identical and
deterministic, the decay rate is governed by the effective mixing spectrum:
(1 + beta) * W - beta * I contracts faster than W whenever its non-principal
spectral radius is smaller.

Writes one CSV (round, one column per beta) and prints the first round at
which each coefficient drives consensus below the threshold.
"""

import argparse
import sys

import numpy as np

from dgossip.engine import (
    AlgorithmKind,
    ExperimentConfig,
    ModelConfig,
    Problem,
    run_round,
    validated,
)
from dgossip.localopt import OptimizerConfig
from dgossip.metrics import consensus_distance
from dgossip.models import ShardStack, quadratic_testbed
from dgossip.topology import TopologyKind, TopologySpec, build_mixing, chebyshev_modified


def consensus_trace(beta: float, args) -> list[float]:
    spec = quadratic_testbed(args.m, args.p, 0.0, seed=11, identical_curvature=True)
    cfg = validated(
        ExperimentConfig(
            algorithm=AlgorithmKind.OLED_SGD,
            beta=beta,
            m=args.m,
            rounds=args.rounds,
            local_steps=args.local_steps,
            seed=args.seed,
            topology=TopologySpec(TopologyKind.RING, args.m),
            model=ModelConfig(kind="quadratic", p=args.p, heterogeneity=0.0),
            optimizer=OptimizerConfig(eta0=args.eta, decay=1.0),
        )
    )
    w = build_mixing(cfg.topology)
    problem = Problem(spec, ShardStack.of(range(args.m)), None, np.zeros(args.p))
    x = z = args.spread * np.random.default_rng(args.seed).normal(size=(args.m, args.p))
    trace = []
    for t in range(args.rounds):
        info = run_round(x, z, t, cfg, w, problem)
        x, z = info.x_mixed, info.z
        trace.append(consensus_distance(info.x_mixed))
    return trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--betas", default="0.0,0.1,0.2,0.4", help="comma-separated coefficients")
    parser.add_argument("--m", type=int, default=16)
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=80)
    parser.add_argument("--local-steps", type=int, default=5)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--spread", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=1e-6)
    parser.add_argument("--out", default="consensus_trace.csv")
    args = parser.parse_args()

    betas = [float(b) for b in args.betas.split(",") if b.strip()]
    ring = build_mixing(TopologySpec(TopologyKind.RING, args.m))
    print(f"ring m={args.m}: psi = {ring.psi:.5f}")
    traces = {}
    for beta in betas:
        psi_tilde = chebyshev_modified(ring, beta).psi_tilde
        traces[beta] = consensus_trace(beta, args)
        hit = next(
            (t for t, c in enumerate(traces[beta]) if c < args.threshold), None
        )
        reached = f"round {hit}" if hit is not None else f">{args.rounds} rounds"
        print(f"beta={beta:4.2f}: psi_tilde {psi_tilde:.5f}, "
              f"consensus <{args.threshold:g} at {reached}")

    with open(args.out, "w", newline="\n") as fh:
        fh.write("t," + ",".join(f"beta_{b:g}" for b in betas) + "\n")
        for t in range(args.rounds):
            fh.write(f"{t}," + ",".join(repr(traces[b][t]) for b in betas) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
