#!/usr/bin/env python3
"""Consensus-speed comparison across lookahead coefficients.

Runs the noiseless homogeneous quadratic testbed on a ring from spread-out
per-client starting points and tracks the consensus distance per round for
several lookahead coefficients.  Because the local maps are identical and
affine, the disagreement of the local outputs evolves as
Y' = ((1 + beta) W - beta I) Y M with M = (I - eta A)^K, so both the
consensus distance and delta_t contract per round by (psi_tilde * rho_L)^2,
where psi_tilde = max |(1 + beta) lambda - beta| over the non-principal
eigenvalues lambda of W and rho_L = max |1 - eta lambda(A)|^K.

For each coefficient it prints the measured per-round contraction beside
that prediction, and flags a coefficient with psi_tilde >= 1, whose
modified matrix alone no longer contracts.  It also prints the minimiser
beta* = (lambda_2 + lambda_m) / (2 - lambda_2 - lambda_m) of psi_tilde,
clipped to [0, 1) (Xiao & Boyd 2004; Liu & Morse 2011); psi, psi_tilde and
beta* are all read from the ring's one cached spectrum.  Writes one CSV
(round, one column per beta) and prints the first round at which each
coefficient drives consensus below the threshold.
"""

import argparse
import sys

import numpy as np

from dgossip.config import (
    AlgorithmKind,
    ExperimentConfig,
    ModelConfig,
    validated,
)
from dgossip.engine import Problem, run_round
from dgossip.localopt import OptimizerConfig
from dgossip.metrics import consensus_distance, consistency_delta
from dgossip.models import ShardStack, quadratic_testbed
from dgossip.topology import TopologyKind, TopologySpec, build_mixing

RATE_WINDOW = (50, 60)  # rounds over which the per-round contraction is measured, past the transient


def testbed(args):
    return quadratic_testbed(args.m, args.p, 0.0, seed=11, identical_curvature=True)


def consensus_trace(beta: float, args) -> tuple[list[float], list[float]]:
    """The consensus distance and delta_t after each round."""
    spec = testbed(args)
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
    consensus, delta = [], []
    for t in range(args.rounds):
        info = run_round(x, z, t, cfg, w, problem, np.arange(args.m), None)
        x, z = info.x_mixed, info.z
        consensus.append(consensus_distance(x))
        delta.append(consistency_delta(z, x))
    return consensus, delta


def local_contraction(args) -> float:
    """rho_L = max |1 - eta lambda(A)|^K of the curvature all clients share."""
    curvature = np.linalg.eigvalsh(testbed(args).quad_a[0])
    return float(np.max(np.abs(1.0 - args.eta * curvature))) ** args.local_steps


def measured_rate(trace, window) -> float:
    """The geometric-mean per-round ratio of ``trace`` from round window[0] to window[1]."""
    start, stop = window
    return (trace[stop] / trace[start]) ** (1.0 / (stop - start))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--betas", default="0.0,0.2,0.4,0.6", help="comma-separated coefficients")
    parser.add_argument("--m", type=int, default=16)
    parser.add_argument("--p", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=80)
    parser.add_argument("--local-steps", type=int, default=5)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--spread", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=1e-6)
    parser.add_argument("--out", default="consensus_trace.csv")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    betas = [float(b) for b in args.betas.split(",") if b.strip()]
    ring = build_mixing(TopologySpec(TopologyKind.RING, args.m))
    rho_l = local_contraction(args)
    # a short horizon measures over its last rounds, transient and all
    stop = min(RATE_WINDOW[1], args.rounds - 1)
    window = (max(0, stop - (RATE_WINDOW[1] - RATE_WINDOW[0])), stop)
    print(f"ring m={args.m}: psi = {ring.psi:.5f}, rho_L = {rho_l:.5f}, beta* = {ring.beta_star:.4f}")
    print(f"per-round contraction over rounds {window[0]}-{window[1]}, predicted (psi_tilde * rho_L)^2")
    traces = {}
    for beta in betas:
        psi_tilde = ring.psi_tilde(beta)
        traces[beta], _ = consensus_trace(beta, args)
        hit = next(
            (t for t, c in enumerate(traces[beta]) if c < args.threshold), None
        )
        reached = f"round {hit}" if hit is not None else f">{args.rounds} rounds"
        measured = measured_rate(traces[beta], window) if window[1] > window[0] else float("nan")
        flag = "  [psi_tilde >= 1: only rho_L contracts]" if psi_tilde >= 1.0 else ""
        print(f"beta={beta:4.2f}: psi_tilde {psi_tilde:.5f}, rate {measured:.6f} "
              f"vs {(psi_tilde * rho_l) ** 2:.6f}, consensus <{args.threshold:g} at {reached}{flag}")

    with open(args.out, "w", newline="\n") as fh:
        fh.write("t," + ",".join(f"beta_{b:g}" for b in betas) + "\n")
        for t in range(args.rounds):
            fh.write(f"{t}," + ",".join(repr(traces[b][t]) for b in betas) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
