#!/usr/bin/env python3
"""The exact affine map of a quadratic oled_sgd round: its rate and fixed point per coefficient, the engine beside it.

    python3 scripts/quadratic_oracle.py [--config configs/quadratic_ring.toml] \\
        [--set KEY=VALUE ...] [--betas 0,0.2,0.4,0.6]

The quadratic family is noiseless, so client i's K local GD steps on
f_i(x) = 0.5 x.A_i x - b_i.x map a start point s to L_i s + c_i, with
L_i = (I - eta A_i)^K and c_i = eta sum_{k<K} (I - eta A_i)^k b_i.  A whole
round is then one affine map T on the state (x_t, z_{t-1}):

    z_t = L((1 + beta) x_t - beta z_{t-1}) + c,    x_{t+1} = (W kron I) z_t.

Per coefficient it prints rho(T), the whole algorithm's rate; the
grad_norm_sq, consensus, delta_t and drift |xbar - x*| of T's fixed point;
and the worst relative gap between the engine's records and the iterated
map.  It flags a psi_tilde (the non-principal spectral radius of
(1 + beta) W - beta I) of 1 or more and prints its minimiser beta*.  A
config whose round is not one constant affine map exits 2 naming the key.
Like every preset command it reads DGOSSIP_SEED beneath --set and exits
0/2/3/4 the way ``dgossip`` does.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from dgossip import engine
from dgossip.cli import exit_code, load_preset, preset_arguments
from dgossip.config import ALGORITHMS, ConfigError, validated
from dgossip.metrics import consensus_distance, consistency_delta
from dgossip.models import full_objective
from dgossip.topology import build_mixing

PRESET = Path(__file__).resolve().parents[1] / "configs" / "quadratic_ring.toml"
MAX_SIDE = 2048  # T is a dense (2mp, 2mp) matrix


def refuse(cfg) -> None:
    """ConfigError naming the first key of a validated ``cfg`` whose round is not one constant affine map."""
    algo, topology = ALGORITHMS[cfg.algorithm], getattr(cfg.topology, "kind", None)
    for key, value, affine, why in (
        ("model.kind", cfg.model.kind, cfg.model.kind == "quadratic", "only the quadratic family"),
        ("algorithm", cfg.algorithm.value, not algo.central and algo.method == "sgd", "only gossip with GD steps"),
        ("topology.kind", getattr(topology, "value", None), topology != "random_k", "random_k redraws W"),
        ("optimizer.decay", cfg.optimizer.decay, cfg.optimizer.decay == 1.0, "a decaying step changes T"),
        ("m", cfg.m, 2 <= cfg.m <= MAX_SIDE // (2 * cfg.model.p), f"needs 2 <= m and 2 * m * model.p <= {MAX_SIDE}"),
    ):
        if not affine:
            raise ConfigError(f"{key} = {value}: not one constant affine round ({why})")


def affine_round(spec, w: np.ndarray, eta: float, k_steps: int, beta: float):
    """(T, c) of one round of ``spec``'s m clients mixed by ``w``, on the state (x_t, z_{t-1}) flattened."""
    m, p = spec.quad_b.shape
    step = np.eye(p) - eta * spec.quad_a  # one GD step: s -> step s + eta b
    local, shift = np.broadcast_to(np.eye(p), step.shape), np.zeros((m, p))
    for _ in range(k_steps):
        local, shift = step @ local, (step @ shift[..., None])[..., 0] + eta * spec.quad_b
    lmap = np.einsum("ij,ikl->ikjl", np.eye(m), local).reshape(m * p, m * p)  # block-diagonal L
    mix = np.kron(w, np.eye(p))
    z_rows = np.hstack([(1 + beta) * lmap, -beta * lmap])
    return np.vstack([mix @ z_rows, z_rows]), np.concatenate([mix @ shift.ravel(), shift.ravel()])


def state_metrics(problem, state) -> tuple:
    """(train_loss, grad_norm_sq, consensus, delta_t, drift) of the state (x_{t+1}, z_t), as a record reads them."""
    x, z = state.reshape(2, len(problem.spec.quad_b), -1)
    xbar = x.mean(axis=0)
    loss, grad = full_objective(problem.spec, xbar, problem.shards)
    drift = float(np.linalg.norm(xbar - problem.spec.quad_opt))
    return loss, float(grad @ grad), consensus_distance(x), consistency_delta(z, x), drift


def engine_gap(cfg, problem, t_map, shift) -> float:
    """The worst relative gap between the records of an engine run of ``cfg`` and the same rounds of the map."""
    states, state = [], np.tile(problem.x0, 2 * cfg.m)
    for _ in range(cfg.rounds):
        state = t_map @ state + shift
        states.append(state)
    worst = 0.0
    for record in engine.run_experiment(cfg, problem=problem).records:
        got = (record.train_loss, record.grad_norm_sq, record.consensus, record.delta_t)
        for a, b in zip(got, state_metrics(problem, states[record.t])[:4], strict=True):
            worst = max(worst, abs(a - b) / abs(b) if b else abs(a))
    return worst


def oracle(cfg, problem, w: np.ndarray) -> tuple:
    """(rho(T), the fixed point's (train_loss, grad_norm_sq, consensus, delta_t, drift), the engine gap) of ``cfg``."""
    t_map, shift = affine_round(problem.spec, w, cfg.optimizer.eta0, cfg.local_steps, cfg.beta)
    if not np.isfinite(t_map).all():
        raise engine.DivergenceError(0, metric=f"round map T (beta = {cfg.beta}, eta0 = {cfg.optimizer.eta0:g})")
    rho = float(np.max(np.abs(np.linalg.eigvals(t_map))))
    fixed = state_metrics(problem, np.linalg.solve(np.eye(len(shift)) - t_map, shift))
    return rho, fixed, engine_gap(cfg, problem, t_map, shift)


def print_oracle(args) -> int:
    if not args.betas:
        raise ConfigError("--betas names no coefficient")
    cfg = validated(load_preset(args))
    refuse(cfg)
    cfgs = [validated(replace(cfg, beta=beta)) for beta in args.betas]
    problem, graph = engine.build_problem(cfg), build_mixing(cfg.topology)
    print(f"{cfg.algorithm.value}, m={cfg.m}, p={cfg.model.p}, K={cfg.local_steps}, eta={cfg.optimizer.eta0:g}, "
          f"{cfg.rounds} rounds; {cfg.topology.kind.value} psi = {graph.psi:.5f}, beta* = {graph.beta_star:.4f}")
    print("rho(T); the fixed point's grad_norm_sq, consensus, delta_t and drift; the engine's worst relative gap")
    for each in cfgs:
        rho, (_, grad_sq, consensus, delta, drift), gap = oracle(each, problem, graph.w)
        psi_tilde = graph.psi_tilde(each.beta)
        flags = "  [psi_tilde >= 1: only the local maps contract]" if psi_tilde >= 1.0 else ""
        flags += "  [rho(T) >= 1: the fixed point repels]" if rho >= 1.0 else ""
        print(f"beta={each.beta:4.2f}: psi_tilde {psi_tilde:.5f}, rho(T) {rho:.4f}, grad_norm_sq {grad_sq:.2e}, "
              f"consensus {consensus:.3f}, delta_t {delta:.3f}, drift {drift:.3f}, gap {gap:.1e}{flags}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog=Path(__file__).name, description=__doc__.splitlines()[0])
    preset_arguments(parser, str(PRESET))
    parser.add_argument("--betas", default=[0.0, 0.2, 0.4, 0.6], help="comma-separated coefficients",
                        type=lambda text: [float(b) for b in text.split(",") if b.strip()])
    args = parser.parse_args(argv)
    return exit_code(parser.prog, lambda: print_oracle(args))


if __name__ == "__main__":
    sys.exit(main())
