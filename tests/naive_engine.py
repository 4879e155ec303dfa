"""A whole run written plainly: a loop over rounds and, inside each, over clients.

``naive_run(cfg)`` computes what ``engine.run_experiment(cfg)`` returns,
one client at a time and from parts held apart from the engine:

* each client's minibatches, the central participants and each random_k
  round's graph seed from the scalar keyed stream (``stream_reference``);
* each client's local steps by ``test_batched.reference_local_train``,
  its gradient and its SGD, SAM and momentum arithmetic;
* gossip as the dense ``W @ Z`` of ``build_mixing``'s matrix, on one BLAS
  thread.

Only the problem (data, shards and x0, from ``build_problem``) and the
metric functions (``full_objective`` and ``dgossip.metrics``) are the
engine's own.  Read next to the paper's algorithm: lookahead start,
K local steps, then one mixing step, or for the central kinds a mean over
the round's participants.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from dgossip import blas
from dgossip.config import CENTRAL_KINDS, validated
from dgossip.engine import build_problem
from dgossip.metrics import (
    RoundRecord,
    consensus_distance,
    consistency_delta,
    eval_model,
    rounds_to_target,
    update_energies,
)
from dgossip.models import full_objective
from dgossip.topology import TopologyKind, build_mixing
from stream_reference import column, graph_seed, participants
from test_batched import reference_local_train


FINAL_KEYS = ("t", "train_loss", "test_acc", "grad_norm_sq", "consensus", "delta_t")  # the keys of summary["final"]


def local_phase(cfg, problem, t, clients, starts, refs):
    """Each client's K steps from its start point: (outputs, drift sums), one row per client."""
    k_steps, batch_size = cfg.local_steps, cfg.optimizer.batch_size
    outputs, drifts = [], []
    for i, start, ref in zip(clients, starts, refs):
        shard = problem.shards[i]
        if problem.spec.kind == "quadratic":  # noiseless: no draws
            batches = [None] * k_steps
        else:
            drawn = column(cfg.seed, i, t, len(shard), k_steps * batch_size)
            batches = np.array(drawn).reshape(k_steps, batch_size)
        z, drift = reference_local_train(problem.spec, start, shard, cfg.optimizer, batches, t, ref)
        outputs.append(z)
        drifts.append(drift)
    return np.array(outputs), np.array(drifts)


def record(cfg, problem, t, x_prev, z, x, drifts):
    """Round t's RoundRecord: x_prev and x the models before and after it, z and drifts its local phase's."""
    spec = problem.spec
    xbar = x.mean(axis=0)
    loss, grad = full_objective(spec, xbar, problem.shards)
    acc = None if spec.kind == "quadratic" or problem.test is None else eval_model(spec, xbar, problem.test)
    if cfg.algorithm in CENTRAL_KINDS:  # every client holds the global model
        consensus = delta = 0.0
        before, after = x_prev[0], x[0]
    else:
        consensus, delta = consensus_distance(x, xbar), consistency_delta(z, x)
        before, after = x_prev.mean(axis=0), xbar
    v1, v2 = update_energies(drifts, before, after) if cfg.diagnostics else (None, None)
    lr = cfg.optimizer.eta0 * cfg.optimizer.decay**t
    return RoundRecord(t, loss, acc, float(grad @ grad), consensus, delta, v1, v2, lr)


def naive_run(cfg):
    """(records, summary without ``wall_time_seconds``, final_x) of a run of at least one round."""
    cfg = validated(cfg)
    problem = build_problem(cfg)
    m, topo = cfg.m, cfg.topology
    central = cfg.algorithm in CENTRAL_KINDS
    count = math.ceil(Fraction(repr(cfg.participation)) * m)  # central participants per round
    x = z = np.tile(problem.x0, (m, 1))
    records = []
    for t in range(cfg.rounds):
        if central:  # the chosen clients train from the global model
            clients = participants(cfg.seed, m, count, t)
            starts = refs = [x[0]] * count
        else:  # every client trains from its opposite-lookahead point
            clients = range(m)
            starts = [x[i] + cfg.beta * (x[i] - z[i]) for i in clients]
            refs = list(x)
        if not cfg.diagnostics:
            refs = [None] * len(starts)
        z, drifts = local_phase(cfg, problem, t, clients, starts, refs)
        if central:
            x_new = np.tile(z.mean(axis=0), (m, 1))
        else:
            spec = replace(topo, seed=graph_seed(topo.seed, t)) if topo.kind is TopologyKind.RANDOM_K else topo
            with blas.one_thread():
                x_new = build_mixing(spec).w @ z
        if t % cfg.eval_every == 0 or t == cfg.rounds - 1:
            records.append(record(cfg, problem, t, x, z, x_new, drifts))
        x = x_new
    accs = [r.test_acc for r in records if r.test_acc is not None]
    last = records[-1]
    summary = {
        "algorithm": cfg.algorithm.value,
        "rounds": cfg.rounds,
        "best_acc": max(accs) if accs else None,
        "rounds_to_targets": {repr(target): hit for target, hit in rounds_to_target(records, cfg.targets)},
        "final": {key: getattr(last, key) for key in FINAL_KEYS},
    }
    return records, summary, x
