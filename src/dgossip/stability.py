"""The uniform stability probe: twin runs that differ in one training sample.

The twin runs share the partition plan, the model init and every random
stream, so their states stay bitwise identical until the swapped sample
is first drawn into a minibatch of its client.  Where that happens
depends only on the client's (seed, client, round) streams, K, B and the
shard size, plus the coordinator's sampling for central kinds, so
:func:`first_draw` finds it by replaying those draws after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ConfigError,
    ExperimentConfig,
    Problem,
    client_rng,
    participants,
    run_experiment,
    validated,
)
from .localopt import draw_batches
from .metrics import eval_model
from .models import Shard

__all__ = ["StabilityTrace", "check_swap", "first_draw", "stability_probe"]


@dataclass(frozen=True, eq=False)
class StabilityTrace:
    """Coupled-run divergence trace from one swapped training sample."""

    client: int
    sample: int  # shard-local index of the swapped sample
    first_draw: tuple[int, int] | None  # (round, step) of the first divergent batch
    distances: np.ndarray  # (T, m): per-round per-client ||x_i - x~_i||
    mean_distance: np.ndarray  # (T,)
    heldout_gap: np.ndarray  # (T,): |held-out loss difference| between the runs


def check_swap(problem: Problem, swap: tuple[int, int], label: int | None = None) -> int:
    """Check a (client, shard-local sample) swap and a label; return the dataset row."""
    client, sample = swap
    if problem.test is None:  # the quadratic family, or csv data without data.test_path
        raise ConfigError("stability probe needs held-out data (logistic/mlp, data.test_path)")
    assignments = problem.plan.assignments
    if not 0 <= client < len(assignments):
        raise ConfigError(f"swap client {client} out of range")
    if not 0 <= sample < len(assignments[client]):
        raise ConfigError(f"swap sample {sample} out of range for client {client}")
    if label is not None and not 0 <= label < problem.dataset.num_classes:
        raise ConfigError(f"replacement label {label} out of range")
    return int(assignments[client][sample])


def first_draw(
    cfg: ExperimentConfig, shard_size: int, swap: tuple[int, int]
) -> tuple[int, int] | None:
    """(round, step) at which the swapped sample first enters a minibatch.

    Replays, for the swapped client only, the engine's participant
    sampling and the minibatch draws of its local phase, for a
    dataset-backed model whose swapped client holds ``shard_size``
    samples.  None if the sample is never drawn within ``cfg.rounds``.
    """
    cfg = validated(cfg)
    client, sample = swap
    for t in range(cfg.rounds):
        if client not in participants(cfg, cfg.m, t):
            continue
        rows = draw_batches(
            [client_rng(cfg.seed, client, t)], [shard_size], cfg.local_steps,
            cfg.optimizer.batch_size,
        )
        hit = (rows == sample).any(axis=(1, 2))
        if hit.any():
            return t, int(np.argmax(hit))
    return None


def stability_probe(
    cfg: ExperimentConfig,
    problem: Problem,
    swap: tuple[int, int],
    replacement: tuple[np.ndarray, int],
) -> StabilityTrace:
    """Run twin experiments whose datasets differ only at one sample.

    ``problem`` is ``build_problem(cfg)``; ``swap`` is (client index,
    shard-local sample index); ``replacement`` is the (features, label)
    written at that position in the twin run.
    """
    client, sample = swap
    feats = np.asarray(replacement[0], dtype=float)
    label = int(replacement[1])
    check_swap(problem, swap, label)
    shard = problem.shards[client]
    if feats.shape != shard.features[sample].shape:
        raise ConfigError("replacement feature shape mismatch")
    features, labels = shard.features.copy(), shard.labels.copy()
    features[sample], labels[sample] = feats, label
    twin_shards = list(problem.shards)
    twin_shards[client] = Shard(features, labels)

    def heldout_loss(x_mixed):
        return eval_model(problem.spec, x_mixed.mean(axis=0), problem.test)[0]

    # only the first run's models are kept: the twin is compared round by round
    snaps, losses_a, dists, losses_b = [], [], [], []

    def on_round_a(t, info):
        snaps.append(info.x_mixed.copy())
        losses_a.append(heldout_loss(info.x_mixed))

    def on_round_b(t, info):
        dists.append(np.linalg.norm(snaps[t] - info.x_mixed, axis=1))
        losses_b.append(heldout_loss(info.x_mixed))

    run_experiment(cfg, problem=problem, on_round=on_round_a)
    run_experiment(cfg, problem=replace(problem, shards=twin_shards), on_round=on_round_b)
    dists = np.array(dists).reshape(-1, cfg.m)
    return StabilityTrace(
        client=client,
        sample=sample,
        first_draw=first_draw(cfg, len(shard), swap),
        distances=dists,
        mean_distance=dists.mean(axis=1),
        heldout_gap=np.abs(np.asarray(losses_a) - np.asarray(losses_b)),
    )
