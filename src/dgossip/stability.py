"""The uniform stability probe: twin runs that differ in one training label.

The twin's data is the problem's ShardStack with one label changed: it
shares the feature array, the model init and every random stream, so the
twins' states stay bitwise identical until the swapped sample is first
drawn into a minibatch of its client.  Where that happens depends only on
the client's (seed, client, round) streams, K, B and the shard size, plus
the keyed participant choice for central kinds, so :func:`first_draw` finds
it by replaying those draws after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blas import one_thread
from .config import ConfigError, ExperimentConfig, validated
from .engine import Problem, client_batches, iter_rounds, participants
from .models import loss_and_predictions

__all__ = ["StabilityTrace", "first_draw", "stability_probe"]


@dataclass(frozen=True, eq=False)
class StabilityTrace:
    """Coupled-run divergence trace from one swapped training sample."""

    client: int
    sample: int  # shard-local index of the swapped sample
    first_draw: tuple[int, int] | None  # (round, step) of the first divergent batch
    distances: np.ndarray  # (T, m): per-round per-client ||x_i - x~_i||
    mean_distance: np.ndarray  # (T,)
    heldout_gap: np.ndarray  # (T,): |held-out loss difference| between the runs


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
        rows = client_batches(cfg.seed, [client], t, [shard_size], cfg.local_steps, cfg.optimizer.batch_size)[:, 0]
        hit = (rows == sample).any(axis=1)
        if hit.any():
            return t, int(np.argmax(hit))
    return None


def stability_probe(
    cfg: ExperimentConfig,
    problem: Problem,
    swap: tuple[int, int],
    label: int | None = None,
) -> StabilityTrace:
    """Run twin experiments whose training data differ only in one label.

    ``problem`` is ``build_problem(cfg)``; ``swap`` is (client index,
    shard-local sample index); the twin run holds ``label`` at that
    sample, and None keeps its own label, which makes the twins identical.
    """
    client, sample = swap
    shards = problem.shards
    if problem.test is None:  # the quadratic family, or csv data without data.test_path
        raise ConfigError("stability probe needs held-out data (logistic/mlp, data.test_path)")
    if not 0 <= client < len(shards):
        raise ConfigError(f"swap client {client} out of range")
    if not 0 <= sample < shards.sizes[client]:
        raise ConfigError(f"swap sample {sample} out of range for client {client}")
    if label is not None and not 0 <= label < problem.spec.num_classes:
        raise ConfigError(f"replacement label {label} out of range")
    labels = shards.labels.copy()
    if label is not None:
        labels[shards.offsets[client] + sample] = label

    def heldout_loss(x_mixed):
        return loss_and_predictions(problem.spec, x_mixed.mean(axis=0), problem.test)[0]

    # the twins run in lockstep, so only the current round of each is held
    dists, gaps = [], []
    twin = replace(problem, shards=replace(shards, labels=labels))
    with one_thread():  # as run_experiment does
        rounds, twin_rounds = iter_rounds(cfg, problem), iter_rounds(cfg, twin)
        for a in rounds:
            b = next(twin_rounds)
            dists.append(np.linalg.norm(a.x_mixed - b.x_mixed, axis=1))
            gaps.append(abs(heldout_loss(a.x_mixed) - heldout_loss(b.x_mixed)))
            del a, b  # so that this round's arrays are freed before the next round allocates
    dists = np.array(dists).reshape(-1, cfg.m)
    return StabilityTrace(
        client=client,
        sample=sample,
        first_draw=first_draw(cfg, int(shards.sizes[client]), swap),
        distances=dists,
        mean_distance=dists.mean(axis=1),
        heldout_gap=np.array(gaps, dtype=float),
    )
