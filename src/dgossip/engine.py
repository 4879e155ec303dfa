"""Round-synchronous orchestration of decentralized and centralized training.

Client state is two plain (m, p) arrays: X, the models after the latest
mixing step, and Z_prev, the local outputs of the previous round.
``run_round(x_mixed, z_prev, ...)`` returns the round's RoundInfo, and the
next round starts from ``info.x_mixed`` and ``info.z``.  Client data is
one ShardStack in the Problem, every client's rows laid end to end;
build_problem lays it out once, and every run of that problem reads it in
place.  build_problem, iter_rounds and run_experiment read their config
through :func:`dgossip.config.validated`.  One decentralized round is the
matrix recurrence

1. lookahead init   X_0 = X + beta * (X - Z_prev) (both equal the shared
                    x0 at t = 0, so round 0 starts from x0 for any beta);
2. local training   K optimizer steps, each one stacked gradient call for
                    all clients on their own minibatches;
3. gossip mixing    X' = W_t Z: one dense BLAS product where the graph
                    is dense enough (:func:`gossip_mix`), else a sum over
                    the round's neighbour table, with no (m, m) W built.

Centralized rounds train a participation fraction of clients, chosen by
their keys (:func:`participants`), from the global model through the same
local phase, and replace the global model with their unweighted average.

Each round hands out fresh arrays: the start points, local outputs and
mixed models of its RoundInfo, like each block's minibatch indices, are
new arrays that the engine never writes again, so one a caller keeps
stays as it was.  Only the workspaces share memory: a run's local phases
(workspace, spare iterate, velocity) and evaluations (the full
objective's workspace) lay them out in turn in the one
:class:`models.Scratch` that the run's :class:`_LocalPhase` owns, of
which each worker process has its own copy, and none of it lives at
module level.  Table gossip's gathered term, the metrics'
differences and the test activations are plain numpy temporaries.
Evaluation computes only what a RoundRecord reads: accuracy from the
argmax of the test logits, no test loss.  A recorded round's consensus,
δ_t and energies are taken from its arrays at once, and its client
average is queued in one row of a (G, p) array that the run allocates
once; the objective and accuracy are computed per group of G queued
rounds, in one ``full_objective`` and one ``eval_model`` call over the
stack, each row bitwise its own one-model call.  G
(:func:`models.evaluation_group`) is the most models whose objective
pass and test forward fit the byte budget of one ``full_objective``
pass.  A queued round holds that row and four scalars.

Determinism contract: every round's local phase goes through the run's
one :class:`_LocalPhase`, which splits its rows into at most ``workers``
contiguous ranges (:func:`_row_ranges`).  With more than one range it
forks worker processes once: the caller trains the first range and each
worker one more, reading its inputs from and writing its outputs to a
shared mapping.  With one range a single call covers every row and no
process is started.  No row's
arithmetic depends on the split, and the ranges are joined in row order,
so no result depends on scheduling; gossip, evaluation and every draw
run in the caller.  numpy's OpenBLAS is held at one thread while a run
executes, in the workers too (:mod:`dgossip.blas`).  Every client owns a
private counter-based stream keyed by (seed, client, round) and draws its
minibatches from it alone (:func:`client_batches`): exact uint64
arithmetic on SplitMix64's mix.
Every other seed and per-round draw is a key of the same
:mod:`dgossip.keyed` rule: the central participants (seed, _DOM_COORD,
t, i), each random_k round's graph seed (topology.seed, _DOM_TOPO, t)
and the data, partition and init seeds (seed, _DOM_DATA |
_DOM_PARTITION | _DOM_INIT), so no numpy ``Generator`` runs on the round
path.  Every key is known before round 0, so :func:`iter_rounds` picks
the central participants of a block of rounds, draws their batches, and
derives the block's graph seeds, in one vectorised call each.  Dense
gossip is one BLAS product, its sum order the BLAS kernel's; table
gossip accumulates each row over a fixed neighbour table in ascending
client order.
Results are therefore bitwise reproducible, equal for every worker count
and BLAS thread count, and equal to training each client on its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import blas
from .config import CENTRAL_KINDS, ConfigError, ExperimentConfig, validated
from .config import LOOKAHEAD_KINDS  # noqa: F401  kept here: bench/workloads.py imports it from engine
from .data import (
    generate_synthetic,
    generate_synthetic_holdout,
    load_csv,
    partition_dirichlet,
    partition_iid,
    partition_pathological,
)
from .keyed import _DOM_CLIENT, _DOM_COORD, _DOM_DATA, _DOM_INIT, _DOM_PARTITION, _DOM_TOPO, _draw, _keys
from .localopt import local_train, lr_at_round
from .metrics import (
    RoundRecord,
    consensus_distance,
    consistency_delta,
    eval_model,
    rounds_to_target,
    update_energies,
)
from .models import (
    ModelSpec,
    Scratch,
    Shard,
    ShardStack,
    evaluation_group,
    full_objective,
    init_params,
    objective_workspace,
    quadratic_testbed,
)
from .topology import MixingMatrix, TopologyKind, build_mixing

__all__ = [
    "RoundInfo",
    "Problem",
    "ExperimentResult",
    "DivergenceError",
    "client_batches",
    "participants",
    "ole_init",
    "gossip_mix",
    "run_round",
    "iter_rounds",
    "build_problem",
    "run_experiment",
]


class DivergenceError(RuntimeError):
    """Non-finite parameters encountered; maps to CLI exit code 3."""

    def __init__(self, round_index: int, client: int):
        self.round_index = round_index
        self.client = client
        super().__init__(f"non-finite parameters at round {round_index}, client {client}")


@dataclass
class RoundInfo:
    """The arrays of one completed round; its metrics are derived from them."""

    t: int
    ole_points: np.ndarray | None  # (m, p) local-training start points
    z: np.ndarray  # pre-mix local outputs (participants only for central kinds)
    x_prev: np.ndarray  # (m, p) client models at round start
    x_mixed: np.ndarray  # (m, p) client models after mixing / aggregation
    drift: np.ndarray | None  # per-participant local-drift sums, with diagnostics on


@dataclass
class Problem:
    """Built experiment inputs: objective, every client's shard, held-out data, init point.

    ``shards`` is the one copy of the training data that runs read.
    """

    spec: ModelSpec
    shards: ShardStack
    test: Shard | None
    x0: np.ndarray


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RoundRecord]
    summary: dict
    final_x: np.ndarray  # (m, p) client models after the last round


_BLOCK_INDICES = 2**15  # keys or minibatch indices iter_rounds draws per block: 256 KiB of int64


def client_batches(seed: int, clients, rounds, sizes, k_steps: int, batch_size: int) -> np.ndarray:
    """(K, m, B) minibatch indices: column i draws uniformly with replacement from ``sizes[i]`` samples.

    Column i reads the private stream of client ``clients[i]`` in round
    ``rounds[i]`` (or one round for all columns), so one call can draw a
    round's participants or a block of rounds.  The stream is the keyed
    SplitMix64 stream of :mod:`dgossip.keyed`, its key taking in the words
    (seed, 0, client, round), and each column draws K*B values bounded by
    its shard size, a rejected entry j taking value j + r*K*B at its r-th
    retry.  Step k holds values k*B to (k+1)*B - 1 of the column.  The
    result is a view of a new C-contiguous (m, K*B) int64 array.  Shard
    sizes outside [1, 2**32) raise ValueError.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and not (sizes.min() >= 1 and sizes.max() < 2**32):
        raise ValueError(f"shard sizes must be in [1, 2**32), got {sizes.min()} to {sizes.max()}")
    key = _keys(len(sizes), seed, _DOM_CLIENT, clients, rounds)
    out = _draw(key, sizes.astype(np.uint64)[:, None], k_steps * batch_size)
    return out.reshape(len(sizes), k_steps, batch_size).transpose(1, 0, 2)


def participants(cfg: ExperimentConfig, m: int, t: int) -> np.ndarray:
    """Ascending indices of the clients that train in round ``t``.

    Decentralized kinds train all ``m`` clients.  Central kinds key client
    i by the words (seed, _DOM_COORD, t, i) of :mod:`dgossip.keyed` and
    take the :func:`_participant_count` clients with the smallest keys,
    a tie going to the lower index: a uniform subset of the clients.
    """
    return _participants(cfg, m, [t])[0]


def _participants(cfg: ExperimentConfig, m: int, rounds) -> np.ndarray:
    """(len(rounds), c) array whose row r is ``participants(cfg, m, rounds[r])``.

    Central kinds key every client of every round in one ``_keys`` call and
    pick by one row-wise stable argsort.  The caller bounds the rounds:
    :func:`iter_rounds` passes a block of at most ``_BLOCK_INDICES`` keys, or one round.
    """
    if cfg.algorithm not in CENTRAL_KINDS:
        return np.tile(np.arange(m), (len(rounds), 1))
    rounds = np.asarray(rounds, dtype=np.uint64)
    key = _keys(len(rounds) * m, cfg.seed, _DOM_COORD, np.repeat(rounds, m), np.tile(np.arange(m), len(rounds)))
    picks = np.argsort(key.reshape(len(rounds), m), axis=1, kind="stable")
    return np.sort(picks[:, : _participant_count(cfg.participation, m)], axis=1)


def _participant_count(participation: float, m: int) -> int:
    """ceil(participation * m) on the participation as written, its shortest round-tripping decimal.

    0.07 of 100 clients is 7, where the float product 7.000000000000001 rounds up to 8.
    """
    return math.ceil(Fraction(repr(float(participation))) * m)


def ole_init(x_mixed: np.ndarray, z_prev: np.ndarray, beta: float) -> np.ndarray:
    """Opposite-lookahead start point: x + beta * (x - z_prev).

    Steps away from the client's previous local output, which keeps the
    upcoming local phase from drifting far from the mixed model.
    Algebraically this equals (1 + beta) * x - beta * z_prev, i.e. one
    gossip step with the modified matrix (1 + beta) * W - beta * I.
    Works row-wise on (m, p) stacks as well as on one vector, and returns
    a new array.
    """
    if x_mixed.shape != z_prev.shape:
        raise ValueError("x_mixed and z_prev must have equal length")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    start = np.subtract(x_mixed, z_prev)
    start *= beta
    return np.add(x_mixed, start, out=start)


def _row_ranges(rows: int, workers: int) -> list[slice]:
    """``min(workers, rows)`` contiguous ranges covering ``range(rows)`` in order, sizes within one."""
    n = min(workers, rows)
    return [slice(rows * i // n, rows * (i + 1) // n) for i in range(n)]


_DENSE_ROWS_PER_COLUMN = 100  # gossip_mix's path rule: dense while m <= this * D


def gossip_mix(local_outputs, w: MixingMatrix) -> np.ndarray:
    """x_i' = sum_j w_ij z_j, on the calling thread, by one of two paths chosen from m and D alone.

    D is the width of the neighbour table of ``w`` (see
    :attr:`MixingMatrix.neighbours`), its largest row support.

    * Dense, while m <= 100 * D: one BLAS product ``w.w @ Z`` of the
      cached dense W with a C-ordered (m, p) view of the input, under
      :func:`blas.one_thread`.  Each row's sum order is the BLAS kernel's,
      and splitting rows or BLAS threads would change it, so the bits do
      not depend on the caller's BLAS thread count.
    * Table, past that: one (m, p) take, multiply and add per table
      column, O(m D p) rather than O(m^2 p), and no (m, m) array.  Each
      row accumulates in ascending j; the terms it skips are exact zeros
      for finite inputs, so the result is bitwise the dense ascending-j
      sum.

    The rule is the measured crossover of the two paths on one thread
    (CHANGES.md): dense wins up to m / D of about 100 to 130, and a sparse
    graph far past it (a 100000-client ring) could not hold its dense W at
    all.

    The result is a new array of the input's shape, defined for finite
    input: on the dense path one non-finite row reaches every row
    (0 * inf is NaN), on the table path only its neighbours.
    """
    z = np.asarray(local_outputs, dtype=float)
    if z.shape[0] != w.m:
        raise ValueError(f"expected {w.m} rows, got {z.shape[0]}")
    index, weight = w.neighbours
    if w.m <= _DENSE_ROWS_PER_COLUMN * index.shape[1]:
        # BLAS rounds a Fortran-ordered operand differently, so the product always reads C order
        flat = np.ascontiguousarray(z).reshape(w.m, -1)
        with blas.one_thread():
            return (w.w @ flat).reshape(z.shape)
    column = (-1,) + (1,) * (z.ndim - 1)
    out = np.zeros_like(z)
    term = np.empty_like(z)
    for d in range(index.shape[1]):
        np.take(z, index[:, d], axis=0, out=term, mode="clip")  # MixingMatrix checks the range
        term *= weight[:, d].reshape(column)
        out += term
    return out


def _check_finite(z: np.ndarray, t: int, clients: np.ndarray) -> None:
    """DivergenceError naming the client of ``z``'s first non-finite row, searched for only when there is one."""
    if np.isfinite(z).all():
        return
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    raise DivergenceError(t, int(clients[bad[0]]))


class _LocalPhase:
    """A run's local phase, in at most ``workers`` row ranges: the first on the caller, one more per forked worker.

    Its rows are a round's participants: m, or the participant count for
    central kinds; a problem built for other than ``cfg.m`` clients is a
    ConfigError.  It owns the process's one :class:`Scratch`, in which
    the caller's local phases and evaluations lay out their workspaces in
    turn.  With one range nothing more is made: each round is one
    ``local_train`` call over the whole stack.  With more, the workers are
    forked once, by :class:`forked.Workers`, so each holds the run's
    config and problem as they were built, and a copy of the Scratch of
    its own.  Each round the caller copies the inputs of the workers' rows
    into shared arrays: the start points, minibatch indices, central
    participants and, with diagnostics on, the drift reference.  It sends
    each worker its range, trains the first range itself, and joins in row
    order the outputs that the workers leave in shared arrays.
    """

    def __init__(self, cfg: ExperimentConfig, problem: Problem, workers: int = 1):
        if len(problem.shards) != cfg.m:
            raise ConfigError(f"m={cfg.m}, but the problem was built for {len(problem.shards)} clients")
        self.cfg, self.problem = cfg, problem
        self.central = cfg.algorithm in CENTRAL_KINDS
        self.rows = _participant_count(cfg.participation, cfg.m) if self.central else cfg.m
        self.ranges = _row_ranges(self.rows, workers)
        self.scratch = Scratch()
        self.workers = None
        if len(self.ranges) == 1:
            return
        from .forked import Workers, shared_array  # imports multiprocessing and mmap, which one range never needs

        rows, p = self.rows, problem.x0.size
        self.starts, self.z = shared_array((rows, p), float), shared_array((rows, p), float)
        self.clients = shared_array((rows,), np.intp) if self.central else None
        noisy = problem.spec.kind != "quadratic"
        self.draws = shared_array((cfg.local_steps, rows, cfg.optimizer.batch_size), np.int64) if noisy else None
        # a central round's drift reference is its start points
        self.ref = (self.starts if self.central else shared_array((rows, p), float)) if cfg.diagnostics else None
        self.v1 = shared_array((rows,), float) if cfg.diagnostics else None
        self.workers = Workers(len(self.ranges) - 1, self._serve)

    def __enter__(self) -> _LocalPhase:
        return self

    def __exit__(self, *exc) -> None:
        if self.workers is not None:
            self.workers.close()

    def _train(self, t: int, rows: slice | None, starts, clients, draws, ref):
        """One ``local_train`` of round ``t``'s ``rows`` (every row for None), in this process's Scratch."""
        shards = self.problem.shards.take(clients) if self.central else self.problem.shards
        if rows is not None:
            starts, shards = starts[rows], shards.take(rows)
            draws = None if draws is None else draws[:, rows]
            ref = None if ref is None else ref[rows]
        return local_train(
            self.problem.spec, starts, shards, self.cfg.local_steps, self.cfg.optimizer, draws,
            round_index=t, ref_point=ref, scratch=self.scratch,
        )

    def _serve(self, t: int, rows: slice) -> None:
        """Train ``rows`` of round ``t`` in a worker, from the shared inputs into the shared outputs."""
        res = self._train(t, rows, self.starts, self.clients, self.draws, self.ref)
        self.z[rows] = res.z
        if self.v1 is not None:
            self.v1[rows] = res.v1

    def train(self, t: int, starts, clients, draws, ref):
        """(z, drift) of every row of round ``t``; the first range trains here."""
        if self.workers is None:
            res = self._train(t, None, starts, clients, draws, ref)
            return res.z, res.v1
        first, rest = self.ranges[0], slice(self.ranges[0].stop, None)
        self.starts[rest] = starts[rest]
        if self.clients is not None:
            self.clients[:] = clients
        if self.draws is not None:
            self.draws[:, rest] = draws[:, rest]
        if self.ref is not None:
            self.ref[rest] = ref[rest]
        self.workers.send([(t, rows) for rows in self.ranges[1:]])
        res = self._train(t, first, starts, clients, draws, ref)
        self.workers.wait()
        z = np.concatenate([res.z, self.z[rest]])
        return z, None if self.v1 is None else np.concatenate([res.v1, self.v1[rest]])


def run_round(
    x_mixed: np.ndarray,
    z_prev: np.ndarray,
    t: int,
    cfg: ExperimentConfig,
    w_t: MixingMatrix | None,
    problem: Problem,
    clients: np.ndarray,
    draws: np.ndarray | None,
    phase: _LocalPhase | None = None,
) -> RoundInfo:
    """Execute one communication round; the next starts from ``info.x_mixed`` and ``info.z``.

    The participating clients (all of them for decentralized kinds) are
    trained by one batched local phase.  Central kinds (``w_t is None``)
    read only row 0 of ``x_mixed``, the global model, and never read
    ``z_prev``.  No input is written in place.
    ``clients`` are the round's participants, ascending, and ``draws``
    their (K, n, B) minibatch indices (None for the noiseless quadratic
    family), as :func:`iter_rounds` derives them ahead for a block of
    rounds; a caller driving rounds by hand passes ``participants(cfg, m,
    t)`` and their ``client_batches``.  The start points, local outputs
    and mixed models it returns are new arrays.

    ``phase`` is the run's local phase (:class:`_LocalPhase`), which
    trains the rows and lays their workspaces out in its Scratch; by
    default a one-worker phase of this round alone.  Gossip runs here (see
    :func:`gossip_mix`).  A problem built for other than ``cfg.m`` clients
    is a ConfigError.
    """
    phase = _LocalPhase(cfg, problem) if phase is None else phase
    m = len(x_mixed)
    central = cfg.algorithm in CENTRAL_KINDS
    if central:  # every client holds the global model, its start and its drift reference
        starts = np.tile(x_mixed[0], (len(clients), 1))
    else:
        starts = ole_init(x_mixed, z_prev, cfg.beta)
    ref = (starts if central else x_mixed) if cfg.diagnostics else None
    z, drift = phase.train(t, starts, clients, draws, ref)
    _check_finite(z, t, clients)
    if central:
        x_new = np.tile(z.mean(axis=0), (m, 1))
    else:
        x_new = gossip_mix(z, w_t)
    return RoundInfo(
        t=t, ole_points=None if central else starts, z=z, x_prev=x_mixed, x_mixed=x_new, drift=drift
    )


def build_problem(cfg: ExperimentConfig) -> Problem:
    """Deterministically construct objective, shards, held-out data, and x0.

    The data, partition and init seeds are the keys (seed, _DOM_DATA),
    (seed, _DOM_PARTITION) and (seed, _DOM_INIT), in one ``_keys`` call.
    The partition's rows are gathered once, client by client, and
    :meth:`ShardStack.stacked` lays them out as the run's one stack.
    """
    cfg = validated(cfg)
    data_seed, part_seed, init_seed = map(int, _keys(3, cfg.seed, [_DOM_DATA, _DOM_PARTITION, _DOM_INIT]))
    if cfg.model.kind == "quadratic":
        spec = quadratic_testbed(cfg.m, cfg.model.p, cfg.model.heterogeneity, data_seed)
        return Problem(spec, ShardStack.of(range(cfg.m)), None, init_params(spec, init_seed))

    d = cfg.data
    scheme = cfg.partition.scheme
    try:
        if d.source == "synthetic":
            dataset = generate_synthetic(d.classes, d.dim, d.per_class, d.spread, data_seed)
            test_ds = generate_synthetic_holdout(d.classes, d.dim, d.test_per_class, d.spread, data_seed)
            test = Shard(test_ds.features, test_ds.labels)
        else:
            dataset = load_csv(d.path)
            test = None
            if d.test_path:
                test_ds = load_csv(d.test_path)
                test = Shard(test_ds.features, test_ds.labels)
        spec = ModelSpec(
            kind=cfg.model.kind,
            dim=dataset.features.shape[1],
            num_classes=dataset.num_classes,
            hidden=tuple(cfg.model.hidden) if cfg.model.kind == "mlp" else (),
        )
        size = cfg.m * spec.param_count()
        if size > 2**31:  # validated() bounds synthetic data; a CSV's largest label sets the class count
            raise ValueError(f"data.path: m * model parameters = {size} exceeds 2**31")
        if scheme == "iid":
            parts = partition_iid(dataset, cfg.m, part_seed)
        elif scheme == "dirichlet":
            parts = partition_dirichlet(dataset, cfg.m, cfg.partition.alpha, part_seed)
        else:
            parts = partition_pathological(dataset, cfg.m, cfg.partition.classes_per_client, part_seed)
    except (ValueError, RuntimeError) as exc:  # infeasible data or partition settings
        raise ConfigError(f"data/partition: {exc}") from None
    if test is not None:  # the held-out rows must fit the model the training data defines
        width, dim = test.features.shape[1], dataset.features.shape[1]
        if width != dim:
            raise ConfigError(f"data.test_path: {width} features per row, data.path has {dim}")
        if test.labels.max() >= dataset.num_classes:
            raise ConfigError(
                f"data.test_path: label {test.labels.max()}, data.path has {dataset.num_classes} classes"
            )

    rows = np.concatenate(parts)  # one gather of every client's rows, in partition order
    shards = ShardStack.stacked(dataset.features[rows], dataset.labels[rows], [len(idx) for idx in parts])
    return Problem(spec, shards, test, init_params(spec, init_seed))


def iter_rounds(cfg: ExperimentConfig, problem: Problem, phase: _LocalPhase | None = None):
    """Run ``cfg.rounds`` rounds from ``problem.x0``, yielding each round's RoundInfo.

    Every client starts at x0 with z_prev = x0.  Decentralized kinds mix
    with one static W, or with a random_k W drawn afresh each round at the
    seed keyed (topology.seed, _DOM_TOPO, t); central kinds with none.
    Every key (seed, client, round) is known before round 0, so the
    rounds run in blocks, each with its participants (:func:`_participants`),
    minibatches (one ``client_batches`` call) and graph seeds drawn in one
    call each, and each round is handed its slice.  One bound sizes a
    block: a round keys m clients and draws c*K*B indices (c its
    participants), so a block holds ``_BLOCK_INDICES // max(m, c*K*B)``
    rounds, or one.  ``run_round`` and ``build_mixing``, and a round's
    ``local_train`` and ``gossip_mix``, are looked up in this module on
    every call, where the benchmark's call tracer wraps them.

    Every round trains its rows through ``phase``, the run's local phase
    (by default a one-worker :class:`_LocalPhase`, which refuses a problem
    built for other than ``cfg.m`` clients), and reads its row count from
    it; gossip runs here (see :func:`run_round`).  Every RoundInfo holds
    new arrays, which no later round writes.  The generator drops its
    RoundInfo when the caller resumes it, so a finished round's arrays
    that the caller does not keep are freed before the next round
    allocates its own.
    """
    cfg = validated(cfg)
    phase = _LocalPhase(cfg, problem) if phase is None else phase
    m, per_round = cfg.m, phase.rows
    x = z = np.tile(problem.x0, (m, 1))  # no round writes its inputs
    topo = cfg.topology
    w_t = None
    resampled = False
    if cfg.algorithm not in CENTRAL_KINDS:
        if cfg.m == 1:
            w_t = MixingMatrix(np.zeros((1, 1), dtype=np.intp), np.ones((1, 1)))
        elif topo.kind is TopologyKind.RANDOM_K:
            resampled = True
        else:
            w_t = build_mixing(topo)
    k_steps, batch_size = cfg.local_steps, cfg.optimizer.batch_size
    span = max(1, _BLOCK_INDICES // max(m, per_round * k_steps * batch_size))
    for t0 in range(0, cfg.rounds, span):
        block = range(t0, min(t0 + span, cfg.rounds))
        clients = _participants(cfg, m, block)
        draws = [None] * len(block)
        if problem.spec.kind != "quadratic":  # the quadratic family is noiseless and draws nothing
            cols = clients.reshape(-1)
            indices = client_batches(
                cfg.seed, cols, np.repeat(block, per_round), problem.shards.sizes[cols], k_steps, batch_size
            )
            draws = np.split(indices, len(block), axis=1)
        if resampled:  # round t's graph seed is the key (topology.seed, _DOM_TOPO, t)
            seeds = _keys(len(block), topo.seed, _DOM_TOPO, block)
        for i, t in enumerate(block):
            if resampled:
                w_t = build_mixing(replace(topo, seed=int(seeds[i])))
            info = run_round(x, z, t, cfg, w_t, problem, clients[i], draws[i], phase)
            x, z = info.x_mixed, info.z
            yield info
            del info  # frees the round's start points and its x_prev, unless the caller keeps them


def _queue(cfg: ExperimentConfig, info: RoundInfo, xbar: np.ndarray) -> tuple:
    """Write round ``info``'s client average into ``xbar``; (t, consensus, delta_t, v1, v2) of its record."""
    x = info.x_mixed
    np.divide(np.add.reduce(x, axis=0, out=xbar), len(x), out=xbar)  # np.mean's sum and true divide
    central = cfg.algorithm in CENTRAL_KINDS
    # every central row is the global model, and a mean of equal rows could round
    consensus, delta = (0.0, 0.0) if central else (consensus_distance(x, xbar), consistency_delta(info.z, x))
    v1 = v2 = None
    if info.drift is not None:
        before, after = (info.x_prev[0], x[0]) if central else (info.x_prev.mean(axis=0), xbar)
        v1, v2 = update_energies(info.drift, before, after)
    return info.t, consensus, delta, v1, v2


def _evaluate(cfg: ExperimentConfig, problem: Problem, xbars: np.ndarray, queued, scratch: Scratch) -> list[RoundRecord]:
    """The RoundRecords of the ``queued`` rounds, from one full_objective and one eval_model call over their ``xbars``.

    full_objective lays its workspace out in ``scratch``.
    """
    losses, grads = full_objective(problem.spec, xbars, problem.shards, scratch)
    accs = [None] * len(queued) if problem.test is None else eval_model(problem.spec, xbars, problem.test).tolist()
    return [
        RoundRecord(
            t=t,
            train_loss=loss,
            test_acc=acc,
            grad_norm_sq=float(grad @ grad),
            consensus=consensus,
            delta_t=delta,
            v1=v1,
            v2=v2,
            lr=lr_at_round(cfg.optimizer, t),
        )
        for (t, consensus, delta, v1, v2), loss, acc, grad in zip(queued, losses.tolist(), accs, grads, strict=True)
    ]


def run_experiment(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    problem: Problem | None = None,
    on_round=None,
) -> ExperimentResult:
    """Run T communication rounds and collect the metric record series.

    ``workers`` (a positive int; ConfigError otherwise) is the number of
    processes that train each round's local phase, as contiguous row
    ranges (:func:`_row_ranges`).  The run makes one :class:`_LocalPhase`
    for it, which forks ``min(workers, rows) - 1`` worker processes,
    ``rows`` being m or, for central kinds, the participant count, so
    that no process is left without a range: the caller trains the first
    range and each worker one more.  It stops and reaps them before the
    run returns or raises.  An error in a worker is raised here, and a
    worker that dies is a RuntimeError.  Forking needs the ``"fork"``
    start method: where the platform lacks it, more than one worker is a
    ConfigError.  Gossip, evaluation and every draw run on the caller.
    With one worker, no process is started.  A ``problem`` built for
    other than ``cfg.m`` clients is a ConfigError.
    Outputs are bitwise the same for every worker count.  numpy's
    OpenBLAS is held at one thread while the rounds run and are evaluated
    (:func:`blas.one_thread`), and the workers are forked under that pin.
    ``on_round`` receives (t, RoundInfo) after every round; metrics are
    derived only on recorded rounds.  A recorded round's consensus, δ_t
    and energies are taken at once and its client average is queued; its
    RoundRecord is computed when G rounds are queued or the run ends, with
    the others of its group, by one ``full_objective`` and one
    ``eval_model`` call (G from :func:`models.evaluation_group`: 29 on the
    desk preset, 1 for the quadratic family and wherever one model needs
    more than one objective pass).  So ``on_round`` still fires every
    round, but a record may be computed some rounds after it.  The
    records are bitwise those of one evaluation per round.  The
    evaluations lay their workspaces out in the phase's Scratch, between
    the caller's local phases; the group's is laid out once before round
    0, so the Scratch takes its final size within round 0.
    """
    if isinstance(workers, bool) or not (isinstance(workers, int) and workers >= 1):
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    if workers > 1:
        from .forked import can_fork

        if not can_fork():
            raise ConfigError(f"workers={workers} needs the 'fork' start method, which this platform lacks")
    cfg = validated(cfg)
    start = time.perf_counter()
    problem = build_problem(cfg) if problem is None else problem
    records: list[RoundRecord] = []
    final_x = None
    # the client averages of the recorded rounds not yet evaluated, one row each
    xbars = np.empty((evaluation_group(problem.spec, problem.shards, problem.test), problem.x0.size))
    queued = []  # their (t, consensus, delta_t, v1, v2), in round order
    with blas.one_thread(), _LocalPhase(cfg, problem, workers) as phase:
        objective_workspace(problem.spec, problem.shards, len(xbars), phase.scratch)
        for info in iter_rounds(cfg, problem, phase):
            t = info.t
            if on_round is not None:
                on_round(t, info)
            if t % cfg.eval_every == 0 or t == cfg.rounds - 1:
                queued.append(_queue(cfg, info, xbars[len(queued)]))
                if len(queued) == len(xbars) or t == cfg.rounds - 1:
                    records += _evaluate(cfg, problem, xbars[: len(queued)], queued, phase.scratch)
                    queued.clear()
            final_x = info.x_mixed
            del info  # so that what only this round's info held is freed before the next round allocates
        if final_x is None:  # degenerate horizon: report initial metrics only, with every client at x0
            final_x = np.tile(problem.x0, (cfg.m, 1))
            xbars[0] = final_x.mean(axis=0)
            [last] = _evaluate(cfg, problem, xbars[:1], [(0, 0.0, 0.0, None, None)], phase.scratch)
        else:
            last = records[-1]
    accs = [r.test_acc for r in records if r.test_acc is not None]
    summary = {
        "algorithm": cfg.algorithm.value,
        "rounds": cfg.rounds,
        "best_acc": max(accs) if accs else None,
        "rounds_to_targets": {
            repr(target): hit for target, hit in rounds_to_target(records, cfg.targets)
        },
        "final": {
            "t": last.t,
            "train_loss": last.train_loss,
            "test_acc": last.test_acc,
            "grad_norm_sq": last.grad_norm_sq,
            "consensus": last.consensus,
            "delta_t": last.delta_t,
        },
        "wall_time_seconds": time.perf_counter() - start,
    }
    return ExperimentResult(config=cfg, records=records, summary=summary, final_x=final_x)
