"""Round-synchronous orchestration of decentralized and centralized training.

Client state is two plain (m, p) arrays: X, the models after the latest
mixing step, and Z_prev, the local outputs of the previous round.
``run_round(x_mixed, z_prev, ...)`` returns the round's RoundInfo, and the
next round starts from ``info.x_mixed`` and ``info.z``.  Client data is
one ShardStack in the Problem, every client's rows laid end to end;
build_problem lays it out once, and every run of that problem reads it in
place.  One decentralized round is the matrix recurrence

1. lookahead init   X_0 = X + beta * (X - Z_prev) (both equal the shared
                    x0 at t = 0, so round 0 starts from x0 for any beta);
2. local training   K optimizer steps, each one stacked gradient call for
                    all clients on their own minibatches;
3. gossip mixing    X' = W_t Z: one dense BLAS product where the graph
                    is dense enough (:func:`gossip_mix`), else a sum over
                    the round's neighbour table, with no (m, m) W built.

Centralized rounds sample a participation fraction of clients on the
coordinator's own stream, train the participant rows from the global
model through the same local phase, and replace the global model with
their unweighted average.

Each round hands out fresh arrays: the start points, local outputs and
mixed models of its RoundInfo, like each block's minibatch indices, are
new arrays that the engine never writes again, so one a caller keeps
stays as it was.  Only the workspaces share memory: a run's local phases
(workspace, spare iterate, velocity) and evaluations (the full
objective's workspace) lay them out in turn in a :class:`models.Scratch`
of the run, one per worker thread, and none of it lives at module level.
Table gossip's gathered term, the metrics' differences and the test
activations are plain numpy temporaries.  Evaluation computes only what a
RoundRecord reads: accuracy from the argmax of the test logits, no test
loss.

Determinism contract: with ``workers`` > 1 a run owns a thread pool, and
the local phase and table gossip of each round split the round's rows
into at most ``workers`` contiguous ranges, one per thread
(:func:`_row_ranges`); with one worker a single call covers every row.
No row's arithmetic depends on the split, and the ranges are joined in
row order, so no result depends on scheduling; numpy's OpenBLAS is held
at one thread while a run executes (:mod:`dgossip.blas`).  Every client
owns a private counter-based stream keyed by (seed, client, round) and
draws its minibatches from it alone (:func:`client_batches`): exact
uint64 arithmetic on SplitMix64's mix, with no numpy ``Generator``
involved.  Every key is known before round 0, so :func:`iter_rounds`
draws the batches of every participant of a block of rounds in one
vectorised call.  Dense gossip is one BLAS product on the calling thread, its sum
order the BLAS kernel's; table gossip accumulates each row over a fixed
neighbour table in ascending client order.  Results are therefore bitwise
reproducible, equal for every worker count and BLAS thread count, and
equal to training each client on its own.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import blas
from .data import (
    generate_synthetic,
    generate_synthetic_holdout,
    load_csv,
    partition_dirichlet,
    partition_iid,
    partition_pathological,
)
from .keyed import _DOM_CLIENT, _DOM_COORD, _DOM_DATA, _DOM_INIT, _DOM_PARTITION, _DOM_TOPO, _draw, _keys
from .localopt import OptimizerConfig, local_train, lr_at_round
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
    full_objective,
    init_params,
    quadratic_testbed,
)
from .topology import MixingMatrix, TopologyKind, TopologySpec, build_mixing

if TYPE_CHECKING:  # run_experiment imports it only for a pool: the import alone takes 0.8 MB of RSS
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "AlgorithmKind",
    "ModelConfig",
    "DataConfig",
    "PartitionConfig",
    "ExperimentConfig",
    "RoundInfo",
    "Problem",
    "ExperimentResult",
    "ConfigError",
    "DivergenceError",
    "client_batches",
    "participants",
    "ole_init",
    "gossip_mix",
    "run_round",
    "iter_rounds",
    "build_problem",
    "run_experiment",
    "validated",
]

class AlgorithmKind(str, Enum):
    OLED_SGD = "oled_sgd"
    OLED_SAM = "oled_sam"
    DFEDAVG = "dfedavg"
    DFEDAVGM = "dfedavgm"
    DFEDSAM = "dfedsam"
    DPSGD = "dpsgd"
    FEDAVG_CENTRAL = "fedavg_central"
    FEDSAM_CENTRAL = "fedsam_central"


CENTRAL_KINDS = frozenset({AlgorithmKind.FEDAVG_CENTRAL, AlgorithmKind.FEDSAM_CENTRAL})
DECENTRALIZED_KINDS = frozenset(set(AlgorithmKind) - CENTRAL_KINDS)
LOOKAHEAD_KINDS = frozenset({AlgorithmKind.OLED_SGD, AlgorithmKind.OLED_SAM})

METHOD_FOR = {
    AlgorithmKind.OLED_SGD: "sgd",
    AlgorithmKind.OLED_SAM: "sam",
    AlgorithmKind.DFEDAVG: "sgd",
    AlgorithmKind.DFEDAVGM: "sgd_momentum",
    AlgorithmKind.DFEDSAM: "sam",
    AlgorithmKind.DPSGD: "sgd",
    AlgorithmKind.FEDAVG_CENTRAL: "sgd",
    AlgorithmKind.FEDSAM_CENTRAL: "sam",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 2."""


class DivergenceError(RuntimeError):
    """Non-finite parameters encountered; maps to CLI exit code 3."""

    def __init__(self, round_index: int, client: int):
        self.round_index = round_index
        self.client = client
        super().__init__(f"non-finite parameters at round {round_index}, client {client}")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "logistic"  # "quadratic" | "logistic" | "mlp"
    p: int = 8  # quadratic dimension
    heterogeneity: float = 1.0  # quadratic linear-term spread
    hidden: tuple[int, ...] = ()  # mlp hidden sizes


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"  # "synthetic" | "csv"
    classes: int = 4
    dim: int = 10
    per_class: int = 100
    spread: float = 0.5
    test_per_class: int = 50
    path: str = ""
    test_path: str = ""


@dataclass(frozen=True)
class PartitionConfig:
    scheme: str = "dirichlet"  # "iid" | "dirichlet" | "pathological"
    alpha: float = 0.3
    classes_per_client: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: AlgorithmKind = AlgorithmKind.OLED_SGD
    beta: float = 0.0
    m: int = 16
    rounds: int = 100
    local_steps: int = 5
    participation: float = 0.1  # central kinds only
    seed: int = 0
    eval_every: int = 1
    diagnostics: bool = False
    targets: tuple[float, ...] = (0.5, 0.7, 0.9)
    topology: TopologySpec | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    data: DataConfig = field(default_factory=DataConfig)


def validated(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check invariants and normalize derived fields.

    Forces beta = 0 for non-lookahead kinds, a single local step for
    dpsgd, and the optimizer method implied by the algorithm.
    """
    algo = AlgorithmKind(cfg.algorithm)
    if not 0.0 <= cfg.beta < 1.0:
        raise ConfigError(f"beta must be < 1 (and >= 0), got {cfg.beta}")
    if cfg.m < 1:
        raise ConfigError(f"m must be >= 1, got {cfg.m}")
    if cfg.rounds < 0:
        raise ConfigError("rounds must be >= 0")
    if cfg.local_steps < 1:
        raise ConfigError("local_steps must be >= 1")
    if cfg.eval_every < 1:
        raise ConfigError("eval_every must be >= 1")
    if not 0 <= cfg.seed < 2**64:  # the draw keys on 64-bit words; topology.validate bounds topology.seed
        raise ConfigError(f"seed must be in [0, 2**64), got {cfg.seed}")

    beta = cfg.beta if algo in LOOKAHEAD_KINDS else 0.0
    local_steps = 1 if algo is AlgorithmKind.DPSGD else cfg.local_steps
    topology = cfg.topology
    if algo in DECENTRALIZED_KINDS:
        if topology is None:
            raise ConfigError(f"{algo.value} requires a topology")
        if topology.m != cfg.m:
            raise ConfigError(f"topology.m={topology.m} != m={cfg.m}")
    elif not 0.0 < cfg.participation <= 1.0:
        raise ConfigError(f"participation must be in (0, 1], got {cfg.participation}")

    optimizer = replace(cfg.optimizer, method=METHOD_FOR[algo])
    try:  # the optimizer's and topology's own checks name their fields
        optimizer.validate()
        if algo in DECENTRALIZED_KINDS and cfg.m > 1:
            topology.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    model, d = cfg.model, cfg.data
    if model.kind not in ("quadratic", "logistic", "mlp"):
        raise ConfigError(f"unknown model kind {model.kind!r}")
    if model.kind == "quadratic" and model.p < 1:
        raise ConfigError(f"model.p must be >= 1, got {model.p}")
    if model.kind == "quadratic" and model.heterogeneity < 0:  # -h is h with its noise flipped
        raise ConfigError(f"model.heterogeneity must be >= 0, got {model.heterogeneity}")
    if model.kind == "mlp" and min(model.hidden, default=1) < 1:
        raise ConfigError(f"model.hidden sizes must be >= 1, got {list(model.hidden)}")
    if cfg.partition.scheme not in ("iid", "dirichlet", "pathological"):
        raise ConfigError(f"unknown partition scheme {cfg.partition.scheme!r}")
    if d.source not in ("synthetic", "csv"):
        raise ConfigError(f"unknown data source {d.source!r}")
    synthetic = model.kind != "quadratic" and d.source == "synthetic"
    # a negative spread is its absolute value with the noise flipped
    for name, least in (("classes", 2), ("dim", 1), ("per_class", 1), ("test_per_class", 1), ("spread", 0)):
        if synthetic and getattr(d, name) < least:
            raise ConfigError(f"data.{name} must be >= {least}, got {getattr(d, name)}")
    if synthetic and d.classes * d.per_class < cfg.m:
        raise ConfigError(f"data.classes * data.per_class = {d.classes * d.per_class} samples < m={cfg.m}")
    # arrays past 2**31 elements fail to allocate, or wrap numpy's size arithmetic
    sizes = {"local_steps * m * optimizer.batch_size": local_steps * cfg.m * optimizer.batch_size}
    if model.kind == "quadratic":
        sizes["m * model.p**2"] = cfg.m * model.p**2
    elif synthetic:
        hidden = tuple(model.hidden) if model.kind == "mlp" else ()
        sizes["m * model parameters"] = cfg.m * ModelSpec(model.kind, d.dim, d.classes, hidden).param_count()
        sizes["data.classes * (data.per_class + data.test_per_class) * data.dim"] = (
            d.classes * (d.per_class + d.test_per_class) * d.dim
        )
    for name, size in sizes.items():
        if size > 2**31:
            raise ConfigError(f"{name} = {size} exceeds 2**31")
    return replace(
        cfg,
        algorithm=algo,
        beta=beta,
        local_steps=local_steps,
        optimizer=optimizer,
        model=replace(cfg.model, hidden=tuple(cfg.model.hidden)),
        targets=tuple(cfg.targets),
    )


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


def _subseed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


_BLOCK_INDICES = 2**15  # minibatch indices iter_rounds draws in one call: 256 KiB of int64


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

    Decentralized kinds train all ``m`` clients; central kinds sample
    :func:`_participant_count` of them on the coordinator's round stream.
    """
    if cfg.algorithm not in CENTRAL_KINDS:
        return np.arange(m)
    coord = np.random.default_rng([cfg.seed, _DOM_COORD, t])
    return np.sort(coord.choice(m, size=_participant_count(cfg.participation, m), replace=False))


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


def _map_ranges(fn, rows: int, pool: ThreadPoolExecutor | None, workers: int) -> list:
    """``[fn(i, range_i)]`` over :func:`_row_ranges` (rows, workers), in row order.

    The ranges run on ``pool``'s threads, or as one call on this thread
    when there is a single range (always, without a pool).
    """
    ranges = _row_ranges(rows, workers if pool is not None else 1)
    if len(ranges) == 1:
        return [fn(0, ranges[0])]
    return list(pool.map(fn, range(len(ranges)), ranges))


_DENSE_ROWS_PER_COLUMN = 100  # gossip_mix's path rule: dense while m <= this * D


def gossip_mix(
    local_outputs, w: MixingMatrix, pool: ThreadPoolExecutor | None = None, workers: int = 1
) -> np.ndarray:
    """x_i' = sum_j w_ij z_j, by one of two paths chosen from m and D alone.

    D is the width of the neighbour table of ``w`` (see
    :attr:`MixingMatrix.neighbours`), its largest row support.

    * Dense, while m <= 100 * D: one BLAS product ``w.w @ Z`` of the
      cached dense W with a C-ordered (m, p) view of the input, on the
      calling thread under :func:`blas.one_thread`.  Each row's sum order
      is the BLAS kernel's, and splitting rows or BLAS threads would
      change it, so the bits depend on neither ``pool``, ``workers`` nor
      the caller's BLAS thread count.
    * Table, past that: one (m, p) take, multiply and add per table
      column, O(m D p) rather than O(m^2 p), and no (m, m) array.  Each
      row accumulates in ascending j; the terms it skips are exact zeros
      for finite inputs, so the result is bitwise the dense ascending-j
      sum.  With a ``pool``, up to ``workers`` threads each fill a range
      of output rows by the same steps.

    The rule is the measured crossover (one BLAS thread, p = 1002, on a
    2-core x86-64 host with AVX-512), table against dense: ring m=200 3.32 vs 1.40 ms, m=300 4.36 vs 3.59 ms,
    m=400 6.12 vs 5.49 ms, m=512 6.50 vs 7.95 ms, m=1000 11.05 vs 41.5 ms;
    grid m=256 3.28 vs 2.70 ms; exponential m=256 10.2 vs 2.75 ms;
    random_k k=10 m=100 4.81 vs 0.43 ms, m=1000 89.6 vs 32.7 ms.  Dense
    wins up to m / D of about 100 to 130, and a sparse graph far past it
    (a 100000-client ring) could not hold its dense W at all.

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

    def mix(_, rows: slice) -> None:
        term = np.empty_like(out[rows])
        for d in range(index.shape[1]):
            np.take(z, index[rows, d], axis=0, out=term, mode="clip")  # MixingMatrix checks the range
            term *= weight[rows, d].reshape(column)
            out[rows] += term

    _map_ranges(mix, w.m, pool, workers)
    return out


def _check_finite(z: np.ndarray, t: int, clients: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise DivergenceError(t, int(clients[bad[0]]))


def run_round(
    x_mixed: np.ndarray,
    z_prev: np.ndarray,
    t: int,
    cfg: ExperimentConfig,
    w_t: MixingMatrix | None,
    problem: Problem,
    clients: np.ndarray | None = None,
    draws: np.ndarray | None = None,
    scratches: list[Scratch] | None = None,
    pool: ThreadPoolExecutor | None = None,
) -> RoundInfo:
    """Execute one communication round; the next starts from ``info.x_mixed`` and ``info.z``.

    The participating clients (all of them for decentralized kinds) are
    trained by one batched local phase, a ``local_train`` call per row
    range.  Central kinds (``w_t is None``) read only row 0 of
    ``x_mixed``, the global model, and never read ``z_prev``.  No input is
    written in place.
    ``clients`` and ``draws`` are the round's participants and their
    (K, n, B) minibatch indices, as :func:`iter_rounds` draws them ahead
    for a block of rounds; without them the round samples its
    participants and draws its own minibatches.  The start points, local
    outputs and mixed models it returns are new arrays.

    ``scratches`` holds one :class:`Scratch` per worker.  Without a
    ``pool`` one ``local_train`` call trains every row in the first of
    them (or in a workspace of its own).  With one, the rows split into at
    most ``len(scratches)`` ranges (:func:`_row_ranges`), range i trains
    on a pool thread in ``scratches[i]``, the outputs are joined in row
    order, and table gossip fills its row ranges on the pool as well
    (dense gossip is one call on this thread; see :func:`gossip_mix`).
    """
    m = len(x_mixed)
    central = cfg.algorithm in CENTRAL_KINDS
    if clients is None:
        clients = participants(cfg, m, t)
    if central:
        ref = x_mixed[0]  # every client holds the global model
        starts = np.tile(ref, (len(clients), 1))
        shards = problem.shards.take(clients)
    else:
        ref = x_mixed
        starts = ole_init(x_mixed, z_prev, cfg.beta)
        shards = problem.shards
    if draws is None and problem.spec.kind != "quadratic":  # the quadratic family is noiseless
        draws = client_batches(cfg.seed, clients, t, shards.sizes, cfg.local_steps, cfg.optimizer.batch_size)
    scratches = scratches or [None]
    ref = ref if cfg.diagnostics else None

    def train(i: int, rows: slice):
        x0, stack, batches, ref_rows = starts, shards, draws, ref
        if rows != slice(0, len(starts)):  # one range of several: its rows of every per-row input
            x0, stack = starts[rows], shards.take(rows)
            batches = None if draws is None else draws[:, rows]
            ref_rows = None if ref is None else ref if central else ref[rows]
        return local_train(
            problem.spec,
            x0,
            stack,
            cfg.local_steps,
            cfg.optimizer,
            batches,
            round_index=t,
            ref_point=ref_rows,
            scratch=scratches[i],
        )

    def joined(arrays: list[np.ndarray]) -> np.ndarray:  # the ranges' outputs in row order
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    parts = _map_ranges(train, len(starts), pool, len(scratches))
    z = joined([res.z for res in parts])
    drift = joined([res.v1 for res in parts]) if cfg.diagnostics else None
    _check_finite(z, t, clients)
    if central:
        x_new = np.tile(z.mean(axis=0), (m, 1))
    else:
        x_new = gossip_mix(z, w_t, pool, len(scratches))
    return RoundInfo(
        t=t, ole_points=None if central else starts, z=z, x_prev=x_mixed, x_mixed=x_new, drift=drift
    )


def build_problem(cfg: ExperimentConfig) -> Problem:
    """Deterministically construct objective, shards, held-out data, and x0."""
    cfg = validated(cfg)
    data_seed = _subseed(cfg.seed, _DOM_DATA)
    init_seed = _subseed(cfg.seed, _DOM_INIT)
    if cfg.model.kind == "quadratic":
        spec = quadratic_testbed(cfg.m, cfg.model.p, cfg.model.heterogeneity, data_seed)
        return Problem(spec, ShardStack.of(range(cfg.m)), None, init_params(spec, init_seed))

    d = cfg.data
    part_seed = _subseed(cfg.seed, _DOM_PARTITION)
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

    # one gather lays every client's rows out end to end, in partition order
    sizes = np.array([len(idx) for idx in parts], dtype=np.intp)
    rows = np.concatenate(parts)
    shards = ShardStack(
        np.arange(cfg.m), sizes, np.cumsum(sizes) - sizes, dataset.features[rows], dataset.labels[rows]
    )
    return Problem(spec, shards, test, init_params(spec, init_seed))


def iter_rounds(
    cfg: ExperimentConfig,
    problem: Problem,
    scratches: list[Scratch] | None = None,
    pool: ThreadPoolExecutor | None = None,
):
    """Run ``cfg.rounds`` rounds from ``problem.x0``, yielding each round's RoundInfo.

    Every client starts at x0 with z_prev = x0.  Decentralized kinds mix
    with one static W, or with a random_k W drawn afresh each round;
    central kinds with none.  Every key (seed, client, round) is known
    before round 0, so the participants' minibatches are drawn for a block
    of rounds at a time, one ``client_batches`` call of at most
    ``_BLOCK_INDICES`` indices (or one round), and each round is handed its
    slice.  ``run_round`` and ``build_mixing``, and a round's
    ``local_train`` and ``gossip_mix``, are looked up in this module on
    every call, where the benchmark's call tracer wraps them.

    Every RoundInfo holds new arrays, which no later round writes; the
    local phases lay their workspaces out in ``scratches`` (one new
    :class:`Scratch` by default), and run their row ranges on ``pool``
    when there is one (see :func:`run_round`).  The generator drops its
    RoundInfo when the caller resumes it, so a finished round's arrays that
    the caller does not keep are freed before the next round allocates its
    own.
    """
    cfg = validated(cfg)
    scratches = scratches or [Scratch()]
    m = len(problem.shards)
    x = z = np.tile(problem.x0, (m, 1))  # no round writes its inputs
    topo = cfg.topology
    w_t = None
    resampled = False
    if cfg.algorithm in DECENTRALIZED_KINDS:
        if cfg.m == 1:
            w_t = MixingMatrix(np.zeros((1, 1), dtype=np.intp), np.ones((1, 1)))
        elif topo.kind is TopologyKind.RANDOM_K:
            resampled = True
        else:
            w_t = build_mixing(topo)
    k_steps, batch_size = cfg.local_steps, cfg.optimizer.batch_size
    per_round = len(participants(cfg, m, 0))  # the same count every round
    span = max(1, _BLOCK_INDICES // (per_round * k_steps * batch_size))
    for t0 in range(0, cfg.rounds, span):
        block = range(t0, min(t0 + span, cfg.rounds))
        clients = [participants(cfg, m, t) for t in block]
        draws = [None] * len(block)
        if problem.spec.kind != "quadratic":  # the quadratic family is noiseless and draws nothing
            cols = np.concatenate(clients)
            indices = client_batches(
                cfg.seed, cols, np.repeat(block, per_round), problem.shards.sizes[cols], k_steps, batch_size
            )
            draws = np.split(indices, len(block), axis=1)
        for i, t in enumerate(block):
            if resampled:
                w_t = build_mixing(replace(topo, seed=_subseed(topo.seed, _DOM_TOPO, t)))
            info = run_round(x, z, t, cfg, w_t, problem, clients[i], draws[i], scratches, pool)
            x, z = info.x_mixed, info.z
            yield info
            del info  # frees the round's start points and its x_prev, unless the caller keeps them


def _evaluate(
    cfg: ExperimentConfig, problem: Problem, info: RoundInfo, scratch: Scratch | None = None
) -> RoundRecord:
    """One round's metric record, from its arrays; full_objective lays its workspace out in ``scratch``."""
    x = info.x_mixed
    xbar = x.mean(axis=0)
    train_loss, grad = full_objective(problem.spec, xbar, problem.shards, scratch)
    test_acc = None
    if problem.spec.kind != "quadratic" and problem.test is not None:
        test_acc = eval_model(problem.spec, xbar, problem.test)
    if cfg.algorithm in CENTRAL_KINDS:
        # every row is the global model, and a mean of equal rows could round
        consensus = delta = 0.0
        before, after = info.x_prev[0], x[0]
    else:
        consensus, delta = consensus_distance(x, xbar), consistency_delta(info.z, x)
        before, after = info.x_prev.mean(axis=0), xbar
    v1 = v2 = None
    if info.drift is not None:
        v1, v2 = update_energies(info.drift, before, after)
    return RoundRecord(
        t=info.t,
        train_loss=train_loss,
        test_acc=test_acc,
        grad_norm_sq=float(grad @ grad),
        consensus=consensus,
        delta_t=delta,
        v1=v1,
        v2=v2,
        lr=lr_at_round(cfg.optimizer, info.t),
    )


def run_experiment(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    problem: Problem | None = None,
    on_round=None,
) -> ExperimentResult:
    """Run T communication rounds and collect the metric record series.

    ``workers`` (a positive int; ConfigError otherwise) is the number of
    threads that run each round's local phase and table gossip, as
    contiguous row ranges.  With more than one, the run owns a thread pool
    of ``min(workers, m)`` threads, so never more threads than rows, and
    one :class:`Scratch` per thread, and shuts the pool down before it
    returns or raises; with one, every round runs on the calling thread.
    Outputs are bitwise the same for every worker count.  numpy's
    OpenBLAS is held at one thread while the rounds run and are evaluated
    (:func:`blas.one_thread`).  ``on_round`` receives (t, RoundInfo) after
    every round; metrics are derived only on recorded rounds, and lay
    their workspaces out in the first Scratch.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    cfg = validated(cfg)
    start = time.perf_counter()
    problem = build_problem(cfg) if problem is None else problem
    records: list[RoundRecord] = []
    final_x = None
    threads = min(workers, len(problem.shards))
    scratches = [Scratch() for _ in range(threads)]
    scratch = scratches[0]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
    with blas.one_thread(), ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for info in iter_rounds(cfg, problem, scratches, pool):
            t = info.t
            if on_round is not None:
                on_round(t, info)
            if t % cfg.eval_every == 0 or t == cfg.rounds - 1:
                records.append(_evaluate(cfg, problem, info, scratch))
            final_x = info.x_mixed
            del info  # so that what only this round's info held is freed before the next round allocates
        if final_x is None:
            final_x = np.tile(problem.x0, (len(problem.shards), 1))
        if records:
            last = records[-1]
        else:  # degenerate horizon: report initial metrics only, with every client at x0
            at_x0 = RoundInfo(t=0, ole_points=None, z=final_x, x_prev=final_x, x_mixed=final_x, drift=None)
            last = replace(_evaluate(cfg, problem, at_x0, scratch), consensus=0.0, delta_t=0.0)
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
