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

Centralized rounds train a participation fraction of clients, chosen by
their keys (:func:`participants`), from the global model through the same
local phase, and replace the global model with their unweighted average.

Each round hands out fresh arrays: the start points, local outputs and
mixed models of its RoundInfo, like each block's minibatch indices, are
new arrays that the engine never writes again, so one a caller keeps
stays as it was.  Only the workspaces share memory: a run's local phases
(workspace, spare iterate, velocity) and evaluations (the full
objective's workspace) lay them out in turn in a :class:`models.Scratch`
of the run, one in the caller and one in each worker process, and none
of it lives at module level.  Table gossip's gathered term, the metrics'
differences and the test activations are plain numpy temporaries.
Evaluation computes only what a RoundRecord reads: accuracy from the
argmax of the test logits, no test loss.

Determinism contract: with ``workers`` > 1 a run forks worker processes
once (:class:`_LocalPhase`), and only the local phase splits each round's
rows, into at most ``workers`` contiguous ranges (:func:`_row_ranges`):
the caller trains the first and each worker one more, reading its inputs
from and writing its outputs to a shared mapping.  With one worker a
single call covers every row and no process is started.  No row's
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
import typing
from contextlib import nullcontext
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import partial

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


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected integer, got {v!r}")
    if not -(2**63) <= v < 2**64:  # a seed may take the whole unsigned 64-bit range
        raise ValueError(f"expected a 64-bit integer, got {v!r}")
    return v


def _as_float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _as_str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected string, got {v!r}")
    return v


def _as_bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true/false, got {v!r}")
    return v


def _tuple_of(cast):
    """A cast of each element; a tuple that no element's cast changes is returned as it is."""
    return lambda v: v if type(v) is tuple and all(cast(x) is x for x in v) else tuple(cast(x) for x in v)


_KIND_NAMES = {AlgorithmKind: "algorithm", TopologyKind: "topology kind"}


def _as_kind(kind: type[Enum], v) -> Enum:
    """The member of ``kind`` whose value is exactly the string ``v`` (a member is itself)."""
    if isinstance(v, kind):  # the usual case, and much cheaper than kind(v)
        return v
    name = _as_str(v)
    try:
        return kind(name)
    except ValueError:
        raise ConfigError(f"unknown {_KIND_NAMES[kind]} {name!r}") from None


# every scalar config field, built in Python or read from a file, goes through the cast of its type
_CASTS = {
    int: _as_int,
    float: _as_float,
    str: _as_str,
    bool: _as_bool,
    tuple[int, ...]: _tuple_of(_as_int),
    tuple[float, ...]: _tuple_of(_as_float),
    **{kind: partial(_as_kind, kind) for kind in _KIND_NAMES},
}


def _section_class(hint):
    """The config dataclass a field holds (``X`` or ``X | None``); None for a scalar field."""
    return next((t for t in typing.get_args(hint) or (hint,) if is_dataclass(t)), None)


# section name -> dataclass, in field order; the other ExperimentConfig fields are scalars
_SECTIONS = {
    name: cls for name, hint in typing.get_type_hints(ExperimentConfig).items() if (cls := _section_class(hint))
}
# (config key, field name, cast) for each scalar field of each config dataclass, in field order
_SCALARS = {
    cls: [
        ("lambda" if (cls, name) == (OptimizerConfig, "lam") else name, name, _CASTS[hint])
        for name, hint in typing.get_type_hints(cls).items()
        if not _section_class(hint)
    ]
    for cls in (ExperimentConfig, *_SECTIONS.values())
}


def _changed(obj, cls, where: str) -> dict:
    """The scalar fields of ``obj`` that their types' casts change, by name; a refused value names its key."""
    changed = {}
    try:
        for key, name, cast in _SCALARS[cls]:
            value = getattr(obj, name)
            if (typed := cast(value)) is not value:
                changed[name] = typed
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {where}{key}: {exc}") from None
    return changed


def _typed(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with every field read through the cast of its type, as a config file's values are."""
    changed = _changed(cfg, ExperimentConfig, "")
    for name, cls in _SECTIONS.items():
        section = getattr(cfg, name)
        if section is None and name == "topology":  # a central run may have no graph
            continue
        if not isinstance(section, cls):
            raise ConfigError(f"{name} must be a {cls.__name__}, got {section!r}")
        if fields := _changed(section, cls, name + "."):
            changed[name] = replace(section, **fields)
    return replace(cfg, **changed) if changed else cfg


def validated(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check invariants and normalize derived fields.

    Reads every field through the cast of its type, as a config file is
    read, so a wrongly typed value is a ConfigError that names it.  Forces
    beta = 0 for non-lookahead kinds, a single local step for dpsgd, and
    the optimizer method implied by the algorithm.
    """
    cfg = _typed(cfg)
    algo = cfg.algorithm
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

    optimizer = cfg.optimizer
    if optimizer.method != METHOD_FOR[algo]:
        optimizer = replace(optimizer, method=METHOD_FOR[algo])
    try:  # the optimizer's and topology's own checks name their fields
        optimizer.validate()
        if algo in DECENTRALIZED_KINDS and cfg.m > 1:
            topology.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    model, d = cfg.model, cfg.data
    if model.kind not in ("quadratic", "logistic", "mlp"):
        raise ConfigError(f"model.kind must be quadratic, logistic or mlp, got {model.kind!r}")
    if model.kind == "quadratic" and model.p < 1:
        raise ConfigError(f"model.p must be >= 1, got {model.p}")
    if model.kind == "quadratic" and not 0 <= model.heterogeneity < math.inf:  # -h is h with its noise flipped
        raise ConfigError(f"model.heterogeneity must be >= 0 and finite, got {model.heterogeneity}")
    if model.kind == "mlp" and min(model.hidden, default=1) < 1:
        raise ConfigError(f"model.hidden sizes must be >= 1, got {list(model.hidden)}")
    if cfg.partition.scheme not in ("iid", "dirichlet", "pathological"):
        raise ConfigError(
            f"partition.scheme must be iid, dirichlet or pathological, got {cfg.partition.scheme!r}"
        )
    if d.source not in ("synthetic", "csv"):
        raise ConfigError(f"data.source must be synthetic or csv, got {d.source!r}")
    synthetic = model.kind != "quadratic" and d.source == "synthetic"
    # a negative spread is its absolute value with the noise flipped
    for name, least in (("classes", 2), ("dim", 1), ("per_class", 1), ("test_per_class", 1), ("spread", 0)):
        if synthetic and not least <= getattr(d, name) < math.inf:
            raise ConfigError(f"data.{name} must be >= {least} and finite, got {getattr(d, name)}")
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
    if (beta, local_steps, optimizer) == (cfg.beta, cfg.local_steps, cfg.optimizer):
        return cfg  # a validated config is returned as it is, not rebuilt
    return replace(cfg, beta=beta, local_steps=local_steps, optimizer=optimizer)


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
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise DivergenceError(t, int(clients[bad[0]]))


class _LocalPhase:
    """A run's local phase in ``procs + 1`` row ranges: the first on the caller, one more per forked worker.

    The workers are forked once, by :class:`forked.Workers`, so each holds
    the run's config and problem as they were built.  Each round the
    caller copies the inputs of the workers' rows into shared arrays: the
    start points, minibatch indices, central participants and, with
    diagnostics on, the drift reference.  It sends each worker its range,
    trains the first range itself, and joins in row order the outputs that
    the workers leave in shared arrays.  Each worker lays its workspaces
    out in a Scratch of its own.
    """

    def __init__(self, cfg: ExperimentConfig, problem: Problem, rows: int, procs: int):
        from .forked import Workers, shared_array  # imports multiprocessing and mmap, which one worker never needs

        central, p = cfg.algorithm in CENTRAL_KINDS, problem.x0.size
        self.cfg, self.problem = cfg, problem
        self.starts, self.z = shared_array((rows, p), float), shared_array((rows, p), float)
        self.clients = shared_array((rows,), np.intp) if central else None
        noisy = problem.spec.kind != "quadratic"
        self.draws = shared_array((cfg.local_steps, rows, cfg.optimizer.batch_size), np.int64) if noisy else None
        # a central round's drift reference is its start points
        self.ref = (self.starts if central else shared_array((rows, p), float)) if cfg.diagnostics else None
        self.v1 = shared_array((rows,), float) if cfg.diagnostics else None
        self.ranges = _row_ranges(rows, procs + 1)
        self.scratch = Scratch()  # used only after the fork, where each worker has its own copy
        self.workers = Workers(procs, self._serve)

    def __enter__(self) -> _LocalPhase:
        return self

    def __exit__(self, *exc) -> None:
        self.workers.close()

    def _train(self, t: int, rows: slice, starts, shards: ShardStack, draws, ref, scratch):
        return local_train(
            self.problem.spec,
            starts[rows],
            shards.take(rows),
            self.cfg.local_steps,
            self.cfg.optimizer,
            None if draws is None else draws[:, rows],
            round_index=t,
            ref_point=None if ref is None else ref[rows],
            scratch=scratch,
        )

    def _serve(self, t: int, rows: slice) -> None:
        """Train ``rows`` of round ``t`` in a worker, from the shared inputs into the shared outputs."""
        shards = self.problem.shards if self.clients is None else self.problem.shards.take(self.clients)
        res = self._train(t, rows, self.starts, shards, self.draws, self.ref, self.scratch)
        self.z[rows] = res.z
        if self.v1 is not None:
            self.v1[rows] = res.v1

    def train(self, t: int, starts, shards: ShardStack, clients, draws, ref, scratch):
        """(z, drift) of every row of round ``t``: the first range trains here, in ``scratch``."""
        first, rest = self.ranges[0], slice(self.ranges[0].stop, None)
        self.starts[rest] = starts[rest]
        if self.clients is not None:
            self.clients[:] = clients
        if self.draws is not None:
            self.draws[:, rest] = draws[:, rest]
        if self.ref is not None:
            self.ref[rest] = ref[rest]
        self.workers.send([(t, rows) for rows in self.ranges[1:]])
        res = self._train(t, first, starts, shards, draws, ref, scratch)
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
    scratch: Scratch | None = None,
    pool: _LocalPhase | None = None,
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

    Without a ``pool`` one ``local_train`` call trains every row, laying
    its workspaces out in ``scratch`` (or in its own).  ``pool`` is a run's
    forked local phase (:func:`run_experiment` makes one for more than one
    worker): the rows split into contiguous ranges (:func:`_row_ranges`),
    the first trains here in ``scratch`` and each other one in a worker
    process, and the outputs are joined in row order.  Gossip runs here
    (see :func:`gossip_mix`).
    """
    m = len(x_mixed)
    central = cfg.algorithm in CENTRAL_KINDS
    if central:  # every client holds the global model, its start and its drift reference
        starts = np.tile(x_mixed[0], (len(clients), 1))
        shards = problem.shards.take(clients)
    else:
        starts = ole_init(x_mixed, z_prev, cfg.beta)
        shards = problem.shards
    ref = (starts if central else x_mixed) if cfg.diagnostics else None
    if pool is None:
        res = local_train(
            problem.spec, starts, shards, cfg.local_steps, cfg.optimizer, draws,
            round_index=t, ref_point=ref, scratch=scratch,
        )
        z, drift = res.z, res.v1
    else:
        z, drift = pool.train(t, starts, shards, clients, draws, ref, scratch)
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


def iter_rounds(
    cfg: ExperimentConfig,
    problem: Problem,
    scratch: Scratch | None = None,
    pool: _LocalPhase | None = None,
):
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

    Every RoundInfo holds new arrays, which no later round writes; the
    local phases lay their workspaces out in ``scratch`` (a new
    :class:`Scratch` by default), and split their rows over ``pool``'s
    worker processes when there is one; gossip never does (see
    :func:`run_round`).  The
    generator drops its RoundInfo when the caller resumes it, so a finished
    round's arrays that the caller does not keep are freed before the next
    round allocates its own.
    """
    cfg = validated(cfg)
    scratch = Scratch() if scratch is None else scratch
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
    per_round = _participant_count(cfg.participation, m) if cfg.algorithm in CENTRAL_KINDS else m
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
            info = run_round(x, z, t, cfg, w_t, problem, clients[i], draws[i], scratch, pool)
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
    if problem.test is not None:
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
    processes that train each round's local phase, as contiguous row
    ranges (:func:`_row_ranges`).  With more than one, the run forks
    ``min(workers, rows) - 1`` worker processes, ``rows`` being m or, for
    central kinds, the participant count, so that no process is left
    without a range: the caller trains the first range and each worker
    one more.  It stops and reaps them before it returns or raises.  An
    error in a worker is raised here, and a worker that dies is a
    RuntimeError.  Forking needs the ``"fork"`` start method: where the
    platform lacks it, more than one worker is a ConfigError.  Gossip,
    evaluation and every draw run on the caller.  With one worker, no
    process is started.
    Outputs are bitwise the same for every worker count.  numpy's
    OpenBLAS is held at one thread while the rounds run and are evaluated
    (:func:`blas.one_thread`), and the workers are forked under that pin.
    ``on_round`` receives (t, RoundInfo) after every round; metrics are
    derived only on recorded rounds, and lay their workspaces out in the
    caller's Scratch.
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
    m = len(problem.shards)
    rows = _participant_count(cfg.participation, m) if cfg.algorithm in CENTRAL_KINDS else m
    procs = min(workers, rows) - 1
    scratch = Scratch()
    with blas.one_thread(), _LocalPhase(cfg, problem, rows, procs) if procs else nullcontext() as pool:
        for info in iter_rounds(cfg, problem, scratch, pool):
            t = info.t
            if on_round is not None:
                on_round(t, info)
            if t % cfg.eval_every == 0 or t == cfg.rounds - 1:
                records.append(_evaluate(cfg, problem, info, scratch))
            final_x = info.x_mixed
            del info  # so that what only this round's info held is freed before the next round allocates
        if final_x is None:
            final_x = np.tile(problem.x0, (m, 1))
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
