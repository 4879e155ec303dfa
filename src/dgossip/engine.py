"""Round-synchronous orchestration of decentralized and centralized training.

Client state is two (m, p) arrays: X, the models after the latest mixing
step, and Z_prev, the local outputs of the previous round.  One
decentralized round is the matrix recurrence

1. lookahead init   X_0 = X + beta * (X - Z_prev) (both equal the shared
                    x0 at t = 0, so round 0 starts from x0 for any beta);
2. local training   K optimizer steps, each one stacked gradient call for
                    all clients on their own minibatches;
3. gossip mixing    X' = W_t Z over the round's mixing matrix.

Centralized rounds sample a participation fraction of clients on the
coordinator's own stream, train the participant rows from the global
model through the same local phase, and replace the global model with
their unweighted average.

Determinism contract: one thread runs every round, with no thread pool
and no order that depends on scheduling.  Every client owns a private
generator derived from (seed, client, round) and draws its minibatches
from it alone.  Gossip accumulates each row over a fixed neighbour table
in ascending client order.  Results are therefore bitwise reproducible,
and equal to training each client on its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import (
    LabeledDataset,
    PartitionPlan,
    generate_synthetic,
    generate_synthetic_holdout,
    load_csv,
    partition_dirichlet,
    partition_iid,
    partition_pathological,
)
from .localopt import OptimizerConfig, local_train
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
    "ClientStates",
    "RoundInfo",
    "Problem",
    "ExperimentResult",
    "ConfigError",
    "DivergenceError",
    "client_rng",
    "participants",
    "ole_init",
    "gossip_mix",
    "init_states",
    "run_round",
    "iter_rounds",
    "build_problem",
    "run_experiment",
    "validated",
]

# domain tags for deriving independent generator streams from one seed
_DOM_CLIENT = 0
_DOM_COORD = 1
_DOM_TOPO = 2
_DOM_DATA = 3
_DOM_PARTITION = 4
_DOM_INIT = 5


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
    if cfg.seed < 0 or (cfg.topology is not None and cfg.topology.seed < 0):
        raise ConfigError("seed and topology.seed must be >= 0")

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
    if cfg.model.kind not in ("quadratic", "logistic", "mlp"):
        raise ConfigError(f"unknown model kind {cfg.model.kind!r}")
    if cfg.model.kind == "mlp" and min(cfg.model.hidden, default=1) < 1:
        raise ConfigError(f"model.hidden sizes must be >= 1, got {list(cfg.model.hidden)}")
    if cfg.partition.scheme not in ("iid", "dirichlet", "pathological"):
        raise ConfigError(f"unknown partition scheme {cfg.partition.scheme!r}")
    if cfg.data.source not in ("synthetic", "csv"):
        raise ConfigError(f"unknown data source {cfg.data.source!r}")
    samples = cfg.data.classes * cfg.data.per_class
    if cfg.model.kind != "quadratic" and cfg.data.source == "synthetic" and samples < cfg.m:
        raise ConfigError(f"data.classes * data.per_class = {samples} samples < m={cfg.m}")
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
class ClientStates:
    """Every client's state, one row per client."""

    x_mixed: np.ndarray  # (m, p) models after the latest mixing step
    z_prev: np.ndarray  # (m, p) local outputs of the previous round
    shards: ShardStack


@dataclass
class RoundInfo:
    """Internals of one completed round, for metrics and property checks."""

    t: int
    lr: float
    ole_points: np.ndarray | None  # (m, p) local-training start points
    z: np.ndarray  # pre-mix local outputs (participants only for central kinds)
    x_prev: np.ndarray  # (m, p) client models at round start
    x_mixed: np.ndarray  # (m, p) client models after mixing / aggregation
    delta: float  # consistency term at this round's mixing step
    consensus: float  # dispersion of x_mixed (exactly 0 for central kinds)
    v1: float | None
    v2: float | None


@dataclass
class Problem:
    """Built experiment inputs: objective, shards, held-out data, init point."""

    spec: ModelSpec
    shards: list
    test: Shard | None
    dataset: LabeledDataset | None
    plan: PartitionPlan | None
    x0: np.ndarray


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RoundRecord]
    summary: dict
    final_x: np.ndarray  # (m, p) client models after the last round


def _subseed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def client_rng(seed: int, client: int, t: int) -> np.random.Generator:
    """The private stream from which ``client`` draws its round-``t`` minibatches."""
    return np.random.default_rng([seed, _DOM_CLIENT, client, t])


def participants(cfg: ExperimentConfig, m: int, t: int) -> np.ndarray:
    """Ascending indices of the clients that train in round ``t``.

    Decentralized kinds train all ``m`` clients; central kinds sample
    ceil(participation * m) of them on the coordinator's round stream.
    """
    if cfg.algorithm not in CENTRAL_KINDS:
        return np.arange(m)
    coord = np.random.default_rng([cfg.seed, _DOM_COORD, t])
    return np.sort(coord.choice(m, size=math.ceil(cfg.participation * m), replace=False))


def ole_init(x_mixed: np.ndarray, z_prev: np.ndarray, beta: float) -> np.ndarray:
    """Opposite-lookahead start point: x + beta * (x - z_prev).

    Steps away from the client's previous local output, which keeps the
    upcoming local phase from drifting far from the mixed model.
    Algebraically this equals (1 + beta) * x - beta * z_prev, i.e. one
    gossip step with the modified matrix (1 + beta) * W - beta * I.
    Works row-wise on (m, p) stacks as well as on one vector.
    """
    if x_mixed.shape != z_prev.shape:
        raise ValueError("x_mixed and z_prev must have equal length")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    start = x_mixed - z_prev
    start *= beta
    return np.add(x_mixed, start, out=start)


def gossip_mix(local_outputs, w: MixingMatrix) -> np.ndarray:
    """x_i' = sum_j w_ij z_j, accumulated in ascending j for reproducibility.

    The sum runs over the neighbour table of ``w`` (see
    :attr:`MixingMatrix.neighbours`), one (m, p) multiply-add per column:
    O(m D p) for largest row support D, not O(m^2 p).  The terms it skips
    are exact zeros for finite inputs, so the result is bitwise the dense
    ascending-j sum.
    """
    z = np.asarray(local_outputs, dtype=float)
    if z.shape[0] != w.m:
        raise ValueError(f"expected {w.m} rows, got {z.shape[0]}")
    index, weight = w.neighbours
    column = (w.m,) + (1,) * (z.ndim - 1)
    out = np.zeros_like(z)
    term = np.empty_like(z)
    for d in range(index.shape[1]):
        np.take(z, index[:, d], axis=0, out=term)
        term *= weight[:, d].reshape(column)
        out += term
    return out


def init_states(x0: np.ndarray, shards) -> ClientStates:
    """All clients start at the shared x0 with z_prev = x0."""
    x = np.tile(x0, (len(shards), 1))
    return ClientStates(x_mixed=x, z_prev=x.copy(), shards=ShardStack.of(shards))


def _check_finite(z: np.ndarray, t: int, clients: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise DivergenceError(t, int(clients[bad[0]]))


def run_round(
    states: ClientStates,
    t: int,
    cfg: ExperimentConfig,
    w_t: MixingMatrix | None,
    spec: ModelSpec,
) -> tuple[ClientStates, RoundInfo]:
    """Execute one communication round and return the new states.

    The participating clients (all of them for decentralized kinds) are
    trained by a single batched local phase, one ``local_train`` call.
    """
    m = len(states.x_mixed)
    central = cfg.algorithm in CENTRAL_KINDS
    clients = participants(cfg, m, t)
    if central:
        ref = states.x_mixed[0]  # every client holds the global model
        starts = np.tile(ref, (len(clients), 1))
        shards = states.shards.take(clients)
    else:
        ref = states.x_mixed
        starts = ole_init(states.x_mixed, states.z_prev, cfg.beta)
        shards = states.shards
    res = local_train(
        spec,
        starts,
        shards,
        cfg.local_steps,
        cfg.optimizer,
        [client_rng(cfg.seed, int(i), t) for i in clients],
        round_index=t,
        ref_point=ref if cfg.diagnostics else None,
    )
    z = res.z
    _check_finite(z, t, clients)
    if central:
        x_new = np.repeat(z.mean(axis=0)[None, :], m, axis=0)
        z_prev, delta, consensus = x_new, 0.0, 0.0
    else:
        x_new = gossip_mix(z, w_t)
        z_prev, delta, consensus = z, consistency_delta(z, x_new), consensus_distance(x_new)
    v1 = v2 = None
    if cfg.diagnostics:
        if central:
            v1, v2 = update_energies(res.v1, ref, x_new[0])
        else:
            v1, v2 = update_energies(res.v1, ref.mean(axis=0), x_new.mean(axis=0))
    info = RoundInfo(
        t=t,
        lr=cfg.optimizer.eta0 * cfg.optimizer.decay**t,
        ole_points=None if central else starts,
        z=z,
        x_prev=states.x_mixed,
        x_mixed=x_new,
        delta=delta,
        consensus=consensus,
        v1=v1,
        v2=v2,
    )
    return ClientStates(x_new, z_prev, states.shards), info


def build_problem(cfg: ExperimentConfig) -> Problem:
    """Deterministically construct objective, shards, held-out data, and x0."""
    cfg = validated(cfg)
    data_seed = _subseed(cfg.seed, _DOM_DATA)
    init_seed = _subseed(cfg.seed, _DOM_INIT)
    if cfg.model.kind == "quadratic":
        spec = quadratic_testbed(cfg.m, cfg.model.p, cfg.model.heterogeneity, data_seed)
        return Problem(
            spec=spec,
            shards=list(range(cfg.m)),
            test=None,
            dataset=None,
            plan=None,
            x0=init_params(spec, init_seed),
        )

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
        if scheme == "iid":
            plan = partition_iid(dataset, cfg.m, part_seed)
        elif scheme == "dirichlet":
            plan = partition_dirichlet(dataset, cfg.m, cfg.partition.alpha, part_seed)
        else:
            plan = partition_pathological(dataset, cfg.m, cfg.partition.classes_per_client, part_seed)
    except (ValueError, RuntimeError) as exc:  # infeasible data or partition settings
        raise ConfigError(f"data/partition: {exc}") from None

    spec = ModelSpec(
        kind=cfg.model.kind,
        dim=dataset.features.shape[1],
        num_classes=dataset.num_classes,
        hidden=tuple(cfg.model.hidden) if cfg.model.kind == "mlp" else (),
    )
    shards = [Shard(dataset.features[idx], dataset.labels[idx]) for idx in plan.assignments]
    return Problem(
        spec=spec, shards=shards, test=test, dataset=dataset, plan=plan,
        x0=init_params(spec, init_seed),
    )


def _mixing_for_round(cfg: ExperimentConfig, t: int, static: MixingMatrix | None) -> MixingMatrix:
    if static is not None:
        return static
    topo = cfg.topology
    round_seed = _subseed(topo.seed, _DOM_TOPO, t)
    return build_mixing(replace(topo, seed=round_seed))


def iter_rounds(cfg: ExperimentConfig, problem: Problem):
    """Run ``cfg.rounds`` rounds from ``problem.x0``, yielding each round's RoundInfo.

    Only the current round's state is held, so callers that keep nothing
    run in O(m p) memory whatever the horizon.  ``run_round`` and
    ``build_mixing`` are looked up in this module on every call, where the
    benchmark's call tracer wraps them.
    """
    cfg = validated(cfg)
    states = init_states(problem.x0, problem.shards)
    static_w = None
    if cfg.algorithm in DECENTRALIZED_KINDS:
        if cfg.m == 1:
            static_w = MixingMatrix(m=1, w=np.ones((1, 1)), psi=0.0)
        elif cfg.topology.kind is not TopologyKind.RANDOM_K:
            static_w = build_mixing(cfg.topology)
    for t in range(cfg.rounds):
        w_t = None
        if cfg.algorithm in DECENTRALIZED_KINDS:
            w_t = _mixing_for_round(cfg, t, static_w)
        states, info = run_round(states, t, cfg, w_t, problem.spec)
        yield info


def _evaluate(problem: Problem, x_stack: np.ndarray, *, t, lr, delta, consensus, v1, v2) -> RoundRecord:
    xbar = x_stack.mean(axis=0)
    train_loss, grad = full_objective(problem.spec, xbar, problem.shards)
    test_acc = None
    if problem.spec.kind != "quadratic" and problem.test is not None:
        _, test_acc = eval_model(problem.spec, xbar, problem.test)
    return RoundRecord(
        t=t,
        train_loss=train_loss,
        test_acc=test_acc,
        grad_norm_sq=float(grad @ grad),
        consensus=consensus,
        delta_t=delta,
        v1=v1,
        v2=v2,
        lr=lr,
    )


def run_experiment(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    problem: Problem | None = None,
    on_round=None,
) -> ExperimentResult:
    """Run T communication rounds and collect the metric record series.

    ``workers`` is accepted for compatibility and has no effect: one
    thread runs every round as a batched computation, so outputs and
    speed do not depend on it.  ``on_round`` receives (t, RoundInfo)
    after every round.
    """
    cfg = validated(cfg)
    start = time.perf_counter()
    problem = build_problem(cfg) if problem is None else problem
    records: list[RoundRecord] = []
    info = None
    for info in iter_rounds(cfg, problem):
        t = info.t
        if on_round is not None:
            on_round(t, info)
        if t % cfg.eval_every == 0 or t == cfg.rounds - 1:
            records.append(_evaluate(
                problem, info.x_mixed, t=t, lr=info.lr, delta=info.delta,
                consensus=info.consensus, v1=info.v1, v2=info.v2,
            ))
    final_x = np.tile(problem.x0, (len(problem.shards), 1)) if info is None else info.x_mixed
    if records:
        last = records[-1]
    else:  # degenerate horizon: report initial metrics only
        last = _evaluate(
            problem, final_x, t=0, lr=cfg.optimizer.eta0, delta=0.0, consensus=0.0,
            v1=None, v2=None,
        )
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
