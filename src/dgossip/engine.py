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
3. gossip mixing    X' = W_t Z over the neighbour table of the round's
                    mixing matrix; no dense (m, m) W is built.

Centralized rounds sample a participation fraction of clients on the
coordinator's own stream, train the participant rows from the global
model through the same local phase, and replace the global model with
their unweighted average.

Determinism contract: one thread runs every round, with no thread pool
and no order that depends on scheduling, and numpy's OpenBLAS is held at
one thread while a run executes (:mod:`dgossip.blas`).  Every client owns
a private stream derived from (seed, client, round) and draws its
minibatches from it alone: exactly
``default_rng([seed, 0, client, round]).integers(0, n, size=(K, B))``
(:func:`client_rng`).  Every key is known before round 0, so
:func:`iter_rounds` draws the batches of every participant of a block of
rounds in one vectorised pass (:func:`client_batches`), a bitwise replay
of numpy's seeding, PCG64 and bounded Lemire draw that tests pin to the
installed numpy; a client whose draw numpy would reject and redo, which
is rare, is drawn through :func:`client_rng` itself, as is every client
of a draw long enough for numpy's own loop to be faster.  Gossip
accumulates each row over a fixed neighbour table in ascending client
order.  Results are therefore bitwise reproducible, and equal to
training each client on its own.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

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
    "client_rng",
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
    model, d = cfg.model, cfg.data
    if model.kind not in ("quadratic", "logistic", "mlp"):
        raise ConfigError(f"unknown model kind {model.kind!r}")
    if model.kind == "quadratic" and model.p < 1:
        raise ConfigError(f"model.p must be >= 1, got {model.p}")
    if model.kind == "mlp" and min(model.hidden, default=1) < 1:
        raise ConfigError(f"model.hidden sizes must be >= 1, got {list(model.hidden)}")
    if cfg.partition.scheme not in ("iid", "dirichlet", "pathological"):
        raise ConfigError(f"unknown partition scheme {cfg.partition.scheme!r}")
    if d.source not in ("synthetic", "csv"):
        raise ConfigError(f"unknown data source {d.source!r}")
    synthetic = model.kind != "quadratic" and d.source == "synthetic"
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


def client_rng(seed: int, client: int, t: int) -> np.random.Generator:
    """The private stream from which ``client`` draws its round-``t`` minibatches."""
    return np.random.default_rng([seed, _DOM_CLIENT, client, t])


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence splits it: little-endian uint32 words, at least one."""
    return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant before each of ``count`` hashmix calls, as a shared read-only column."""
    consts = np.array([init] + [mult] * count, dtype=np.uint32).cumprod(dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on uint32 arrays, one hash constant pair per row."""
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix: MIX_MULT_L * x - MIX_MULT_R * y, then an xorshift."""
    x = x * 0xCA01F9DD - y * 0x4973F715
    return x ^ x >> 16


_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)  # (INIT_x, MULT_x)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
# hashmix call 4 + 3 s + (d - (d > s)) mixes pool word s into word d != s; row s is a dummy
_POOL_CALLS = np.array([[4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)] for s in range(4)])
_POOL_XOR, _POOL_MUL = (_hash_consts(*_HASH_A, 16)[_POOL_CALLS + j] for j in (0, 1))


_S32, _LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)  # uint64 scalars, so that numpy 1.x keeps the dtype


def _seed_words(seed: int, clients: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, 0, clients[i], rounds[i]]).generate_state(4, uint64) for each column i: (4, m) uint64.

    The entropy hash (numpy/random/bit_generator.pyx) runs as uint32
    arithmetic with one column per key, the hashmix calls that share a
    source word as one op.  A round past 2**32 - 1 splits into two words;
    its high word is the last one hashed, a step that columns of shorter
    rounds skip.
    """
    head = _words(seed) + [_DOM_CLIENT]
    long = rounds > _LOW32
    entropy = np.empty((len(head) + 2 + long.any(), len(clients)), dtype=np.uint32)
    entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head)] = clients
    entropy[len(head) + 1] = rounds & _LOW32
    entropy[len(head) + 2 :] = rounds >> _S32
    consts = _hash_consts(*_HASH_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], consts[:4], consts[1:5])
    for src in range(4):  # mix each pool word into the other three
        mixed = _mix(pool, _hashmix(pool[src], _POOL_XOR[src], _POOL_MUL[src]))
        mixed[src] = pool[src]
        pool = mixed
    for k in range(16, 4 * len(entropy), 4):  # then each further entropy word into all four
        mixed = _mix(pool, _hashmix(entropy[k // 4], consts[k : k + 4], consts[k + 1 : k + 5]))
        pool = np.where(long, mixed, pool) if k // 4 == len(head) + 2 else mixed
    out = _hash_consts(*_HASH_B, 8)
    state = _hashmix(np.tile(pool, (2, 1)), out[:-1], out[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").T.astype(np.uint64)


_TILE_WORDS = 2**11  # PCG64 outputs drawn per tile; each uint64 temporary of a tile is 16 KiB
# values per column past which numpy's own per-client loop draws faster than the replay
# (at m=100 on a 2-core host: 3.7 vs 3.6 ms at K*B = 1024, 5.1 vs 4.1 ms at 1280)
_REPLAY_VALUES = 1024
_BLOCK_INDICES = 2**15  # minibatch indices iter_rounds draws in one call: 256 KiB of int64


def _split(hi: np.ndarray, lo: np.ndarray) -> tuple:
    """A 128-bit value as _mul128 reads it: (lo, lo's low and high 32 bits, hi)."""
    return lo, lo & _LOW32, lo >> _S32, hi


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of a * b mod 2**128 for _split values.

    The high word of the 64x64-bit low product is summed from 32-bit limb
    products, each exact in uint64; everything else wraps mod 2**64.  The
    sums run in place, so few product-sized temporaries are live at once.
    """
    a_lo, a0, a1, a_hi = a
    b_lo, b0, b1, b_hi = b
    cross = a0 * b0
    cross >>= _S32
    cross += a0 * b1
    carry = a1 * b0
    carry += cross & _LOW32
    hi = a1 * b1
    hi += cross >> _S32
    hi += carry >> _S32
    hi += a_hi * b_lo
    hi += a_lo * b_hi
    return hi, a_lo * b_lo


@functools.lru_cache(maxsize=8)
def _pcg64_jumps(n: int) -> tuple:
    """PCG64's i-step jumps (A_i, C_i) for i = 1 .. n, as a read-only _split value of shape (2, 1, n).

    After i steps a state s is A_i s + C_i inc, with A_i = MULT**i and
    C_i = sum_{k<i} MULT**k (mod 2**128).
    """
    a, c, rows = 1, 0, []
    for _ in range(n):
        a, c = a * _PCG64_MULT % 2**128, (c * _PCG64_MULT + 1) % 2**128
        rows.append(((a >> 64, c >> 64), (a & 2**64 - 1, c & 2**64 - 1)))
    hi, lo = np.array(rows, dtype=np.uint64).transpose(1, 2, 0)[:, :, None]
    jumps = _split(hi, lo)
    for words in jumps:
        words.flags.writeable = False
    return jumps


def _pcg64_starts(seed: int, clients: np.ndarray, rounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) words of each column's s + inc, then its inc: (2, m, 1) uint64 each.

    numpy's PCG64 takes SeedSequence's words (s, i) as its seed and stream,
    sets inc = 2 i + 1, and starts one step past s + inc.
    """
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed, clients, rounds)
    inc_hi, inc_lo = i_hi << np.uint64(1) | i_lo >> np.uint64(63), i_lo << np.uint64(1) | np.uint64(1)
    lo = s_lo + inc_lo
    hi = np.stack([s_hi + inc_hi + (lo < inc_lo), inc_hi])[:, :, None]
    return hi, np.stack([lo, inc_lo])[:, :, None]


def _pcg64_outputs(jumps: tuple, base_hi: np.ndarray, base_lo: np.ndarray, w: int) -> np.ndarray:
    """PCG64's XSL-RR outputs of the states 2 .. w + 1 steps past each column's base state.

    ``base_hi`` and ``base_lo`` are (2, cols, 1): s + inc, then inc.  s + inc
    is one step before the seeded state, and the generator steps before it
    outputs, so these are the stream's first w outputs.
    """
    jumped = _mul128([v[..., 1 : 1 + w] for v in jumps], _split(base_hi, base_lo))
    (st_hi, inc_hi), (st_lo, inc_lo) = jumped  # A_i * state and C_i * inc
    st_lo += inc_lo
    st_hi += inc_hi
    st_hi += st_lo < inc_lo
    x = st_hi ^ st_lo  # XSL-RR: xor the halves, rotate right by the top 6 bits
    rot = st_hi >> np.uint64(58)
    left = x << (np.uint64(64) - rot & np.uint64(63))
    x >>= rot
    x |= left
    return x


def _bounded(x: np.ndarray, n: np.ndarray, threshold: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lemire's bounded draw of each column's uint32 values into ``out``; True where numpy would reject one.

    Row i of ``x`` holds column i's PCG64 outputs, and its uint32 stream is
    each output's low half, then its high half.
    """
    stream = x.astype("<u8", copy=False).view("<u4")[:, : out.shape[1]]
    prod = np.multiply(stream, n, dtype=np.uint64)
    halves = prod.astype("<u8", copy=False).view("<u4")  # each product's low word, then its high word
    out[:] = halves[:, 1::2]
    return (halves[:, ::2] < threshold).any(axis=1)


def client_batches(seed: int, clients, rounds, sizes, k_steps: int, batch_size: int) -> np.ndarray:
    """(K, m, B) minibatch indices; column i is ``client_rng(seed, clients[i], rounds[i]).integers(0, sizes[i], size=(K, B))``.

    ``rounds`` gives each column's round, or one round for all of them, so
    one call can draw a round's participants or a block of rounds.  A
    bitwise replay of numpy's draw for all columns at once:

    1. seeding: SeedSequence's hash of each column's key
       (:func:`_seed_words`) gives PCG64's seed s and stream inc, and its
       first state is one step past s + inc;
    2. stream: the j-th output of a column is PCG64's XSL-RR function of
       the state j steps further, one jump (:func:`_pcg64_jumps`) from
       s + inc, or from the last state of the tile before.  Each 64-bit
       output gives two uint32 values, low half first, as PCG64's
       ``has_uint32`` buffer hands them out;
    3. bounded draw: each value u becomes the index u * n >> 32 (Lemire
       2019, "Fast random integer generation in an interval"), which numpy
       rejects and draws again when the product's low word is below
       (2**32 - n) mod n.  For n == 1 that index is 0, as numpy's, which
       fills a one-sample draw with zeros without using the stream.

    A column with any rejection among its first K*B values, or whose
    shard size numpy draws from by another path (64-bit Lemire from
    2**32), is drawn through :func:`client_rng` itself, so the result is
    exact by construction.  So is every column of a draw longer than
    ``_REPLAY_VALUES`` values, where numpy's own loop is the faster one.
    Columns go in tiles of at most ``_TILE_WORDS`` outputs, so the
    temporaries stay small beside the (K, m, B) result.
    """
    clients = np.asarray(clients)
    rounds = np.broadcast_to(np.asarray(rounds, dtype=np.uint64), clients.shape)
    sizes = np.asarray(sizes, dtype=np.int64)
    m, count = len(clients), k_steps * batch_size
    out = np.empty((m, count), dtype=np.int64)
    redraw = (sizes < 1) | (sizes >= 2**32)  # off numpy's 32-bit Lemire path
    if count > _REPLAY_VALUES:
        redraw[:] = True
    else:
        hi, lo = _pcg64_starts(seed, clients, rounds)
        n = np.where(redraw, 1, sizes).astype(np.uint64)[:, None]
        threshold = (np.uint64(2**32) - n) % n
        words = -(-count // 2)
        jumps = _pcg64_jumps(words + 1)
        width = max(1, _TILE_WORDS // words)
        for c0 in range(0, m, width):
            cols = slice(c0, c0 + width)
            x = _pcg64_outputs(jumps, hi[:, cols], lo[:, cols], words)
            redraw[cols] |= _bounded(x, n[cols], threshold[cols], out[cols])
            del x  # no tile's temporaries outlive it
    for i in np.flatnonzero(redraw):
        out[i] = client_rng(seed, int(clients[i]), int(rounds[i])).integers(0, int(sizes[i]), size=count)
    return out.reshape(m, k_steps, batch_size).transpose(1, 0, 2)


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
        np.take(z, index[:, d], axis=0, out=term, mode="clip")  # MixingMatrix checks the range
        term *= weight[:, d].reshape(column)
        out += term
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
) -> RoundInfo:
    """Execute one communication round; the next starts from ``info.x_mixed`` and ``info.z``.

    The participating clients (all of them for decentralized kinds) are
    trained by a single batched local phase, one ``local_train`` call.
    Central kinds (``w_t is None``) read only row 0 of ``x_mixed``, the
    global model, and never read ``z_prev``.  No input is written in place.
    ``clients`` and ``draws`` are the round's participants and their
    (K, n, B) minibatch indices, as :func:`iter_rounds` draws them ahead
    for a block of rounds; without them the round samples its
    participants and draws its own minibatches.
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
    res = local_train(
        problem.spec,
        starts,
        shards,
        cfg.local_steps,
        cfg.optimizer,
        draws,
        round_index=t,
        ref_point=ref if cfg.diagnostics else None,
    )
    z = res.z
    _check_finite(z, t, clients)
    x_new = np.repeat(z.mean(axis=0)[None, :], m, axis=0) if central else gossip_mix(z, w_t)
    return RoundInfo(
        t=t, ole_points=None if central else starts, z=z, x_prev=x_mixed, x_mixed=x_new, drift=res.v1
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

    spec = ModelSpec(
        kind=cfg.model.kind,
        dim=dataset.features.shape[1],
        num_classes=dataset.num_classes,
        hidden=tuple(cfg.model.hidden) if cfg.model.kind == "mlp" else (),
    )
    # one gather lays every client's rows out end to end, in partition order
    sizes = np.array([len(idx) for idx in parts], dtype=np.intp)
    rows = np.concatenate(parts)
    shards = ShardStack(
        np.arange(cfg.m), sizes, np.cumsum(sizes) - sizes, dataset.features[rows], dataset.labels[rows]
    )
    return Problem(spec, shards, test, init_params(spec, init_seed))


def iter_rounds(cfg: ExperimentConfig, problem: Problem):
    """Run ``cfg.rounds`` rounds from ``problem.x0``, yielding each round's RoundInfo.

    Every client starts at x0 with z_prev = x0.  Only the current round's
    arrays and one block of minibatch indices are held, so callers that
    keep nothing run in O(m p) memory whatever the horizon.  Decentralized kinds mix with one static W, or
    with a random_k W drawn afresh each round; central kinds with none.
    Every key (seed, client, round) is known before round 0, so the
    participants' minibatches are drawn for a block of rounds at a time,
    one ``client_batches`` call of at most ``_BLOCK_INDICES`` indices (or
    one round), and each round is handed its slice.  ``run_round``,
    ``build_mixing`` and ``client_batches`` are looked up in this module
    on every call, where the benchmark's call tracer wraps them.
    """
    cfg = validated(cfg)
    m = len(problem.shards)
    x = z = np.tile(problem.x0, (m, 1))  # no round writes its inputs
    topo = cfg.topology
    w_t = None
    resampled = False
    if cfg.algorithm in DECENTRALIZED_KINDS:
        if cfg.m == 1:
            w_t = MixingMatrix(np.zeros((1, 1), dtype=np.intp), np.ones((1, 1)), psi=0.0)
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
            drawn = client_batches(
                cfg.seed, cols, np.repeat(block, per_round), problem.shards.sizes[cols], k_steps, batch_size
            )
            draws = np.split(drawn, len(block), axis=1)
        for t, clients_t, draws_t in zip(block, clients, draws):
            if resampled:
                w_t = build_mixing(replace(topo, seed=_subseed(topo.seed, _DOM_TOPO, t)))
            info = run_round(x, z, t, cfg, w_t, problem, clients_t, draws_t)
            x, z = info.x_mixed, info.z
            yield info


def _evaluate(cfg: ExperimentConfig, problem: Problem, info: RoundInfo) -> RoundRecord:
    """The metric record of one round, derived from its arrays."""
    x = info.x_mixed
    xbar = x.mean(axis=0)
    train_loss, grad = full_objective(problem.spec, xbar, problem.shards)
    test_acc = None
    if problem.spec.kind != "quadratic" and problem.test is not None:
        _, test_acc = eval_model(problem.spec, xbar, problem.test)
    if cfg.algorithm in CENTRAL_KINDS:
        # every row is the global model, and a mean of equal rows could round
        consensus = delta = 0.0
        before, after = info.x_prev[0], x[0]
    else:
        consensus, delta = consensus_distance(x), consistency_delta(info.z, x)
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

    ``workers`` is accepted for compatibility and has no effect: one
    thread runs every round as a batched computation, so outputs and
    speed do not depend on it.  numpy's OpenBLAS is held at one thread
    while the rounds run and are evaluated (:func:`blas.one_thread`).  ``on_round`` receives (t, RoundInfo)
    after every round; metrics are derived only on recorded rounds.
    """
    cfg = validated(cfg)
    start = time.perf_counter()
    problem = build_problem(cfg) if problem is None else problem
    records: list[RoundRecord] = []
    info = None
    with blas.one_thread():
        for info in iter_rounds(cfg, problem):
            t = info.t
            if on_round is not None:
                on_round(t, info)
            if t % cfg.eval_every == 0 or t == cfg.rounds - 1:
                records.append(_evaluate(cfg, problem, info))
        final_x = np.tile(problem.x0, (len(problem.shards), 1)) if info is None else info.x_mixed
        if records:
            last = records[-1]
        else:  # degenerate horizon: report initial metrics only, with every client at x0
            at_x0 = RoundInfo(t=0, ole_points=None, z=final_x, x_prev=final_x, x_mixed=final_x, drift=None)
            last = replace(_evaluate(cfg, problem, at_x0), consensus=0.0, delta_t=0.0)
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
