"""Experiment configs: the schema, :func:`validated`, and plain-text config files.

This module owns the config dataclasses, :data:`ALGORITHMS` (each
algorithm's central, lookahead, method and single-step properties) and
:func:`validated`, and imports nothing from the engine.  A config file is
a TOML-style subset parsed without third-party packages (so sweep bases
stay hand-editable): ``[section]`` headers, one ``key = value`` per line,
``#`` comments, and scalar values that are booleans, integers, floats,
quoted strings, or flat ``[a, b]`` lists.  CLI overrides address the same
tree through dotted keys (``optimizer.lambda=0.1``).  The keys are the
fields of the config dataclasses, less the two that are derived:
``optimizer.method`` from the algorithm and ``topology.m`` from m.  Each
value goes through the cast that :func:`validated` applies to a config
built in Python.  An absent key takes its field's default; only
``topology.kind`` (ring) and ``topology.seed`` (the top-level seed) are
filled in from elsewhere.
"""

from __future__ import annotations

import math
import typing
from collections import namedtuple
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum
from functools import partial

from .localopt import OptimizerConfig
from .models import ModelSpec
from .topology import TopologyKind, TopologySpec

__all__ = [
    "AlgorithmKind",
    "ALGORITHMS",
    "CENTRAL_KINDS",
    "LOOKAHEAD_KINDS",
    "ConfigError",
    "ModelConfig",
    "DataConfig",
    "PartitionConfig",
    "ExperimentConfig",
    "validated",
    "parse_config_text",
    "parse_scalar",
    "apply_override",
    "config_from_dict",
    "config_to_dict",
    "load_config",
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


Algorithm = namedtuple("Algorithm", "central lookahead method single_step")
# every property by which the algorithms differ; README's algorithm table shows the same rows
ALGORITHMS = {
    AlgorithmKind.OLED_SGD: Algorithm(central=False, lookahead=True, method="sgd", single_step=False),
    AlgorithmKind.OLED_SAM: Algorithm(central=False, lookahead=True, method="sam", single_step=False),
    AlgorithmKind.DFEDAVG: Algorithm(central=False, lookahead=False, method="sgd", single_step=False),
    AlgorithmKind.DFEDAVGM: Algorithm(central=False, lookahead=False, method="sgd_momentum", single_step=False),
    AlgorithmKind.DFEDSAM: Algorithm(central=False, lookahead=False, method="sam", single_step=False),
    AlgorithmKind.DPSGD: Algorithm(central=False, lookahead=False, method="sgd", single_step=True),
    AlgorithmKind.FEDAVG_CENTRAL: Algorithm(central=True, lookahead=False, method="sgd", single_step=False),
    AlgorithmKind.FEDSAM_CENTRAL: Algorithm(central=True, lookahead=False, method="sam", single_step=False),
}
CENTRAL_KINDS = frozenset(kind for kind, row in ALGORITHMS.items() if row.central)
LOOKAHEAD_KINDS = frozenset(kind for kind, row in ALGORITHMS.items() if row.lookahead)


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 2."""


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
# the same, less the two derived fields, which are no file keys
_DERIVED = {(OptimizerConfig, "method"), (TopologySpec, "m")}
_KEYS = {cls: [s for s in scalars if (cls, s[1]) not in _DERIVED] for cls, scalars in _SCALARS.items()}


def _cast(cast, value, where: str, key: str):
    """``cast(value)``, from a file or from Python; a refused value is a ConfigError that names its key."""
    try:
        return cast(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {where}{key}: {exc}") from None


def _changed(obj, cls, where: str) -> dict:
    """The scalar fields of ``obj`` that their types' casts change, by name."""
    changed = {}
    for key, name, cast in _SCALARS[cls]:
        value = getattr(obj, name)
        if (typed := _cast(cast, value, where, key)) is not value:
            changed[name] = typed
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
    read, so a wrongly typed value is a ConfigError that names it.  Applies
    the algorithm's row of :data:`ALGORITHMS`: beta = 0 without lookahead,
    K = 1 for a single-step row, and the row's optimizer method.
    """
    cfg = _typed(cfg)
    algo = ALGORITHMS[cfg.algorithm]
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

    beta = cfg.beta if algo.lookahead else 0.0
    local_steps = 1 if algo.single_step else cfg.local_steps
    topology = cfg.topology
    if not algo.central:
        if topology is None:
            raise ConfigError(f"{cfg.algorithm.value} requires a topology")
        if topology.m != cfg.m:
            raise ConfigError(f"topology.m={topology.m} != m={cfg.m}")
    elif not 0.0 < cfg.participation <= 1.0:
        raise ConfigError(f"participation must be in (0, 1], got {cfg.participation}")

    optimizer = cfg.optimizer
    if optimizer.method != algo.method:
        optimizer = replace(optimizer, method=algo.method)
    try:  # the optimizer's and topology's own checks name their fields
        optimizer.validate()
        if not algo.central and cfg.m > 1:
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
    if model.kind != "quadratic" and d.source == "csv" and not d.path:
        raise ConfigError("data.path must name a CSV file when data.source is csv")
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


def _strip_comment(line: str) -> str:
    i = line.find("#")
    while i != -1 and line.count('"', 0, i) % 2:  # an odd count of quotes before it: inside a string
        i = line.find("#", i + 1)
    return line if i == -1 else line[:i]


def parse_scalar(text: str):
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        inner = s[1:-1].strip()
        if not inner:
            return []
        return [parse_scalar(part) for part in inner.split(",") if part.strip()]
    if len(s) >= 2 and s.startswith('"') and s.endswith('"'):
        return s[1:-1]
    if s.lower() == "true":
        return True
    if s.lower() == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_config_text(text: str) -> dict:
    tree: dict = {}
    section = tree
    section_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if not section_name:
                raise ConfigError(f"line {lineno}: empty section name")
            section = tree
            for part in section_name.split("."):
                section = section.setdefault(part, {})
                if not isinstance(section, dict):
                    raise ConfigError(f"line {lineno}: {section_name} collides with a value")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        section[key] = parse_scalar(value)
    return tree


def apply_override(tree: dict, dotted: str, raw_value: str | None = None) -> None:
    """Set ``a.b.c = value`` in the tree; value may ride in ``dotted`` after '='."""
    if raw_value is None:
        if "=" not in dotted:
            raise ConfigError(f"override must look like key=value, got {dotted!r}")
        dotted, _, raw_value = dotted.partition("=")
    parts = [p for p in dotted.strip().split(".") if p]
    if not parts:
        raise ConfigError("override key is empty")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted!r} descends into a scalar")
    node[parts[-1]] = parse_scalar(raw_value)


def _read(cls, section: dict, where: str, **values) -> dict:
    """The field values of ``cls`` that a section gives, cast, over ``values``; an unknown key is refused."""
    for key, name, cast in _KEYS[cls]:
        if key in section:
            values[name] = _cast(cast, section.pop(key), where, key)
    if section:
        raise ConfigError(f"unknown config key: {where}{next(iter(section))}")
    return values


def config_from_dict(tree: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed tree, naming any bad key."""
    tree = dict(tree)  # keys are popped as they are read; the caller's tree is left whole
    sections = {}
    for name in _SECTIONS:
        section = tree.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a section")
        sections[name] = dict(section)
    top = _read(ExperimentConfig, tree, "")
    # an absent key takes its field's default, which the dataclass keeps as a class attribute
    algorithm, m, seed = (top.get(name, getattr(ExperimentConfig, name)) for name in ("algorithm", "m", "seed"))
    if not sections["topology"] and ALGORITHMS[algorithm].central:
        del sections["topology"]  # a central run without a [topology] section has no graph
    # the values derived from the top level: the method, and the topology's m and seed (ring by default)
    defaults = {
        "optimizer": {"method": ALGORITHMS[algorithm].method},
        "topology": {"kind": TopologyKind.RING, "m": m, "seed": seed},
    }
    for name, section in sections.items():
        cls = _SECTIONS[name]
        top[name] = cls(**_read(cls, section, f"{name}.", **defaults.get(name, {})))
    return ExperimentConfig(**top)


def _plain(value):
    """A field value as the file spells it."""
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, (tuple, list)) else value


def _echo(obj) -> dict:
    return {key: _plain(getattr(obj, name)) for key, name, _ in _KEYS[type(obj)]}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo that re-parses to an identical config."""
    out = _echo(cfg)
    # topology last, without m, as summary.json has always written it
    for name in sorted(_SECTIONS, key=lambda name: name == "topology"):
        if getattr(cfg, name) is not None:
            out[name] = _echo(getattr(cfg, name))
    return out


def load_config(path: str, overrides=(), env_seed: int | None = None) -> ExperimentConfig:
    """Parse a config file and apply seed/override layers (file < env < --set)."""
    with open(path, encoding="utf-8") as fh:
        try:
            tree = parse_config_text(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    if env_seed is not None:
        tree["seed"] = env_seed
    for pair in overrides:
        apply_override(tree, pair)
    return config_from_dict(tree)
