"""Plain-text experiment configs: sectioned key = value trees.

The format is a TOML-style subset parsed without third-party packages
(chosen so sweep bases stay hand-editable): ``[section]`` headers, one
``key = value`` per line, ``#`` comments, and scalar values that are
booleans, integers, floats, quoted strings, or flat ``[a, b]`` lists.
CLI overrides address the same tree through dotted keys
(``optimizer.lambda=0.1``).  The keys are the fields of the config
dataclasses, read and written by walking them, less the two that are
derived: ``optimizer.method`` from the algorithm and ``topology.m`` from m.
"""

from __future__ import annotations

import math
import typing
from dataclasses import fields, is_dataclass, replace
from enum import Enum

from .engine import CENTRAL_KINDS, METHOD_FOR, AlgorithmKind, ConfigError, ExperimentConfig
from .localopt import OptimizerConfig
from .topology import TopologyKind, TopologySpec

__all__ = [
    "parse_config_text",
    "parse_scalar",
    "apply_override",
    "config_from_dict",
    "config_to_dict",
    "load_config",
]


def topology_kind(name: str) -> TopologyKind:
    try:
        return TopologyKind(name)
    except ValueError:
        raise ConfigError(f"unknown topology kind {name!r}") from None


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


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


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        key = next(iter(section))
        raise ConfigError(f"unknown config key: {where}{key}")


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


def _as_algorithm(v) -> AlgorithmKind:
    name = _as_str(v)
    try:
        return AlgorithmKind(name.strip().lower().replace("-", "_"))
    except ValueError:
        raise ConfigError(f"unknown algorithm {name!r}") from None


def _tuple_of(cast):
    return lambda v: tuple(cast(x) for x in v)


# every config field is read through the cast of its declared type
_CASTS = {
    int: _as_int,
    float: _as_float,
    str: _as_str,
    bool: _as_bool,
    tuple[int, ...]: _tuple_of(_as_int),
    tuple[float, ...]: _tuple_of(_as_float),
    AlgorithmKind: _as_algorithm,
    TopologyKind: lambda v: topology_kind(_as_str(v)),
}

# the file key of a field where it differs from the field name; None: not a file key
_FILE_KEY = {(OptimizerConfig, "lam"): "lambda", (OptimizerConfig, "method"): None, (TopologySpec, "m"): None}


def _section_class(hint):
    """The config dataclass a field holds (``X`` or ``X | None``); None for a scalar field."""
    return next((t for t in typing.get_args(hint) or (hint,) if is_dataclass(t)), None)


def _file_keys(cls) -> list:
    """(file key, field name, cast) for each scalar field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    keys = [(_FILE_KEY.get((cls, f.name), f.name), f.name, hints[f.name]) for f in fields(cls)]
    return [(key, name, _CASTS[hint]) for key, name, hint in keys if key and not _section_class(hint)]


# section name -> dataclass, in field order; the other ExperimentConfig fields are top-level keys
_SECTIONS = {
    name: _section_class(hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
    if _section_class(hint)
}
_KEYS = {cls: _file_keys(cls) for cls in (ExperimentConfig, *_SECTIONS.values())}


def _read(cls, section: dict, where: str, **values):
    """Build ``cls`` from a section; absent keys take ``values``, else the field defaults."""
    for key, name, cast in _KEYS[cls]:
        if key in section:
            try:
                values[name] = cast(section.pop(key))
            except ConfigError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {where}{key}: {exc}") from None
    _reject_unknown(section, where)
    return cls(**values)


def config_from_dict(tree: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed tree, naming any bad key."""
    tree = dict(tree)  # keys are popped as they are read; the caller's tree is left whole
    sections = {}
    for name in _SECTIONS:
        section = tree.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a section")
        sections[name] = dict(section)
    cfg = _read(ExperimentConfig, tree, "")
    if not sections["topology"] and cfg.algorithm in CENTRAL_KINDS:
        del sections["topology"]  # a central run without a [topology] section has no graph
    method = METHOD_FOR[cfg.algorithm]
    # the file's defaults where they differ from the dataclasses', and the derived method and topology.m
    defaults = {
        "optimizer": {"method": method, "lam": 0.1, "mu": 0.9 if method == "sgd_momentum" else 0.0},
        "topology": {"kind": TopologyKind.RING, "m": cfg.m, "k": 10, "seed": cfg.seed},
    }
    parts = {
        name: _read(_SECTIONS[name], section, f"{name}.", **defaults.get(name, {}))
        for name, section in sections.items()
    }
    return replace(cfg, **parts)


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
