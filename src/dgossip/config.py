"""Plain-text experiment configs: sectioned key = value trees.

The format is a TOML-style subset parsed without third-party packages
(chosen so sweep bases stay hand-editable): ``[section]`` headers, one
``key = value`` per line, ``#`` comments, and scalar values that are
booleans, integers, floats, quoted strings, or flat ``[a, b]`` lists.
CLI overrides address the same tree through dotted keys
(``optimizer.lambda=0.1``).  The keys are the fields of the config
dataclasses, read and written by walking them, less the two that are
derived: ``optimizer.method`` from the algorithm and ``topology.m`` from m.
Each value goes through the cast of its field's type, the one that
``engine.validated`` applies to a config built in Python.  An absent key
takes its field's default, so a file and Python build the same config;
only ``topology.kind`` (ring; the field has no default) and
``topology.seed`` (the top-level seed) are filled in from elsewhere.
"""

from __future__ import annotations

from enum import Enum

from .engine import _SCALARS, _SECTIONS, CENTRAL_KINDS, METHOD_FOR, ConfigError, ExperimentConfig
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


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        key = next(iter(section))
        raise ConfigError(f"unknown config key: {where}{key}")


# (file key, field name, cast) for each scalar field of each config dataclass, less the two derived ones
_DERIVED = {(OptimizerConfig, "method"), (TopologySpec, "m")}
_KEYS = {
    cls: [(key, name, cast) for key, name, cast in scalars if (cls, name) not in _DERIVED]
    for cls, scalars in _SCALARS.items()
}


def _read(cls, section: dict, where: str, **values) -> dict:
    """The field values of ``cls`` that a section gives, cast, over ``values``."""
    for key, name, cast in _KEYS[cls]:
        if key in section:
            try:
                values[name] = cast(section.pop(key))
            except ConfigError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {where}{key}: {exc}") from None
    _reject_unknown(section, where)
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
    if not sections["topology"] and algorithm in CENTRAL_KINDS:
        del sections["topology"]  # a central run without a [topology] section has no graph
    # the values derived from the top level: the method, and the topology's m and seed (ring by default)
    defaults = {
        "optimizer": {"method": METHOD_FOR[algorithm]},
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
