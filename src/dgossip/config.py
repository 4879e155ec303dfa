"""Plain-text experiment configs: sectioned key = value trees.

The format is a TOML-style subset parsed without third-party packages
(chosen so sweep bases stay hand-editable): ``[section]`` headers, one
``key = value`` per line, ``#`` comments, and scalar values that are
booleans, integers, floats, quoted strings, or flat ``[a, b]`` lists.
CLI overrides address the same tree through dotted keys
(``optimizer.lambda=0.1``).
"""

from __future__ import annotations

import copy
import math

from .engine import (
    METHOD_FOR,
    AlgorithmKind,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
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

_KIND_ALIASES = {
    "ring": TopologyKind.RING,
    "grid": TopologyKind.GRID,
    "exponential": TopologyKind.EXPONENTIAL,
    "exp": TopologyKind.EXPONENTIAL,
    "full": TopologyKind.FULLY_CONNECTED,
    "fullyconnected": TopologyKind.FULLY_CONNECTED,
    "fully_connected": TopologyKind.FULLY_CONNECTED,
    "random_k": TopologyKind.RANDOM_K,
    "randomk": TopologyKind.RANDOM_K,
    "random-k": TopologyKind.RANDOM_K,
}


def topology_kind(name: str) -> TopologyKind:
    try:
        return _KIND_ALIASES[str(name).strip().lower()]
    except KeyError:
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


def _take(section: dict, key: str, default, caster, where: str):
    if key not in section:
        return default
    value = section.pop(key)
    try:
        return caster(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {where}{key}: {exc}") from None


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        key = next(iter(section))
        raise ConfigError(f"unknown config key: {where}{key}")


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected integer, got {v!r}")
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


def config_from_dict(tree: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed tree, naming any bad key."""
    tree = copy.deepcopy(tree)

    algo_name = _take(tree, "algorithm", "oled_sgd", _as_str, "")
    try:
        algorithm = AlgorithmKind(algo_name.strip().lower().replace("-", "_"))
    except ValueError:
        raise ConfigError(f"unknown algorithm {algo_name!r}") from None

    beta = _take(tree, "beta", 0.0, _as_float, "")
    m = _take(tree, "m", 16, _as_int, "")
    rounds = _take(tree, "rounds", 100, _as_int, "")
    local_steps = _take(tree, "local_steps", 5, _as_int, "")
    participation = _take(tree, "participation", 0.1, _as_float, "")
    seed = _take(tree, "seed", 0, _as_int, "")
    eval_every = _take(tree, "eval_every", 1, _as_int, "")
    diagnostics = _take(tree, "diagnostics", False, _as_bool, "")
    targets = _take(
        tree, "targets", [0.5, 0.7, 0.9],
        lambda v: [_as_float(x) for x in v], "",
    )

    topo_sec = tree.pop("topology", {})
    if not isinstance(topo_sec, dict):
        raise ConfigError("topology must be a section")
    topology = None
    if topo_sec or algorithm not in (AlgorithmKind.FEDAVG_CENTRAL, AlgorithmKind.FEDSAM_CENTRAL):
        kind = topology_kind(_take(topo_sec, "kind", "ring", _as_str, "topology."))
        topology = TopologySpec(
            kind=kind,
            m=m,
            k=_take(topo_sec, "k", 10, _as_int, "topology."),
            seed=_take(topo_sec, "seed", seed, _as_int, "topology."),
        )
    _reject_unknown(topo_sec, "topology.")

    model_sec = tree.pop("model", {})
    model = ModelConfig(
        kind=_take(model_sec, "kind", "logistic", _as_str, "model."),
        p=_take(model_sec, "p", 8, _as_int, "model."),
        heterogeneity=_take(model_sec, "heterogeneity", 1.0, _as_float, "model."),
        hidden=tuple(
            _take(model_sec, "hidden", [], lambda v: [_as_int(x) for x in v], "model.")
        ),
    )
    _reject_unknown(model_sec, "model.")

    opt_sec = tree.pop("optimizer", {})
    derived_method = METHOD_FOR[algorithm]
    method = _take(opt_sec, "method", derived_method, _as_str, "optimizer.")
    if method != derived_method:
        raise ConfigError(
            f"optimizer.method={method!r} conflicts with algorithm "
            f"{algorithm.value!r} (implies {derived_method!r})"
        )
    optimizer = OptimizerConfig(
        method=method,
        eta0=_take(opt_sec, "eta0", 0.1, _as_float, "optimizer."),
        decay=_take(opt_sec, "decay", 0.998, _as_float, "optimizer."),
        lam=_take(opt_sec, "lambda", 0.1, _as_float, "optimizer."),
        mu=_take(opt_sec, "mu", 0.9 if derived_method == "sgd_momentum" else 0.0,
                 _as_float, "optimizer."),
        grad_floor=_take(opt_sec, "grad_floor", 1e-12, _as_float, "optimizer."),
        batch_size=_take(opt_sec, "batch_size", 32, _as_int, "optimizer."),
    )
    _reject_unknown(opt_sec, "optimizer.")

    part_sec = tree.pop("partition", {})
    partition = PartitionConfig(
        scheme=_take(part_sec, "scheme", "dirichlet", _as_str, "partition."),
        alpha=_take(part_sec, "alpha", 0.3, _as_float, "partition."),
        classes_per_client=_take(part_sec, "classes_per_client", 2, _as_int, "partition."),
    )
    _reject_unknown(part_sec, "partition.")

    data_sec = tree.pop("data", {})
    data = DataConfig(
        source=_take(data_sec, "source", "synthetic", _as_str, "data."),
        classes=_take(data_sec, "classes", 4, _as_int, "data."),
        dim=_take(data_sec, "dim", 10, _as_int, "data."),
        per_class=_take(data_sec, "per_class", 100, _as_int, "data."),
        spread=_take(data_sec, "spread", 0.5, _as_float, "data."),
        test_per_class=_take(data_sec, "test_per_class", 50, _as_int, "data."),
        path=_take(data_sec, "path", "", _as_str, "data."),
        test_path=_take(data_sec, "test_path", "", _as_str, "data."),
    )
    _reject_unknown(data_sec, "data.")
    _reject_unknown(tree, "")

    return ExperimentConfig(
        algorithm=algorithm,
        beta=beta,
        m=m,
        rounds=rounds,
        local_steps=local_steps,
        participation=participation,
        seed=seed,
        eval_every=eval_every,
        diagnostics=diagnostics,
        targets=tuple(targets),
        topology=topology,
        model=model,
        optimizer=optimizer,
        partition=partition,
        data=data,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo that re-parses to an identical config."""
    out = {
        "algorithm": AlgorithmKind(cfg.algorithm).value,
        "beta": cfg.beta,
        "m": cfg.m,
        "rounds": cfg.rounds,
        "local_steps": cfg.local_steps,
        "participation": cfg.participation,
        "seed": cfg.seed,
        "eval_every": cfg.eval_every,
        "diagnostics": cfg.diagnostics,
        "targets": list(cfg.targets),
        "model": {
            "kind": cfg.model.kind,
            "p": cfg.model.p,
            "heterogeneity": cfg.model.heterogeneity,
            "hidden": list(cfg.model.hidden),
        },
        "optimizer": {
            "method": cfg.optimizer.method,
            "eta0": cfg.optimizer.eta0,
            "decay": cfg.optimizer.decay,
            "lambda": cfg.optimizer.lam,
            "mu": cfg.optimizer.mu,
            "grad_floor": cfg.optimizer.grad_floor,
            "batch_size": cfg.optimizer.batch_size,
        },
        "partition": {
            "scheme": cfg.partition.scheme,
            "alpha": cfg.partition.alpha,
            "classes_per_client": cfg.partition.classes_per_client,
        },
        "data": {
            "source": cfg.data.source,
            "classes": cfg.data.classes,
            "dim": cfg.data.dim,
            "per_class": cfg.data.per_class,
            "spread": cfg.data.spread,
            "test_per_class": cfg.data.test_per_class,
            "path": cfg.data.path,
            "test_path": cfg.data.test_path,
        },
    }
    if cfg.topology is not None:
        out["topology"] = {
            "kind": TopologyKind(cfg.topology.kind).value,
            "k": cfg.topology.k,
            "seed": cfg.topology.seed,
        }
    return out


def load_config(path: str, overrides=(), env_seed: int | None = None) -> ExperimentConfig:
    """Parse a config file and apply seed/override layers (file < env < --set)."""
    with open(path) as fh:
        tree = parse_config_text(fh.read())
    if env_seed is not None:
        tree["seed"] = env_seed
    for pair in overrides:
        apply_override(tree, pair)
    return config_from_dict(tree)
