"""The traced benchmark still fits the program it wraps.

Tier-1 runs no benchmark, so a renamed function or a changed ``Problem``
would otherwise break ``bench/run.py --trace 1`` unseen.  These checks read
``bench/`` only.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dgossip import config, engine, localopt, models
from dgossip.config import DataConfig, ExperimentConfig, ModelConfig, load_config
from dgossip.localopt import OptimizerConfig
from dgossip.topology import TopologyKind, TopologySpec

BENCH = Path(__file__).parents[1] / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = load_spans()
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in spans.TARGETS if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("kind, builds", [(TopologyKind.RING, 1), (TopologyKind.RANDOM_K, 3)])
def test_traced_run_counts_each_layer_once_per_round(kind, builds):
    # bench/run.py --trace 1 divides by the engine.round count and counts layers
    # through the engine's module lookups; a call that bypasses them reads 0
    spans = load_spans()
    cfg = ExperimentConfig(
        m=6, rounds=3, local_steps=2, eval_every=2,
        topology=TopologySpec(kind, 6, k=2, seed=1),
        optimizer=OptimizerConfig(batch_size=4),
        data=DataConfig(classes=3, dim=4, per_class=8, test_per_class=4),
    )
    with spans.traced(spans.Tracer()) as tracer:
        result = engine.run_experiment(cfg)
    assert [r.t for r in result.records] == [0, 2]
    for name in ("engine.round", "localopt.local_train", "engine.gossip_mix"):
        assert tracer.count(name) == 3, name
    assert tracer.count("topology.build_mixing") == builds
    problem = engine.build_problem(cfg)
    groups = -(-len(result.records) // models.evaluation_group(problem.spec, problem.shards, problem.test))
    assert tracer.count("models.full_objective") == tracer.count("metrics.eval_model") == groups


def test_traced_run_under_the_pool_counts_one_local_train_per_range():
    # with workers=2 the tracer still sees one round and one gossip call per round, and one
    # local-phase span per round; the second range trains in a forked worker, whose calls
    # reach a copy of the tracer, so it counts only the caller's range
    spans = load_spans()
    cfg = ExperimentConfig(
        m=7, rounds=3, local_steps=2,
        topology=TopologySpec(TopologyKind.RANDOM_K, 7, k=2, seed=1),
        optimizer=OptimizerConfig(batch_size=4),
        data=DataConfig(classes=3, dim=4, per_class=8, test_per_class=4),
    )
    with spans.traced(spans.Tracer()) as tracer:
        result = engine.run_experiment(cfg, workers=2)
    assert len(result.records) == 3
    assert tracer.count("engine.round") == tracer.count("engine.gossip_mix") == 3
    assert tracer.count("localopt.local_train") == 3 * 1
    assert sorted(tracer.phases) == [1, 2, 3]
    assert all(end > start for start, end in tracer.phases.values())
    assert tracer.phase_wall_s() > 0


ROUND_PATH = ("run_round", "local_train", "gossip_mix", "full_objective", "eval_model")


@pytest.mark.parametrize(
    "overrides, skipped",
    [
        ({"topology": TopologySpec(TopologyKind.RING, 6)}, ()),
        ({"algorithm": config.AlgorithmKind.FEDAVG_CENTRAL, "participation": 0.5}, ("gossip_mix",)),
    ],
    ids=["ring", "central"],
)
def test_runs_call_every_round_path_target(monkeypatch, overrides, skipped):
    # a wrapped name that the run path stops calling would read 0 in its per-layer metric
    spans = load_spans()
    calls = {}
    for mod, attr, _ in spans.TARGETS:
        def counted(*args, _attr=attr, _fn=getattr(mod, attr), **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    cfg = ExperimentConfig(
        m=6, rounds=2, local_steps=2,
        optimizer=OptimizerConfig(batch_size=4),
        data=DataConfig(classes=3, dim=4, per_class=8, test_per_class=4),
        **overrides,
    )
    engine.run_experiment(cfg)
    called = {name: calls.get(name, 0) > 0 for name in ROUND_PATH}
    assert called == {name: name not in skipped for name in ROUND_PATH}


@pytest.mark.parametrize(
    "overrides",
    [
        {"topology": TopologySpec(TopologyKind.RING, 6)},
        {"algorithm": config.AlgorithmKind.FEDAVG_CENTRAL, "participation": 0.5},
    ],
    ids=["ring", "central"],
)
def test_traced_run_draws_through_the_engines_client_batches(monkeypatch, overrides):
    # the draw runs outside engine.round; a tracer can time it only by wrapping the
    # engine's client_batches, which every block of draws must therefore reach
    spans = load_spans()
    draw, blocks = engine.client_batches, []

    def recording(seed, clients, rounds, *rest):
        blocks.append(list(zip(np.broadcast_to(rounds, len(clients)).tolist(), np.asarray(clients).tolist())))
        return draw(seed, clients, rounds, *rest)

    monkeypatch.setattr(engine, "client_batches", recording)
    cfg = engine.validated(ExperimentConfig(
        m=6, rounds=3, local_steps=2,
        optimizer=OptimizerConfig(batch_size=4),
        data=DataConfig(classes=3, dim=4, per_class=8, test_per_class=4),
        **overrides,
    ))
    with spans.traced(spans.Tracer()) as tracer:
        engine.run_experiment(cfg)
    assert tracer.count("engine.round") == 3
    assert len(blocks) == 1  # three rounds of 6 clients fit one block
    assert blocks[0] == [(t, int(i)) for t in range(3) for i in engine.participants(cfg, 6, t)]


@pytest.mark.parametrize(
    "partition",
    [["partition.scheme=iid"], ["partition.scheme=dirichlet"],
     ["partition.scheme=pathological", "partition.classes_per_client=2"]],
    ids=["iid", "dirichlet", "pathological"],
)
def test_traced_setup_counts_each_setup_layer(partition):
    # bench/run.py --trace 1 divides the set-up spans by the set-ups it traced;
    # a load or a partition that bypassed the wrapped lookups would read 0 ms
    spans = load_spans()
    preset = BENCH.parent / "configs" / "logistic_dirichlet.toml"
    with spans.traced(spans.Tracer()) as tracer:
        engine.build_problem(config.load_config(str(preset), partition))
    counts = {name: tracer.count(name) for name in ("config.load", "data.generate", "data.partition")}
    assert counts == {"config.load": 1, "data.generate": 2, "data.partition": 1}


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_kernels_read_a_built_problem(kind):
    cfg = ExperimentConfig(
        m=4, rounds=1, local_steps=2,
        topology=TopologySpec(TopologyKind.RING, 4),
        model=ModelConfig(kind=kind, p=3, hidden=(5,)),
        optimizer=OptimizerConfig(batch_size=4),
        data=DataConfig(classes=3, dim=4, per_class=8, test_per_class=4),
    )
    problem = engine.build_problem(cfg)
    spec, x0 = problem.spec, problem.x0
    loss, grad = models.full_objective(spec, x0, problem.shards)
    per_client = [models.loss_and_grad(spec, x0, shard) for shard in problem.shards]
    assert loss == pytest.approx(np.mean([l for l, _ in per_client]), rel=1e-12)
    assert grad.shape == x0.shape
    # the one-client references the kernels time take a shard of the stack
    z = localopt.local_train(
        spec, x0, problem.shards[0], cfg.local_steps, engine.validated(cfg).optimizer,
        np.random.default_rng(0), round_index=1,
    ).z
    assert z.shape == x0.shape and np.isfinite(z).all()


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_checks_pass_on_the_presets(monkeypatch):
    # the --trace 1 pass checks psi, the dense W, spectral_gap, gossip and every
    # gradient kernel against values computed apart; one call per timing keeps it short
    run, kernels = load_bench("run"), load_bench("kernels")

    def once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(kernels, "time_per_call", once)
    cfgs = {kind: load_config(str(run.ROOT / "configs" / name)) for kind, name in run.PRESET_FILES.items()}
    presets = {kind: engine.build_problem(cfg) for kind, cfg in cfgs.items()}
    timings, fails = kernels.run_kernels(presets, presets["mlp"], cfgs["mlp"])
    assert fails == []
    assert "topology.spectral_gap.ms_per_call" in timings


def test_every_workload_builds_its_configs(monkeypatch):
    # bench/workloads.py imports CENTRAL_KINDS, LOOKAHEAD_KINDS, ConfigError and
    # DivergenceError from dgossip.engine, and no other test loads it
    monkeypatch.syspath_prepend(str(BENCH))  # for its own `from kernels import`
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # where @dataclass looks its module up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        cfgs = workload.configs(seed=0)
        assert len(cfgs) == len(workload.overrides) and all(engine.validated(cfg) is cfg for cfg in cfgs)
