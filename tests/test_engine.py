"""Round orchestration: lookahead init, mixing, baselines, determinism."""

import ast
import copy
import dataclasses
import importlib
import math
import multiprocessing
import os
import pkgutil
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dgossip
from dgossip import blas, config, engine, keyed, localopt, models
from dgossip.config import (
    AlgorithmKind,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
    validated,
)
from dgossip.engine import (
    DivergenceError,
    Problem,
    RoundInfo,
    build_problem,
    client_batches,
    gossip_mix,
    iter_rounds,
    ole_init,
    participants,
    run_experiment,
    run_round,
)
from dgossip.data import generate_synthetic, partition_dirichlet, partition_iid, partition_pathological
from dgossip.localopt import OptimizerConfig
from dgossip.metrics import consensus_distance, consistency_delta
from dgossip.models import ModelSpec, ShardStack, quadratic_testbed
from dgossip.stability import first_draw
from dgossip.topology import TopologyKind, TopologySpec, build_mixing
from stream_reference import (
    GAMMA,
    MASK,
    build_seeds,
    column,
    graph_seed,
    mix64,
    participants as reference_participants,
    reference_draws,
    stream_key,
)


def logistic_cfg(**overrides):
    base = dict(
        algorithm=AlgorithmKind.OLED_SGD,
        beta=0.2,
        m=8,
        rounds=10,
        local_steps=3,
        seed=0,
        topology=TopologySpec(TopologyKind.RING, 8),
        model=ModelConfig(kind="logistic"),
        optimizer=OptimizerConfig(eta0=0.1, decay=0.998, batch_size=8),
        partition=PartitionConfig(scheme="dirichlet", alpha=0.5),
        data=DataConfig(classes=3, dim=6, per_class=40, spread=0.8, test_per_class=20),
    )
    base.update(overrides)
    if "m" in overrides and "topology" not in overrides:
        base["topology"] = TopologySpec(TopologyKind.RING, overrides["m"])
    return ExperimentConfig(**base)


def quadratic_cfg(**overrides):
    base = dict(
        algorithm=AlgorithmKind.OLED_SGD,
        beta=0.2,
        m=16,
        rounds=40,
        local_steps=5,
        seed=0,
        topology=TopologySpec(TopologyKind.RING, 16),
        model=ModelConfig(kind="quadratic", p=6, heterogeneity=1.0),
        optimizer=OptimizerConfig(eta0=0.05, decay=1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestOleInit:
    def test_beta_zero_identity(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(ole_init(x, np.array([9.0, 9.0]), 0.0), x)

    def test_hand_example(self):
        out = ole_init(np.array([1.0, 2.0]), np.array([0.5, 3.0]), 0.5)
        assert out == pytest.approx([1.25, 1.5])

    def test_round_zero_fixed_point(self):
        x0 = np.array([0.3, -0.7, 2.0])
        for beta in (0.0, 0.5, 0.99):
            assert np.array_equal(ole_init(x0, x0, beta), x0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ole_init(np.zeros(2), np.zeros(3), 0.1)


class TestGossipMix:
    def test_fully_connected_two_clients_average(self):
        w = build_mixing(TopologySpec(TopologyKind.FULLY_CONNECTED, 2))
        out = gossip_mix(np.array([[2.0], [0.0]]), w)
        assert np.allclose(out, [[1.0], [1.0]])

    def test_consensus_fixed_point(self):
        w = build_mixing(TopologySpec(TopologyKind.RING, 5))
        z = np.tile(np.array([1.5, -2.0]), (5, 1))
        assert np.allclose(gossip_mix(z, w), z, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=1000))
    def test_mean_preservation(self, m, seed):
        w = build_mixing(TopologySpec(TopologyKind.RING, m))
        z = np.random.default_rng(seed).normal(size=(m, 4))
        out = gossip_mix(z, w)
        assert np.abs(out.mean(axis=0) - z.mean(axis=0)).max() <= 1e-12


class TestValidation:
    def test_beta_one_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            validated(logistic_cfg(beta=1.0))

    # README's algorithm table: beta is kept with lookahead only, K forced to 1 for
    # dpsgd's single step, and the local optimizer follows from the algorithm
    @pytest.mark.parametrize(
        "algorithm, beta, local_steps, method",
        [
            ("oled_sgd", 0.5, 3, "sgd"),
            ("oled_sam", 0.5, 3, "sam"),
            ("dfedavg", 0.0, 3, "sgd"),
            ("dfedavgm", 0.0, 3, "sgd_momentum"),
            ("dfedsam", 0.0, 3, "sam"),
            ("dpsgd", 0.0, 1, "sgd"),
            ("fedavg_central", 0.0, 3, "sgd"),
            ("fedsam_central", 0.0, 3, "sam"),
        ],
    )
    def test_each_algorithm_sets_beta_k_and_method_as_the_readme_table(self, algorithm, beta, local_steps, method):
        base = logistic_cfg(algorithm=AlgorithmKind(algorithm), beta=0.5, local_steps=3)
        cfg = validated(dataclasses.replace(base, optimizer=dataclasses.replace(base.optimizer, method="sgd")))
        assert (cfg.beta, cfg.local_steps, cfg.optimizer.method) == (beta, local_steps, method)

    def test_decentralized_requires_topology(self):
        with pytest.raises(ConfigError, match="topology"):
            validated(dataclasses.replace(logistic_cfg(), topology=None))

    def test_central_requires_participation(self):
        cfg = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, participation=0.0)
        with pytest.raises(ConfigError, match="participation"):
            validated(cfg)

    def test_round_minibatch_indices_bounded(self):
        with pytest.raises(ConfigError, match="local_steps \\* m \\* optimizer.batch_size"):
            validated(logistic_cfg(local_steps=2**28))  # 2**28 * 8 * 8 indices
        # dpsgd takes one step whatever local_steps says
        assert validated(logistic_cfg(algorithm=AlgorithmKind.DPSGD, local_steps=2**28)).local_steps == 1

    def test_topology_m_mismatch(self):
        with pytest.raises(ConfigError, match="topology.m"):
            validated(logistic_cfg(topology=TopologySpec(TopologyKind.RING, 4)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field, named",
        [("optimizer.eta0", "eta0"), ("optimizer.lam", "lambda"), ("optimizer.grad_floor", "grad_floor"),
         ("model.heterogeneity", "model.heterogeneity"), ("data.spread", "data.spread")],
    )
    def test_non_finite_float_is_refused_by_name(self, field, named, value):
        # a config file's values are refused earlier, by config._as_float
        section, name = field.split(".")
        cfg = quadratic_cfg() if section == "model" else logistic_cfg()
        cfg = dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **{name: value})})
        with pytest.raises(ConfigError, match=named):
            validated(cfg)

    def test_seed_is_one_64_bit_word(self):
        # the minibatch stream takes the seed in as one uint64 word
        assert validated(logistic_cfg(seed=2**64 - 1)).seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                validated(logistic_cfg(seed=seed))

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(rounds=True), "bad value for rounds: expected integer"),
            (dict(rounds=2.0), "bad value for rounds: expected integer"),
            (dict(eval_every=1.5), "bad value for eval_every: expected integer"),
            (dict(seed=1.5), "bad value for seed: expected integer"),
            (dict(topology=TopologySpec(TopologyKind.RING, 8, seed=1.5)), "bad value for topology.seed"),
            (dict(diagnostics=1), "bad value for diagnostics: expected true/false"),
            (dict(algorithm=AlgorithmKind.FEDAVG_CENTRAL, topology=None, participation=True),
             "bad value for participation: expected a finite number"),
            (dict(local_steps=2.5), "bad value for local_steps"),
            (dict(local_steps=True), "bad value for local_steps"),
            (dict(optimizer=OptimizerConfig(batch_size=True)), "bad value for optimizer.batch_size"),
            (dict(optimizer=OptimizerConfig(batch_size=4.0)), "bad value for optimizer.batch_size"),
            (dict(model=ModelConfig(kind="mlp", hidden=(4.0,))), "bad value for model.hidden"),
            (dict(data=DataConfig(classes=4.0)), "bad value for data.classes"),
            (dict(data=DataConfig(dim=True)), "bad value for data.dim"),
            (dict(partition=PartitionConfig(scheme="pathological", classes_per_client=2.0)),
             "bad value for partition.classes_per_client"),
            (dict(topology=TopologySpec("Ring", 8)), "unknown topology kind 'Ring'"),
            (dict(model="mlp"), "model must be a ModelConfig"),
            (dict(algorithm="OLED_SGD"), "unknown algorithm 'OLED_SGD'"),
        ],
    )
    def test_a_wrongly_typed_python_value_is_refused_by_name_before_any_round(self, overrides, named):
        # a config built in Python goes through the casts that a config file's values go through
        def no_round(t, info):
            pytest.fail(f"round {t} ran")

        with pytest.raises(ConfigError, match=named):
            run_experiment(logistic_cfg(**overrides), on_round=no_round)

    def test_an_exact_kind_string_converts_to_its_kind(self):
        cfg = validated(logistic_cfg(algorithm="oled_sam", topology=TopologySpec("random_k", 8, k=2)))
        assert cfg.algorithm is AlgorithmKind.OLED_SAM and cfg.topology.kind is TopologyKind.RANDOM_K
        assert run_experiment(cfg).records == run_experiment(
            logistic_cfg(algorithm=AlgorithmKind.OLED_SAM, topology=TopologySpec(TopologyKind.RANDOM_K, 8, k=2))
        ).records


class TestBuildProblem:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 1e308])
    def test_alpha_without_dirichlet_shares_is_a_config_error(self, alpha):
        # inf and NaN draw NaN shares; at m=8, 1e308 overflows the draws' sum and draws zeros
        with pytest.raises(ConfigError, match="partition.alpha"):
            build_problem(logistic_cfg(partition=PartitionConfig(scheme="dirichlet", alpha=alpha)))

    @pytest.mark.parametrize("scheme", ["iid", "dirichlet", "pathological"])
    def test_shards_are_the_partition_rows(self, scheme):
        cfg = logistic_cfg(partition=PartitionConfig(scheme=scheme, alpha=0.5, classes_per_client=2))
        problem = engine.build_problem(cfg)
        d = cfg.data
        data_seed, part_seed, _ = build_seeds(cfg.seed)
        dataset = generate_synthetic(d.classes, d.dim, d.per_class, d.spread, data_seed)
        if scheme == "iid":
            plan = partition_iid(dataset, cfg.m, part_seed)
        elif scheme == "dirichlet":
            plan = partition_dirichlet(dataset, cfg.m, 0.5, part_seed)
        else:
            plan = partition_pathological(dataset, cfg.m, 2, part_seed)
        assert isinstance(problem.shards, ShardStack)
        assert len(problem.shards) == len(plan) == cfg.m
        for i, idx in enumerate(plan):
            shard = problem.shards[i]
            assert shard.features.tobytes() == dataset.features[idx].tobytes()
            assert shard.labels.tobytes() == dataset.labels[idx].tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    def test_build_seeds_are_the_keyed_references(self, monkeypatch, seed):
        seen = {}
        for name in ("generate_synthetic", "generate_synthetic_holdout", "partition_dirichlet", "init_params",
                     "quadratic_testbed"):
            def recording(*args, _name=name, _fn=getattr(engine, name)):
                seen.setdefault(_name, []).append(args[-1])  # each takes its seed last
                return _fn(*args)

            monkeypatch.setattr(engine, name, recording)
        build_problem(logistic_cfg(seed=seed))
        build_problem(quadratic_cfg(seed=seed))
        data_seed, part_seed, init_seed = build_seeds(seed)
        assert seen == {
            "generate_synthetic": [data_seed],
            "generate_synthetic_holdout": [data_seed],
            "partition_dirichlet": [part_seed],
            "init_params": [init_seed, init_seed],
            "quadratic_testbed": [data_seed],
        }

    def test_quadratic_shards_are_client_indices(self):
        problem = engine.build_problem(quadratic_cfg(m=5, topology=TopologySpec(TopologyKind.RING, 5)))
        assert isinstance(problem.shards, ShardStack)
        assert list(problem.shards) == [0, 1, 2, 3, 4]
        assert problem.shards[3] == 3

    def test_runs_read_the_problem_stack_in_place(self, monkeypatch):
        problem = engine.build_problem(logistic_cfg(rounds=2))
        seen = []

        def recorded(spec, x0, shards, *args, **kwargs):
            seen.append(shards)
            return localopt.local_train(spec, x0, shards, *args, **kwargs)

        monkeypatch.setattr(engine, "local_train", recorded)
        run_experiment(logistic_cfg(rounds=2), problem=problem)
        assert len(seen) == 2 and all(shards is problem.shards for shards in seen)
        assert [f.name for f in dataclasses.fields(engine.Problem)] == ["spec", "shards", "test", "x0"]


CENTRAL_CFG = dict(algorithm=AlgorithmKind.FEDSAM_CENTRAL, participation=0.5, topology=None)


def round_inputs(cfg, problem, t):
    """Round t's participants and their minibatch indices, derived for that round alone."""
    clients = participants(cfg, cfg.m, t)
    sizes = problem.shards.sizes[clients]
    return clients, client_batches(cfg.seed, clients, t, sizes, cfg.local_steps, cfg.optimizer.batch_size)


class TestRoundContract:
    """A round maps two (m, p) arrays to a RoundInfo; the next starts from its x_mixed and z."""

    @pytest.mark.parametrize(
        "overrides", [{"diagnostics": True}, {**CENTRAL_CFG, "diagnostics": True}], ids=["ring", "central"]
    )
    def test_iter_rounds_is_a_hand_driven_loop_from_tiled_x0(self, overrides):
        cfg = validated(logistic_cfg(rounds=4, **overrides))
        problem = build_problem(cfg)
        w = None if cfg.topology is None else build_mixing(cfg.topology)
        x = z = np.tile(problem.x0, (cfg.m, 1))
        for info in iter_rounds(cfg, problem):
            hand = run_round(x, z, info.t, cfg, w, problem, *round_inputs(cfg, problem, info.t))
            for name in ("ole_points", "z", "x_prev", "x_mixed", "drift"):
                got, want = getattr(info, name), getattr(hand, name)
                assert (got is None and want is None) or got.tobytes() == want.tobytes(), name
            x, z = hand.x_mixed, hand.z
        assert info.t == cfg.rounds - 1

    @pytest.mark.parametrize("entry", ["run_experiment", "run_experiment_two_workers", "iter_rounds", "run_round"])
    @pytest.mark.parametrize("overrides", [{}, CENTRAL_CFG], ids=["ring", "central"])
    def test_a_problem_built_for_another_client_count_is_refused(self, overrides, entry):
        # a central run used to train the other count's clients silently, a ring one to fail in gossip_mix
        cfg = validated(logistic_cfg(rounds=2, **overrides))
        other = build_problem(logistic_cfg(m=16, **overrides))
        x = np.tile(other.x0, (cfg.m, 1))
        w = None if cfg.topology is None else build_mixing(cfg.topology)
        calls = {
            "run_experiment": lambda: run_experiment(cfg, problem=other),
            "run_experiment_two_workers": lambda: run_experiment(cfg, workers=2, problem=other),
            "iter_rounds": lambda: next(iter_rounds(cfg, other)),
            "run_round": lambda: run_round(x, x, 0, cfg, w, other, *round_inputs(cfg, other, 0)),
        }
        with pytest.raises(ConfigError, match="m=8, but the problem was built for 16 clients"):
            calls[entry]()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("z_prev", ["nan", "shape"])
    def test_central_round_never_reads_z_prev(self, z_prev):
        cfg = validated(logistic_cfg(rounds=1, **CENTRAL_CFG))
        problem = build_problem(cfg)
        rng = np.random.default_rng(5)
        x = np.tile(rng.normal(size=problem.x0.shape), (cfg.m, 1))
        odd = np.full_like(x, np.nan) if z_prev == "nan" else np.zeros((3, 1))
        ref, got = (run_round(x, z, 2, cfg, None, problem, *round_inputs(cfg, problem, 2)) for z in (x, odd))
        assert got.ole_points is None and ref.ole_points is None
        for name in ("z", "x_prev", "x_mixed"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


class TestOleChebyshevEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_init_points_equal_modified_matrix_action(self, m, beta, seed):
        rng = np.random.default_rng(seed)
        w = build_mixing(TopologySpec(TopologyKind.RING, m))
        z = rng.normal(size=(m, 5))
        x_mixed = gossip_mix(z, w)
        ole_points = np.stack([ole_init(x_mixed[i], z[i], beta) for i in range(m)])
        direct = ((1.0 + beta) * w.w - beta * np.eye(m)) @ z
        assert np.abs(ole_points - direct).max() <= 1e-10

    def test_ole_preserves_the_mean_after_round_one(self):
        cfg = logistic_cfg(rounds=6, beta=0.4)
        infos = []
        run_experiment(cfg, on_round=lambda t, info: infos.append(info))
        for info in infos[1:]:  # t >= 1
            gap = np.abs(info.ole_points.mean(axis=0) - info.x_prev.mean(axis=0)).max()
            assert gap <= 1e-10

    def test_in_run_init_points_match_modified_matrix(self):
        cfg = logistic_cfg(rounds=6, beta=0.35)
        w = build_mixing(cfg.topology)
        modified = (1.0 + cfg.beta) * w.w - cfg.beta * np.eye(w.m)
        infos = []
        run_experiment(cfg, on_round=lambda t, info: infos.append(info))
        for prev, cur in zip(infos, infos[1:]):
            assert np.abs(cur.ole_points - modified @ prev.z).max() <= 1e-10


class TestRunExperiment:
    def test_bitwise_repeatable(self):
        cfg = logistic_cfg()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records == b.records
        assert np.array_equal(a.final_x, b.final_x)

    def test_worker_count_invisible(self):
        cfg = logistic_cfg(rounds=8)
        a = run_experiment(cfg, workers=1)
        b = run_experiment(cfg, workers=4)
        assert a.records == b.records
        assert np.array_equal(a.final_x, b.final_x)

    def test_mixing_preserves_global_average_every_round(self):
        cfg = logistic_cfg(rounds=12, beta=0.3)

        def check(t, info):
            assert np.abs(info.x_mixed.mean(axis=0) - info.z.mean(axis=0)).max() <= 1e-12

        run_experiment(cfg, on_round=check)

    def test_beta_zero_equals_dfedavg_bitwise(self):
        a = run_experiment(logistic_cfg(beta=0.0))
        b = run_experiment(logistic_cfg(algorithm=AlgorithmKind.DFEDAVG, beta=0.0))
        assert a.records == b.records
        assert np.array_equal(a.final_x, b.final_x)

    def test_dpsgd_is_single_step_dfedavg(self):
        a = run_experiment(logistic_cfg(algorithm=AlgorithmKind.DPSGD, local_steps=7))
        b = run_experiment(logistic_cfg(algorithm=AlgorithmKind.DFEDAVG, local_steps=1))
        assert np.array_equal(a.final_x, b.final_x)

    def test_single_client_runs_without_communication(self):
        cfg = logistic_cfg(m=1, topology=TopologySpec(TopologyKind.FULLY_CONNECTED, 1), rounds=3)
        result = run_experiment(cfg)
        assert len(result.records) == 3
        assert all(rec.consensus == 0.0 for rec in result.records)
        assert all(rec.delta_t == 0.0 for rec in result.records)

    def test_single_client_round_is_k_plain_local_steps(self):
        # mixing with w = [1] is the identity, so one round == K sgd steps
        spec = ModelSpec(
            kind="quadratic",
            quad_a=np.eye(2)[None],
            quad_b=np.zeros((1, 2)),
            quad_opt=np.zeros(2),
        )
        cfg = validated(
            quadratic_cfg(m=1, topology=TopologySpec(TopologyKind.FULLY_CONNECTED, 1), rounds=1)
        )
        x0 = np.array([1.0, -2.0])
        x = z = x0[None]
        from dgossip.topology import MixingMatrix

        w1 = MixingMatrix(np.zeros((1, 1), dtype=np.intp), np.ones((1, 1)))
        info = run_round(x, z, 0, cfg, w1, Problem(spec, ShardStack.of([0]), None, x0), np.arange(1), None)
        expected = x0 * (1 - cfg.optimizer.eta0) ** cfg.local_steps
        assert np.allclose(info.x_mixed[0], expected, atol=1e-15)

    def test_zero_rounds_reports_initial_metrics(self):
        result = run_experiment(logistic_cfg(rounds=0))
        assert result.records == []
        assert result.summary["final"]["t"] == 0
        assert result.summary["final"]["train_loss"] > 0
        assert result.summary["best_acc"] is None

    def test_eval_every_spacing(self):
        result = run_experiment(logistic_cfg(rounds=10, eval_every=4))
        assert [rec.t for rec in result.records] == [0, 4, 8, 9]

    @pytest.mark.parametrize("rounds, eval_every", [(0, 1), (7, 1), (7, 3), (8, 2)])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_records_are_the_same_for_every_group_size(self, monkeypatch, kind, rounds, eval_every):
        # recorded rounds are evaluated in groups, the last one cut short where the run ends
        cfg = logistic_cfg(
            model=ModelConfig(kind=kind, hidden=(5,)), rounds=rounds, eval_every=eval_every, diagnostics=True
        )
        problem = build_problem(cfg)
        assert models.evaluation_group(problem.spec, problem.shards, problem.test) > 3
        runs = []
        for group in (None, 1, 2, 3):
            if group is not None:
                monkeypatch.setattr(engine, "evaluation_group", lambda *args, _g=group: _g)
            result = run_experiment(cfg, problem=problem)
            runs.append((repr(result.records), repr(result.summary["final"])))
        assert runs[1:] == runs[:1] * 3

    def test_the_desk_preset_evaluates_29_rounds_per_call(self, monkeypatch):
        # 200 recorded rounds in 7 calls, each laying out at most the byte budget; the run's Scratch, twice its
        # largest layout, stays under 4 MiB, from which numpy asks for huge pages
        preset = Path(__file__).resolve().parent.parent / "configs" / "logistic_dirichlet.toml"
        cfg = validated(config.load_config(str(preset)))
        problem = build_problem(cfg)
        groups, scratches, laid = [], [], []
        arrays = models.Scratch._arrays

        def objective(spec, x, shards, scratch):
            groups.append(len(x))
            scratches.append(scratch)
            return models.full_objective(spec, x, shards, scratch)

        def recorded(self, layout):
            laid.append(sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout))
            return arrays(self, layout)

        monkeypatch.setattr(engine, "full_objective", objective)
        monkeypatch.setattr(models.Scratch, "_arrays", recorded)
        result = run_experiment(cfg, problem=problem)
        assert len(result.records) == cfg.rounds == 200 and groups == [29] * 6 + [26]
        assert max(laid) <= models._OBJECTIVE_BYTES and scratches[0]._block.size < 4 * 2**20

    def test_metrics_derived_on_recorded_rounds_only(self, monkeypatch):
        calls = {"consensus_distance": 0, "consistency_delta": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(engine, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(engine, name, counted)
        run_experiment(logistic_cfg(rounds=10, eval_every=4))
        assert calls == {"consensus_distance": 4, "consistency_delta": 4}
        fields = [f.name for f in dataclasses.fields(RoundInfo)]
        assert fields == ["t", "ole_points", "z", "x_prev", "x_mixed", "drift"]

    @staticmethod
    def _mixings_built(monkeypatch, kind, m):
        built = []

        def recorded(spec):
            built.append(build_mixing(spec))
            return built[-1]

        monkeypatch.setattr(engine, "build_mixing", recorded)
        run_experiment(quadratic_cfg(m=m, topology=TopologySpec(kind, m, k=2, seed=3), rounds=3))
        assert len(built) == (1 if kind is TopologyKind.RING else 3)
        return built

    @pytest.mark.parametrize("kind", [TopologyKind.RING, TopologyKind.RANDOM_K])
    def test_run_builds_no_dense_mixing_matrix(self, monkeypatch, kind):
        # m = 2000 is past 100 D for a ring (D = 3) and for random_k k=2 (D about 10 to 14),
        # so gossip takes the table path and no (m, m) array is ever made
        built = self._mixings_built(monkeypatch, kind, 2000)
        assert all(w._w is None and w._spectrum is None for w in built)

    @pytest.mark.parametrize(
        "kind, m, dense",
        [(TopologyKind.RING, 8, True), (TopologyKind.RANDOM_K, 8, True), (TopologyKind.RING, 512, False)],
    )
    def test_run_takes_no_spectrum_and_builds_w_only_for_dense_gossip(self, monkeypatch, kind, m, dense):
        built = self._mixings_built(monkeypatch, kind, m)
        assert all(w._spectrum is None for w in built)
        # gossip's dense path (m <= 100 D) builds each W once; the table path never does
        assert all((w._w is not None) == dense for w in built)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_abort_names_round_and_client(self):
        cfg = quadratic_cfg(optimizer=OptimizerConfig(eta0=1e200, decay=1.0), rounds=5)
        with pytest.raises(DivergenceError, match=r"round \d+, client \d+"):
            run_experiment(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_named_before_dense_gossip_spreads_it(self):
        # only client 5 has curvature, so at eta0=1e200 it alone overflows, in round 1;
        # dense gossip would carry its inf into every row as NaN, so the check must come first
        m = 8
        quad_a = np.zeros((m, 2, 2))
        quad_a[5] = np.eye(2)
        spec = ModelSpec(kind="quadratic", quad_a=quad_a, quad_b=np.zeros((m, 2)), quad_opt=np.zeros(2))
        cfg = quadratic_cfg(
            m=m, topology=TopologySpec(TopologyKind.RING, m), local_steps=1,
            optimizer=OptimizerConfig(eta0=1e200, decay=1.0), rounds=5,
        )
        problem = Problem(spec, ShardStack.of(range(m)), None, np.ones(2))
        mixed = []
        with pytest.raises(DivergenceError, match=r"^non-finite parameters at round 1, client 5$") as exc:
            run_experiment(cfg, problem=problem, on_round=lambda t, info: mixed.append(info.x_mixed))
        assert (exc.value.round_index, exc.value.client) == (1, 5)
        assert len(mixed) == 1 and np.isfinite(mixed[0]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("central", [False, True], ids=["decentralized", "central"])
    def test_a_bad_last_or_only_row_names_its_client(self, bad, central):
        # a finite stack passes one whole-stack test; only a failing one is searched row by row
        algo = dict(algorithm=AlgorithmKind.FEDAVG_CENTRAL, participation=0.5) if central else {}
        cfg = validated(logistic_cfg(**algo))
        clients = participants(cfg, cfg.m, 3)
        # the central set's last client is not its row 3, so the error must map the row to its client
        assert len(clients) == (4 if central else 8) and (not central or clients[-1] != 3)
        z = np.ones((len(clients), 5))
        engine._check_finite(z, 3, clients)
        engine._check_finite(z[-1:], 3, clients[-1:])
        z[-1, 4] = bad
        for stack, named in ((z, clients), (z[-1:], clients[-1:])):
            with pytest.raises(DivergenceError) as exc:
                engine._check_finite(stack, 3, named)
            assert (exc.value.round_index, exc.value.client) == (3, int(clients[-1]))

    def test_random_k_resampled_per_round(self):
        cfg = logistic_cfg(
            topology=TopologySpec(TopologyKind.RANDOM_K, 8, k=2, seed=3), rounds=4
        )
        result = run_experiment(cfg)
        assert len(result.records) == 4

    @pytest.mark.parametrize("one_round_blocks", [False, True], ids=["default_blocks", "one_round_blocks"])
    def test_random_k_graph_seeds_are_keyed_by_round(self, monkeypatch, one_round_blocks):
        cfg = validated(logistic_cfg(rounds=7, topology=TopologySpec(TopologyKind.RANDOM_K, 8, k=2, seed=2**64 - 5)))
        seeds = []

        def recording(spec):
            seeds.append(spec.seed)
            return build_mixing(spec)

        monkeypatch.setattr(engine, "build_mixing", recording)
        if one_round_blocks:
            monkeypatch.setattr(engine, "_BLOCK_INDICES", cfg.m * cfg.local_steps * cfg.optimizer.batch_size)
        for _ in iter_rounds(cfg, build_problem(cfg)):
            pass
        assert seeds == [graph_seed(cfg.topology.seed, t) for t in range(cfg.rounds)]

    def test_diagnostics_populate_energies(self):
        result = run_experiment(logistic_cfg(diagnostics=True, rounds=4))
        for rec in result.records:
            assert rec.v1 is not None and rec.v1 >= 0
            assert rec.v2 is not None and rec.v2 >= 0
        off = run_experiment(logistic_cfg(diagnostics=False, rounds=4))
        assert all(rec.v1 is None and rec.v2 is None for rec in off.records)


class TestCentralKinds:
    def test_all_clients_share_global_model(self):
        cfg = logistic_cfg(
            algorithm=AlgorithmKind.FEDAVG_CENTRAL, participation=0.5, topology=None, rounds=5
        )
        result = run_experiment(cfg)
        assert all(rec.consensus == 0.0 for rec in result.records)
        assert np.array_equal(result.final_x[0], result.final_x[-1])

    def test_deterministic(self):
        cfg = logistic_cfg(
            algorithm=AlgorithmKind.FEDSAM_CENTRAL,
            participation=0.25,
            topology=None,
            rounds=5,
            optimizer=OptimizerConfig(eta0=0.1, decay=1.0, lam=0.05, batch_size=8),
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records == b.records

    def test_learning_happens(self):
        cfg = logistic_cfg(
            algorithm=AlgorithmKind.FEDAVG_CENTRAL, participation=0.5, topology=None, rounds=30
        )
        result = run_experiment(cfg)
        assert result.summary["best_acc"] > 0.5


RUN_ARRAY_CASES = {
    "oled_sam": dict(algorithm=AlgorithmKind.OLED_SAM, optimizer=OptimizerConfig(lam=0.05, batch_size=8)),
    "dfedavgm": dict(algorithm=AlgorithmKind.DFEDAVGM, optimizer=OptimizerConfig(mu=0.9, batch_size=8)),
    "fedavg_central": dict(CENTRAL_CFG, algorithm=AlgorithmKind.FEDAVG_CENTRAL),
}


def mlp_cfg(case, **overrides):
    # (8, 1795) stacks of 112 KiB: above the buffer of up to 8192 elements (64 KiB) that numpy's
    # broadcasting ufuncs take per call whatever their operands' size
    return validated(logistic_cfg(
        model=ModelConfig(kind="mlp", hidden=(128,)),
        data=DataConfig(classes=3, dim=10, per_class=40, test_per_class=20),
        **{**RUN_ARRAY_CASES[case], **overrides},
    ))


class TestRunArrays:
    """Rounds hand out fresh arrays, keep temporaries in one Scratch and never write what a caller holds."""

    @pytest.mark.parametrize("case", sorted(RUN_ARRAY_CASES))
    def test_scratch_settles_and_nothing_leaks(self, monkeypatch, case):
        cfg = mlp_cfg(case, rounds=9, eval_every=1, diagnostics=True)
        problem = build_problem(cfg)
        per_round = len(participants(cfg, cfg.m, 0)) * cfg.local_steps * cfg.optimizer.batch_size
        monkeypatch.setattr(engine, "_BLOCK_INDICES", 2 * per_round)  # blocks start inside the traced rounds
        phases, scratches, evaluated = [], [], []

        class Recorded(engine._LocalPhase):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                phases.append(self)

        # a worker process appends to its own copy of the list, so only the caller's calls are seen
        def training(*args, scratch, **kwargs):
            scratches.append(scratch)
            return localopt.local_train(*args, scratch=scratch, **kwargs)

        def objective(spec, x, shards, scratch):
            evaluated.append(scratch)
            return models.full_objective(spec, x, shards, scratch)

        monkeypatch.setattr(engine, "_LocalPhase", Recorded)
        monkeypatch.setattr(engine, "local_train", training)
        monkeypatch.setattr(engine, "full_objective", objective)
        numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        for workers in (1, 2):
            phases[:], scratches[:], evaluated[:] = [], [], []
            blocks, traced = [], []

            def trace_from_round_two(t, info):
                if t == 0:  # every array live from round 2 on is allocated after this
                    tracemalloc.start()
                else:
                    blocks.append(scratches[-1]._block)
                if t >= 2:
                    snapshot = tracemalloc.take_snapshot().filter_traces(numpy_data)
                    traced.append(sum(trace.size for trace in snapshot.traces))

            try:
                result = run_experiment(cfg, workers=workers, problem=problem, on_round=trace_from_round_two)
            finally:
                tracemalloc.stop()
            assert len(result.records) == cfg.rounds
            # one Scratch in the caller for the whole run, the phase's: each round's local phase and evaluation
            [phase] = phases
            assert len(phase.ranges) == workers
            groups = -(-cfg.rounds // models.evaluation_group(problem.spec, problem.shards, problem.test))
            assert len(scratches) == cfg.rounds and len(evaluated) == groups
            assert all(s is phase.scratch for s in scratches + evaluated)
            blocks.append(phase.scratch._block)  # after the last round's evaluation
            assert all(block is blocks[0] for block in blocks)  # not regrown after round 1
            # the numpy memory live at each round from round 2 on is no more than at round 2: nothing leaks
            assert len(traced) == cfg.rounds - 2
            assert all(later <= traced[0] for later in traced), (workers, traced)

    @pytest.mark.parametrize("case", sorted(RUN_ARRAY_CASES))
    def test_a_finished_round_is_freed_before_the_next(self, monkeypatch, case):
        cfg = mlp_cfg(case, rounds=6, diagnostics=True)
        refs = []

        def round_watched(*args):
            # every earlier round's start points and the models it started from are gone by now
            assert all(ref() is None for ref in refs), [i for i, ref in enumerate(refs) if ref() is not None]
            info = run_round(*args)
            refs.extend(weakref.ref(a) for a in (info.ole_points, info.x_prev) if a is not None)
            return info

        monkeypatch.setattr(engine, "run_round", round_watched)
        result = run_experiment(cfg, on_round=None)
        assert len(result.records) == cfg.rounds
        assert len(refs) == (2 if case != "fedavg_central" else 1) * cfg.rounds

    @pytest.mark.parametrize("case", sorted(RUN_ARRAY_CASES))
    def test_held_arrays_are_never_written(self, monkeypatch, case):
        cfg = mlp_cfg(case, rounds=7, diagnostics=True)
        problem = build_problem(cfg)
        per_round = len(participants(cfg, cfg.m, 0)) * cfg.local_steps * cfg.optimizer.batch_size
        monkeypatch.setattr(engine, "_BLOCK_INDICES", 2 * per_round)
        held, copies, views, drawn = [], [], [], []

        def training(*args, **kwargs):
            drawn.append((args[5], args[5].copy()))  # the block's indices, as the round reads them
            return localopt.local_train(*args, **kwargs)

        monkeypatch.setattr(engine, "local_train", training)
        kept = run_experiment(cfg, problem=problem, on_round=lambda t, info: held.append(info))
        monkeypatch.setattr(engine, "local_train", localopt.local_train)
        copied = run_experiment(cfg, problem=problem, on_round=lambda t, info: copies.append(copy.deepcopy(info)))

        def keep_a_view(t, info):
            views.append((info.x_mixed[1:], info.x_mixed[1:].copy()))

        viewed = run_experiment(cfg, problem=problem, on_round=keep_a_view)
        assert kept.records == copied.records == viewed.records
        for info, snapshot in zip(held, copies, strict=True):
            for f in dataclasses.fields(RoundInfo):
                got, want = getattr(info, f.name), getattr(snapshot, f.name)
                assert (got is None and want is None) or (f.name == "t" and got == want) or (
                    got.tobytes() == want.tobytes() and got.shape == want.shape
                ), f.name
        assert all(view.tobytes() == snapshot.tobytes() for view, snapshot in views)
        assert all(rows.tobytes() == snapshot.tobytes() for rows, snapshot in drawn)

    @pytest.mark.parametrize(
        "kind, m, p",
        [
            (TopologyKind.RANDOM_K, 2, 1),
            (TopologyKind.RANDOM_K, 6, 5),
            (TopologyKind.RANDOM_K, 16, 44),
            (TopologyKind.RANDOM_K, 100, 1002),
            (TopologyKind.RING, 512, 44),
            (TopologyKind.GRID, 900, 5),
        ],
    )
    def test_gossip_and_metrics_equal_their_expressions_on_an_explicit_temporary(self, kind, m, p):
        rng = np.random.default_rng([m, p])
        z, x = rng.normal(size=(2, m, p)) * np.logspace(-4, 4, p)
        w = build_mixing(TopologySpec(kind, m, k=min(3, m - 1), seed=m))
        index, weight = w.neighbours
        if kind is TopologyKind.RANDOM_K:  # dense path: one product on one BLAS thread
            with blas.one_thread():
                mixed = w.w @ z
        else:  # table path: a take, a multiply and an add per neighbour column, ascending
            mixed, term = np.zeros((m, p)), np.empty((m, p))
            for d in range(index.shape[1]):
                np.take(z, index[:, d], axis=0, out=term)
                np.multiply(term, weight[:, d].reshape(m, 1), out=term)
                np.add(mixed, term, out=mixed)
        assert gossip_mix(z, w).tobytes() == mixed.tobytes()

        def mean_square(a, b):  # a subtraction, a square in place, then a row sum and a mean
            gap = np.empty((m, p))
            np.subtract(a, b, out=gap)
            np.square(gap, out=gap)
            return float(np.mean(np.sum(gap, axis=1)))

        xbar = x.mean(axis=0)
        assert consensus_distance(x) == consensus_distance(x, xbar) == mean_square(x, xbar)
        assert consistency_delta(z, x) == mean_square(z, x)


class TestConsensusDynamics:
    @staticmethod
    def _spread_problem(spec, m, p, spread, seed):
        """The problem, and every client's start drawn around the origin."""
        starts = spread * np.random.default_rng(seed).normal(size=(m, p))
        return Problem(spec, ShardStack.of(range(m)), None, np.zeros(p)), starts

    def test_consensus_nonincreasing_for_dfedavg_on_identical_objectives(self):
        m, p = 16, 6
        spec = quadratic_testbed(m, p, 0.0, seed=2, identical_curvature=True)
        cfg = validated(quadratic_cfg(algorithm=AlgorithmKind.DFEDAVG, beta=0.0))
        w = build_mixing(cfg.topology)
        problem, starts = self._spread_problem(spec, m, p, spread=2.0, seed=0)
        x = z = starts
        prev = consensus_distance(x)
        for t in range(30):
            info = run_round(x, z, t, cfg, w, problem, np.arange(m), None)
            x, z = info.x_mixed, info.z
            cur = consensus_distance(info.x_mixed)
            assert cur <= prev * (1 + 1e-12) + 1e-30
            prev = cur

    def test_lookahead_reaches_consensus_at_least_as_fast(self):
        m, p = 16, 6
        spec = quadratic_testbed(m, p, 0.0, seed=2, identical_curvature=True)
        rounds_needed = {}
        for beta in (0.2, 0.0):
            cfg = validated(quadratic_cfg(beta=beta))
            w = build_mixing(cfg.topology)
            problem, starts = self._spread_problem(spec, m, p, spread=2.0, seed=1)
            x = z = starts
            rounds_needed[beta] = None
            for t in range(300):
                info = run_round(x, z, t, cfg, w, problem, np.arange(m), None)
                x, z = info.x_mixed, info.z
                if consensus_distance(info.x_mixed) < 1e-6:
                    rounds_needed[beta] = t + 1
                    break
        assert rounds_needed[0.2] is not None and rounds_needed[0.0] is not None
        assert rounds_needed[0.2] <= rounds_needed[0.0]

    def test_gradient_trend_negative_for_all_decentralized_kinds(self):
        # least-squares slope of ||grad f(xbar)||^2 sampled every 10 rounds
        for algo in (
            AlgorithmKind.OLED_SGD,
            AlgorithmKind.OLED_SAM,
            AlgorithmKind.DFEDAVG,
            AlgorithmKind.DFEDAVGM,
            AlgorithmKind.DFEDSAM,
            AlgorithmKind.DPSGD,
        ):
            cfg = quadratic_cfg(
                algorithm=algo,
                beta=0.2,
                rounds=300,
                eval_every=10,
                optimizer=OptimizerConfig(eta0=0.05, decay=1.0, lam=0.05, mu=0.9),
            )
            result = run_experiment(cfg)
            ts = np.array([rec.t for rec in result.records], dtype=float)
            ys = np.array([rec.grad_norm_sq for rec in result.records])
            slope = np.polyfit(ts, ys, 1)[0]
            assert slope < 0, f"{algo}: slope {slope}"


def assert_draws_equal_reference(seed, clients, t, sizes=None, k_steps=3, batch_size=5):
    clients = np.asarray(clients)
    if sizes is None:
        sizes = 1 + (clients * 7 + 3) % 50
    rows = client_batches(seed, clients, t, sizes, k_steps, batch_size)
    assert rows.shape == (k_steps, len(clients), batch_size) and rows.dtype == np.int64
    assert np.array_equal(rows, reference_draws(seed, clients, t, sizes, k_steps, batch_size))


class TestParticipants:
    # on each of these the float product's ceiling is one client too many
    @pytest.mark.parametrize(
        "participation, m, count", [(0.07, 100, 7), (0.14, 50, 7), (0.28, 25, 7), (0.56, 25, 14)]
    )
    def test_count_is_the_ceiling_of_the_decimal_product(self, participation, m, count):
        assert math.ceil(participation * m) == count + 1
        cfg = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, m=m, participation=participation)
        assert len(participants(cfg, m, 0)) == count

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 60), st.integers(1, 100), st.integers(0, 2**64 - 1))
    def test_subsets_equal_the_scalar_reference(self, seed, m, percent, t):
        cfg = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, m=m, participation=percent / 100, seed=seed)
        chosen = participants(cfg, m, t)
        assert chosen.dtype == np.intp
        assert chosen.tolist() == reference_participants(seed, m, -(-percent * m // 100), t)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(1, 100),
        st.integers(0, 2**64 - 9), st.integers(1, 8),
    )
    def test_a_blocks_subsets_equal_the_scalar_reference(self, seed, m, percent, t0, rounds):
        cfg = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, m=m, participation=percent / 100, seed=seed)
        count = -(-percent * m // 100)
        chosen = engine._participants(cfg, m, range(t0, t0 + rounds))
        assert chosen.dtype == np.intp and chosen.shape == (rounds, count)
        for r, row in enumerate(chosen):
            assert row.tolist() == reference_participants(seed, m, count, t0 + r)

    @pytest.mark.parametrize("algorithm", [AlgorithmKind.FEDSAM_CENTRAL, AlgorithmKind.OLED_SGD])
    def test_every_round_of_a_run_trains_its_reference_subset(self, monkeypatch, algorithm):
        # blocks of 3 rounds and a horizon that ends inside one
        topology = None if algorithm in engine.CENTRAL_KINDS else TopologySpec(TopologyKind.RING, 10)
        cfg = validated(logistic_cfg(algorithm=algorithm, m=10, participation=0.3, rounds=8, topology=topology))
        per_round = len(participants(cfg, cfg.m, 0)) * cfg.local_steps * cfg.optimizer.batch_size
        monkeypatch.setattr(engine, "_BLOCK_INDICES", 3 * per_round)
        trained = []

        def recording(x, z, t, cfg, w_t, problem, clients, *rest):
            trained.append(np.asarray(clients).tolist())
            return run_round(x, z, t, cfg, w_t, problem, clients, *rest)

        monkeypatch.setattr(engine, "run_round", recording)
        for _ in iter_rounds(cfg, build_problem(cfg)):
            pass
        if algorithm in engine.CENTRAL_KINDS:
            assert trained == [reference_participants(cfg.seed, 10, 3, t) for t in range(cfg.rounds)]
        else:
            assert trained == [list(range(10))] * cfg.rounds

    def test_equal_keys_go_to_the_lower_index(self, monkeypatch):
        # 20 clients on each of the keys 0 to 4: the 30 picks are key 0's and the 10 lowest of key 1's
        monkeypatch.setattr(engine, "_keys", lambda count, *words: (np.arange(count) * 7 % 5).astype(np.uint64))
        cfg = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, m=100, participation=0.3)
        assert participants(cfg, 100, 4).tolist() == sorted([*range(0, 100, 5), *range(3, 50, 5)])

    def test_every_client_is_picked_about_equally_often(self):
        # m=16, c=4 over 20000 rounds: each count is Binomial(20000, 1/4), mean 5000, sd 61.2
        cfg = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, m=16, participation=0.25)
        counts = np.bincount(np.concatenate([participants(cfg, 16, t) for t in range(20000)]), minlength=16)
        assert np.abs(counts - 5000).max() <= 5 * math.sqrt(20000 * 0.25 * 0.75)

    def test_every_two_decimal_participation_up_to_1000_clients(self):
        for k in range(1, 101):
            counts = [engine._participant_count(k / 100, m) for m in range(1, 1001)]
            assert counts == [-(-k * m // 100) for m in range(1, 1001)], k / 100


class TestClientStreams:
    # the reference is the scalar version of the stream in stream_reference.py
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 1])
    @pytest.mark.parametrize("t", [0, 1, 119, 2**33])
    def test_every_stream_equals_its_default_rng(self, seed, t):
        central = logistic_cfg(algorithm=AlgorithmKind.FEDAVG_CENTRAL, m=20, participation=0.3, seed=seed)
        subset = participants(central, 20, t)
        assert 1 < len(subset) < 20
        for clients in (np.arange(20), subset, np.array([13])):
            assert_draws_equal_reference(seed, clients, t)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**40 - 1),
        st.lists(st.integers(0, 199), min_size=1, max_size=40, unique=True),
        st.integers(1, 4),
        st.integers(1, 9),
        st.sampled_from([None, 2**31 + 1, 2**32 - 1]),
    )
    def test_random_subsets_equal_their_default_rng(self, seed, t, clients, k_steps, batch_size, size):
        # sizes near 2**32 reject up to half of all values
        sizes = None if size is None else np.full(len(clients), size)
        assert_draws_equal_reference(seed, sorted(clients), t, sizes, k_steps, batch_size)

    @pytest.mark.parametrize(
        "seed, client, t, n", [(2**63 - 1, 5, 2**33, 1000), (0, 0, 0, 1), (2**64 - 1, 2**20, 2**32 - 1, 7)]
    )
    def test_columns_pin_to_the_scalar_version(self, seed, client, t, n):
        rows = client_batches(seed, [client], t, [n], 4, 8)
        assert rows[:, 0].ravel().tolist() == column(seed, client, t, n, 32)

    def test_the_scalar_mix_is_splitmix64(self):
        # the first outputs of SplitMix64 seeded with 0: state += gamma, then the finaliser
        state, outputs = 0, []
        for _ in range(3):
            state += GAMMA
            outputs.append(mix64(state & MASK))
        assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("k_steps, batch_size", [(1, 1), (1, 32), (3, 5), (5, 32), (7, 3)])
    def test_odd_and_even_draw_counts(self, k_steps, batch_size):
        # a row chunk holds whole columns, whatever their length
        assert_draws_equal_reference(11, np.arange(30), 4, k_steps=k_steps, batch_size=batch_size)

    def test_common_shard_sizes_draw_in_one_pass(self):
        assert_draws_equal_reference(5, np.arange(100), 3, sizes=np.arange(2, 102), k_steps=1, batch_size=32)

    def test_one_sample_shards_draw_zeros_and_out_of_range_sizes_raise(self):
        sizes = np.array([1, 40, 2**32 - 1, 7, 1, 9])
        assert_draws_equal_reference(2, np.arange(6), 9, sizes=sizes)
        assert (client_batches(2, np.arange(6), 9, sizes, 3, 5)[:, sizes == 1] == 0).all()
        for bad in (0, 2**32, 2**40 + 1):
            with pytest.raises(ValueError, match="shard sizes"):
                client_batches(2, np.arange(3), 9, [40, bad, 7], 3, 5)

    def test_rejected_values_are_drawn_again_past_the_column(self):
        # with n = 2**31 + 1 Lemire's method rejects almost half of all values
        n = 2**31 + 1
        args = (8, np.arange(40), 6, np.full(40, n), 2, 16)
        rows = client_batches(*args)
        assert rows.min() >= 0 and rows.max() < n
        assert np.array_equal(rows, client_batches(*args))
        assert np.array_equal(rows, reference_draws(*args))
        # about half the entries reject their first value, so the retry path carries the draw
        keys = [stream_key(8, i, 6) for i in range(40)]
        first = np.array([mix64(key + (j + 1) * GAMMA & MASK) >> 32 for key in keys for j in range(32)], np.uint64)
        rejected = (first * n & 0xFFFFFFFF) < (2**32 - n) % n
        assert 0.4 < rejected.mean() < 0.6

    @pytest.mark.parametrize("n", [2, 7, 100, 1000])
    def test_bincounts_over_2000_keys_are_uniform(self, n):
        # chi-square of all indices, and of each key's first index, below the 1e-6 upper quantile
        critical = {2: 23.93, 7: 38.26, 100: 180.79, 1000: 1226.05}[n]
        rows = client_batches(123, np.arange(2000) % 100, np.arange(2000) // 100, np.full(2000, n), 5, 10)
        samples = [rows.ravel()] + ([rows[0, :, 0]] if n <= 100 else [])
        for values in samples:
            expected = values.size / n
            chi2 = ((np.bincount(values, minlength=n) - expected) ** 2 / expected).sum()
            assert chi2 < critical, (n, values.size, chi2)

    def test_streams_of_neighbouring_keys_do_not_overlap(self):
        # near n = 2**32 an index is almost a raw value; 100k values of 2**32 repeat about once by chance,
        # while streams that are shifts of each other would share almost all of them
        rows = client_batches(4, np.arange(1000), 7, np.full(1000, 2**32 - 1), 10, 10)
        assert np.unique(rows).size >= rows.size - 10

    @pytest.mark.parametrize("m, k_steps, batch_size", [(3, 2, 16391), (300, 3, 41)])
    def test_draws_spanning_several_blocks(self, m, k_steps, batch_size):
        # more values per client, or more clients, than one row chunk of the draw holds
        assert m * k_steps * batch_size > keyed._CHUNK_VALUES
        assert_draws_equal_reference(3, np.arange(m), 1, k_steps=k_steps, batch_size=batch_size)

    @pytest.mark.parametrize("seed", [7, 2**40 + 3])
    def test_rounds_either_side_of_32_bits_in_one_call(self, seed):
        # each round is taken in as one 64-bit word, whatever its size
        rounds = np.array([2**32 - 1, 2**32, 0, 2**32 + 5, 2**32 - 1, 2**33, 2**32])
        clients = np.array([0, 1, 2, 3, 4, 5, 0])
        assert_draws_equal_reference(seed, clients, rounds)
        assert_draws_equal_reference(seed, clients[rounds < 2**32], rounds[rounds < 2**32])
        assert_draws_equal_reference(seed, clients[rounds >= 2**32], rounds[rounds >= 2**32])

    @pytest.mark.parametrize("m, k_steps, batch_size", [(400, 5, 32), (408, 5, 32), (1000, 5, 32), (2000, 1, 32)])
    def test_temporaries_stay_below_the_result(self, m, k_steps, batch_size):
        # a block of rounds' draws: 16 clients a round over m // 16 rounds
        args = (3, np.arange(m) % 16, np.arange(m) // 16, 2 + np.arange(m) % 90, k_steps, batch_size)
        client_batches(*args)  # a first call, so that nothing allocated once is counted
        tracemalloc.start()
        try:
            rows = client_batches(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rows.nbytes

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"algorithm": AlgorithmKind.FEDAVG_CENTRAL, "participation": 0.5, "topology": None}],
        ids=["decentralized", "central"],
    )
    def test_first_draw_replays_the_engines_draw(self, monkeypatch, overrides):
        # record the minibatch indices the local phase of every round receives
        cfg = validated(logistic_cfg(rounds=12, **overrides))
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(args[5])
            return localopt.local_train(*args, **kwargs)

        monkeypatch.setattr(engine, "local_train", recording)
        problem = build_problem(cfg)
        for _ in iter_rounds(cfg, problem):
            pass
        assert len(drawn) == cfg.rounds
        client, sample = 3, 1
        size = int(problem.shards.sizes[client])
        expected = None
        for t, rows in enumerate(drawn):
            clients = list(participants(cfg, cfg.m, t))
            if client not in clients:
                continue
            mine = rows[:, clients.index(client)]
            replay = reference_draws(cfg.seed, [client], t, [size], cfg.local_steps, cfg.optimizer.batch_size)
            assert np.array_equal(mine, replay[:, 0])
            hit = (mine == sample).any(axis=1)
            if expected is None and hit.any():
                expected = (t, int(np.argmax(hit)))
        assert expected is not None
        assert first_draw(cfg, size, (client, sample)) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(list(AlgorithmKind)),
        st.integers(0, 2**63 - 1),
        st.sampled_from([0.2, 0.5, 0.75]),
        st.integers(2, 4),
        st.integers(0, 2),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 6),
    )
    def test_block_draws_equal_every_rounds_default_rng(
        self, algo, seed, participation, span, blocks, extra, k_steps, batch_size
    ):
        # span rounds a block and a horizon that ends inside a block
        rounds = span * blocks + 1 + extra % (span - 1)
        cfg = validated(
            logistic_cfg(
                algorithm=algo, m=6, seed=seed, participation=participation, rounds=rounds,
                local_steps=k_steps, optimizer=OptimizerConfig(eta0=0.05, batch_size=batch_size),
            )
        )
        problem = build_problem(cfg)
        drawn, blocks_drawn = {}, []

        def training(*args, round_index, **kwargs):
            drawn[round_index] = args[5]
            return localopt.local_train(*args, round_index=round_index, **kwargs)

        def drawing(*args):
            blocks_drawn.append(args[2])
            return client_batches(*args)

        # a round's share of the block: its m keys or its draws, whichever is more
        per_round = max(cfg.m, len(participants(cfg, cfg.m, 0)) * cfg.local_steps * batch_size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK_INDICES", span * per_round)
            mp.setattr(engine, "local_train", training)
            mp.setattr(engine, "client_batches", drawing)
            for _ in iter_rounds(cfg, problem):
                pass
        assert len(blocks_drawn) == math.ceil(rounds / span)
        assert sorted(drawn) == list(range(rounds))
        for t, draws in drawn.items():
            clients = participants(cfg, cfg.m, t)
            sizes = problem.shards.sizes[clients]
            assert draws.shape == (cfg.local_steps, len(clients), batch_size)
            # the block's slice equals the round drawn on its own, and both the scalar stream
            assert np.array_equal(draws, client_batches(seed, clients, t, sizes, cfg.local_steps, batch_size))
            assert np.array_equal(draws, reference_draws(seed, clients, t, sizes, cfg.local_steps, batch_size))


def workers_cfg(**overrides):
    base = dict(
        m=7, rounds=4, model=ModelConfig(kind="mlp", hidden=(6,)),
        data=DataConfig(classes=3, dim=6, per_class=40, spread=0.8, test_per_class=20),
    )
    return logistic_cfg(**{**base, **overrides})


CENTRAL = dict(topology=None, participation=0.5)
WORKER_CASES = {
    **{a.value: dict(algorithm=a, **(CENTRAL if a in engine.CENTRAL_KINDS else {})) for a in AlgorithmKind},
    "random_k": dict(topology=TopologySpec(TopologyKind.RANDOM_K, 7, k=2, seed=3)),
    "diagnostics": dict(algorithm=AlgorithmKind.OLED_SAM, diagnostics=True),
    "diagnostics_central": dict(algorithm=AlgorithmKind.FEDSAM_CENTRAL, diagnostics=True, **CENTRAL),
    "width_1": dict(model=ModelConfig(kind="mlp", hidden=(1,))),
    "logistic": dict(model=ModelConfig(kind="logistic")),
    "fewer_rows_than_workers": dict(m=2, algorithm=AlgorithmKind.DFEDAVGM),
    "one_participant": dict(algorithm=AlgorithmKind.FEDAVG_CENTRAL, topology=None, participation=0.1),
    # 24 * 32 rows of 10 classes for one worker, half or a third of them per range
    "ten_classes": dict(
        m=24,
        data=DataConfig(classes=10, dim=6, per_class=40, spread=0.8, test_per_class=20),
        optimizer=OptimizerConfig(eta0=0.1, decay=0.998, batch_size=32),
    ),
}


def run_fingerprint(result):
    """Records, summary less its wall time and final_x, as exact bytes."""
    summary = {k: v for k, v in result.summary.items() if k != "wall_time_seconds"}
    return repr(result.records), repr(summary), result.final_x.tobytes()


class TestWorkers:
    """Row ranges on forked worker processes: bitwise one worker, no process left behind."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a run that hangs on a worker fails here instead of stalling the suite
        def expire(signum, frame):
            raise TimeoutError("the test ran past 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8, 10**9])
    def test_row_ranges_cover_the_rows_in_order_capped_at_the_rows(self, rows, workers):
        ranges = engine._row_ranges(rows, workers)
        assert len(ranges) == min(workers, rows)
        assert [i for r in ranges for i in range(rows)[r]] == list(range(rows))
        sizes = [r.stop - r.start for r in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("algorithm, off", [(AlgorithmKind.OLED_SAM, "lam"), (AlgorithmKind.DFEDAVGM, "mu")])
    def test_a_python_built_config_runs_its_algorithm_with_the_default_radius_or_momentum(self, algorithm, off):
        # the dataclasses carry lambda = 0.1 and mu = 0.9, so an omitted value does not fall back to SGD
        cfg = workers_cfg(algorithm=algorithm)
        plain = dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, **{off: 0.0}))
        assert not np.array_equal(run_experiment(cfg).final_x, run_experiment(plain).final_x)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", None, True])
    def test_bad_worker_count_is_a_config_error(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(workers_cfg(rounds=1), workers=workers)

    @pytest.mark.parametrize("case", sorted(WORKER_CASES) + ["quadratic", "quadratic_table_gossip"])
    def test_every_worker_count_is_bitwise_one_worker(self, case):
        # a 400-client ring is past 100 * D = 300, so its gossip takes the table path
        quadratic = {
            "quadratic": quadratic_cfg(rounds=6),
            "quadratic_table_gossip": quadratic_cfg(m=400, rounds=3, topology=TopologySpec(TopologyKind.RING, 400)),
        }
        cfg = quadratic[case] if case in quadratic else workers_cfg(**WORKER_CASES[case])
        problem = build_problem(cfg)
        single = run_fingerprint(run_experiment(cfg, problem=problem))
        for workers in (2, 3):
            assert run_fingerprint(run_experiment(cfg, workers=workers, problem=problem)) == single, workers

    def test_more_threads_than_cores_switching_fast_stay_bitwise(self):
        workers = len(os.sched_getaffinity(0)) + 1
        cfg = workers_cfg(m=2 * workers + 1, algorithm=AlgorithmKind.OLED_SAM, diagnostics=True)
        problem = build_problem(cfg)
        single = run_fingerprint(run_experiment(cfg, problem=problem))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_fingerprint(run_experiment(cfg, workers=workers, problem=problem))
        finally:
            sys.setswitchinterval(interval)
        assert pooled == single

    def test_local_phase_trains_one_range_per_worker_process(self, monkeypatch, tmp_path):
        # a worker's calls happen in its own memory, so each call appends a line to a shared file
        log = tmp_path / "calls"

        def training(spec, x0, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{kwargs['round_index']} {len(x0)} {os.getpid()}\n")
            return localopt.local_train(spec, x0, *args, **kwargs)

        monkeypatch.setattr(engine, "local_train", training)
        run_experiment(workers_cfg(), workers=3)
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        # the ranges of a round finish in any order
        assert sorted((t, rows) for t, rows, _ in calls) == [(t, rows) for t in range(4) for rows in (2, 2, 3)]
        # the caller trains the first range; two workers, forked once per run, one range each per round
        assert sorted((t, pid) for t, rows, pid in calls if pid == os.getpid()) == [(t, os.getpid()) for t in range(4)]
        workers = {pid for *_, pid in calls} - {os.getpid()}
        assert len(workers) == 2
        assert sorted((t, pid) for t, _, pid in calls if pid in workers) == [(t, w) for t in range(4) for w in sorted(workers)]

    @pytest.mark.parametrize(
        "overrides, workers, procs",
        [
            (dict(m=3), 10**6, 2),
            (dict(m=3), 2, 1),
            (dict(m=3), 1, 0),
            (dict(m=1), 8, 0),
            (dict(m=7, **CENTRAL), 10**6, 3),  # 4 participants
            (dict(m=7, topology=None, participation=0.25), 3, 1),  # 2 participants
            (dict(m=7, topology=None, participation=0.1), 3, 0),  # 1 participant
        ],
        ids=["m3_many_workers", "m3_two_workers", "m3_one_worker", "m1", "central_4_rows", "central_2_rows", "central_1_row"],
    )
    def test_a_run_starts_one_process_fewer_than_its_rows_or_its_workers(self, monkeypatch, overrides, workers, procs):
        started, alive = [], []
        start = multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", lambda self: (started.append(self), start(self))[1])
        algorithm = AlgorithmKind.FEDAVG_CENTRAL if "participation" in overrides else AlgorithmKind.OLED_SGD
        cfg = workers_cfg(rounds=3, algorithm=algorithm, **overrides)
        run_experiment(cfg, workers=workers, on_round=lambda t, info: alive.append(len(multiprocessing.active_children())))
        assert len(started) == procs
        assert alive == [procs] * 3

    def test_central_participation_below_workers_over_m_matches_one_worker(self):
        # 2 participants of 7 for 3 workers: one worker process trains the second range, every round
        cfg = workers_cfg(algorithm=AlgorithmKind.FEDSAM_CENTRAL, topology=None, participation=0.25, diagnostics=True)
        problem = build_problem(cfg)
        single = run_fingerprint(run_experiment(cfg, problem=problem))
        assert run_fingerprint(run_experiment(cfg, workers=3, problem=problem)) == single

    def test_an_error_in_a_worker_reaches_the_caller_with_its_type_and_message(self, monkeypatch):
        caller = os.getpid()

        def training(*args, **kwargs):
            if os.getpid() != caller:
                raise KeyError(f"range of round {kwargs['round_index']}")
            return localopt.local_train(*args, **kwargs)

        monkeypatch.setattr(engine, "local_train", training)
        with pytest.raises(KeyError, match="range of round 0"):
            run_experiment(workers_cfg(), workers=3)
        assert multiprocessing.active_children() == []

    def test_an_error_that_cannot_be_pickled_reaches_the_caller_by_name(self, monkeypatch):
        caller = os.getpid()

        class Unpicklable(Exception):
            pass

        def training(*args, **kwargs):
            if os.getpid() != caller:
                raise Unpicklable("local class")
            return localopt.local_train(*args, **kwargs)

        monkeypatch.setattr(engine, "local_train", training)
        with pytest.raises(RuntimeError, match="Unpicklable: local class"):
            run_experiment(workers_cfg(), workers=2)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_ends_the_run_with_an_error(self, monkeypatch):
        caller = os.getpid()

        def training(*args, **kwargs):
            if os.getpid() != caller and kwargs["round_index"] == 2:
                os._exit(7)
            return localopt.local_train(*args, **kwargs)

        monkeypatch.setattr(engine, "local_train", training)
        with pytest.raises(RuntimeError, match="exit code 7"):
            run_experiment(workers_cfg(), workers=3)
        assert multiprocessing.active_children() == []

    def test_one_worker_imports_no_process_machinery(self):
        code = (
            "import sys; from dgossip import cli, config, engine, topology;"
            " ring = topology.TopologySpec(topology.TopologyKind.RING, 16);"
            " engine.run_experiment(config.ExperimentConfig(rounds=2, topology=ring));"
            " print(sorted(m for m in ('dgossip.forked', 'mmap', 'multiprocessing') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_without_fork_more_than_one_worker_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ConfigError, match="workers=2 .*fork"):
            run_experiment(workers_cfg(rounds=1), workers=2)
        run_experiment(workers_cfg(rounds=1), workers=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_a_later_range_and_no_thread_outlives_a_run(self):
        cfg = workers_cfg(m=6, model=ModelConfig(kind="logistic"))
        problem = build_problem(cfg)
        shards = problem.shards
        features = shards.features.copy()
        # client 4 is in the second range of two (rows 0-2, 3-5) and the last of three
        features[shards.offsets[4]:shards.offsets[4] + shards.sizes[4]] *= 1e300
        problem = dataclasses.replace(problem, shards=dataclasses.replace(shards, features=features))
        before = threading.active_count()
        raised = []
        for workers in (1, 2, 3):
            with pytest.raises(DivergenceError) as exc:
                run_experiment(cfg, workers=workers, problem=problem)
            raised.append((exc.value.round_index, exc.value.client))
            assert threading.active_count() == before
            assert multiprocessing.active_children() == []
        assert raised == [raised[0]] * 3 and raised[0][1] == 4
        run_experiment(cfg, workers=3)
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []


# a stale name in __all__ fails only on ``import *``, which nothing else in the suite does
MODULES = [m.name for m in pkgutil.iter_modules(dgossip.__path__) if m.name != "__main__"]  # that one runs the CLI


@pytest.mark.parametrize("module", ["dgossip", *(f"dgossip.{name}" for name in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_config_imports_nothing_from_engine():
    # the dependency runs one way: engine reads the config layer, never the reverse
    imported = []
    for node in ast.walk(ast.parse(open(config.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "engine" in name.split(".")] == []


@pytest.mark.parametrize("name", ["validated", "CENTRAL_KINDS", "LOOKAHEAD_KINDS", "ConfigError"])
def test_each_config_name_bench_reads_from_engine_is_the_config_object(name):
    assert getattr(engine, name) is getattr(config, name)
