"""Diagnostic quantities, evaluation, and the coupled stability probe."""

import numpy as np
import pytest

from dgossip.data import generate_synthetic
from dgossip.config import (
    AlgorithmKind,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from dgossip.engine import build_problem, iter_rounds, run_experiment
from dgossip.localopt import OptimizerConfig
from dgossip.metrics import (
    RoundRecord,
    consensus_distance,
    consistency_delta,
    eval_model,
    rounds_to_target,
    update_energies,
    write_metrics_csv,
)
from dgossip.models import ModelSpec, Shard, loss_and_predictions
from dgossip import models, stability
from dgossip.stability import stability_probe
from dgossip.topology import TopologyKind, TopologySpec


def probe_cfg(**overrides):
    base = dict(
        algorithm=AlgorithmKind.OLED_SGD,
        beta=0.2,
        m=8,
        rounds=40,
        local_steps=5,
        seed=5,
        topology=TopologySpec(TopologyKind.RING, 8),
        model=ModelConfig(kind="logistic"),
        optimizer=OptimizerConfig(eta0=0.1, decay=0.998, batch_size=4),
        partition=PartitionConfig(scheme="iid"),
        data=DataConfig(classes=4, dim=10, per_class=100, spread=0.8, test_per_class=40),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConsensusDistance:
    def test_identical_clients(self):
        assert consensus_distance(np.tile([1.0, 2.0], (5, 1))) == 0.0

    def test_two_point_example(self):
        assert consensus_distance(np.array([[1.0], [-1.0]])) == pytest.approx(1.0)

    def test_order_invariant(self, rng):
        xs = rng.normal(size=(6, 4))
        shuffled = xs[rng.permutation(6)]
        assert consensus_distance(xs) == pytest.approx(consensus_distance(shuffled), rel=1e-12)


class TestConsistencyDelta:
    def test_two_client_average_example(self):
        z = np.array([[2.0], [0.0]])
        x_mixed = np.array([[1.0], [1.0]])  # fully-connected mixing of z
        assert consistency_delta(z, x_mixed) == pytest.approx(1.0)

    def test_consensus_fixed_point(self):
        z = np.tile([0.5, 0.5], (4, 1))
        assert consistency_delta(z, z.copy()) == 0.0

    def test_single_client_self_mixing(self):
        z = np.array([[3.0, -1.0]])
        assert consistency_delta(z, z.copy()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            consistency_delta(np.zeros((2, 3)), np.zeros((3, 3)))


class TestUpdateEnergies:
    def test_no_motion(self):
        v1, v2 = update_energies(np.zeros(4), np.zeros(3), np.zeros(3))
        assert v1 == 0.0 and v2 == 0.0

    def test_single_sgd_step_example(self):
        # m=1 quadratic, x=[1], eta=0.1: drift term 0, mean moves by 0.1
        v1, v2 = update_energies(np.array([0.0]), np.array([1.0]), np.array([0.9]))
        assert v1 == 0.0
        assert v2 == pytest.approx(0.01)

    def test_quadratic_homogeneity(self, rng):
        drift = rng.random(5)
        before, after = rng.normal(size=4), rng.normal(size=4)
        v1, v2 = update_energies(drift, before, after)
        w1, w2 = update_energies(4 * drift, before, before + 2 * (after - before))
        assert w1 == pytest.approx(4 * v1)
        assert w2 == pytest.approx(4 * v2)


class TestEvalModel:
    def test_zero_params_balanced_binary(self):
        # uniform scores, argmax tie -> class 0, balanced labels -> exactly 0.5
        ds = generate_synthetic(2, 4, 25, 0.5, seed=0)
        spec = ModelSpec(kind="logistic", dim=4, num_classes=2)
        acc = eval_model(spec, np.zeros(spec.param_count()), Shard(ds.features, ds.labels))
        assert acc == 0.5

    def test_centroid_classifier_on_separable_data(self):
        # tight clusters are nearest-centroid separable; the equivalent
        # linear scorer w_c = mu_c, b_c = -||mu_c||^2 / 2 must be perfect
        ds = generate_synthetic(3, 6, 80, 0.01, seed=2)
        mus = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        spec = ModelSpec(kind="logistic", dim=6, num_classes=3)
        x = np.concatenate([mus.T.ravel(), -0.5 * np.sum(mus**2, axis=1)])
        acc = eval_model(spec, x, Shard(ds.features, ds.labels))
        assert acc == 1.0

    def test_accuracy_in_unit_interval(self, rng):
        ds = generate_synthetic(4, 5, 20, 1.5, seed=3)
        spec = ModelSpec(kind="mlp", dim=5, num_classes=4, hidden=(6,))
        for _ in range(5):
            x = rng.normal(size=spec.param_count())
            acc = eval_model(spec, x, Shard(ds.features, ds.labels))
            assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("hidden", [(), (6,)], ids=["logistic", "mlp"])
    def test_accuracy_is_that_of_loss_and_predictions(self, rng, hidden):
        ds = generate_synthetic(4, 5, 30, 1.5, seed=3)
        test = Shard(ds.features, ds.labels)
        spec = ModelSpec(kind="mlp" if hidden else "logistic", dim=5, num_classes=4, hidden=hidden)
        xs = [rng.normal(size=spec.param_count()) for _ in range(6)]
        layer = models._unpack(spec, xs[-1])[-1]  # a view of the output layer, [W; b]
        layer[:, 2] = layer[:, 1]  # classes 1 and 2 tie exactly on every row
        xs.append(np.zeros(spec.param_count()))  # every logit ties
        for x in xs:
            _, pred = loss_and_predictions(spec, x, test)
            assert eval_model(spec, x, test) == float(np.mean(pred == test.labels))

    def test_quadratic_has_no_accuracy(self):
        spec = ModelSpec(kind="quadratic", quad_a=np.eye(2)[None], quad_b=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            eval_model(spec, np.zeros(2), Shard(np.zeros((1, 2)), np.zeros(1, dtype=np.int64)))


def _rec(t, acc):
    return RoundRecord(
        t=t, train_loss=0.0, test_acc=acc, grad_norm_sq=0.0,
        consensus=0.0, delta_t=0.0, v1=None, v2=None, lr=0.1,
    )


class TestRoundsToTarget:
    def test_first_crossing(self):
        records = [_rec(0, 0.3), _rec(1, 0.6), _rec(2, 0.8)]
        assert rounds_to_target(records, [0.6]) == [(0.6, 1)]

    def test_unreachable(self):
        records = [_rec(0, 0.3), _rec(1, 0.6)]
        assert rounds_to_target(records, [0.9]) == [(0.9, None)]

    def test_zero_target_hits_immediately(self):
        records = [_rec(0, 0.3)]
        assert rounds_to_target(records, [0.0]) == [(0.0, 0)]

    def test_respects_round_numbers(self):
        records = [_rec(0, 0.3), _rec(10, 0.65), _rec(20, 0.9)]
        assert rounds_to_target(records, [0.6, 0.9]) == [(0.6, 10), (0.9, 20)]


class TestMetricsCsv:
    def test_layout_and_blanks(self, tmp_path):
        path = tmp_path / "metrics.csv"
        records = [
            RoundRecord(0, 1.5, None, 0.25, 0.0, 0.0, None, None, 0.1),
            RoundRecord(1, 1.25, 0.75, 0.125, 0.01, 0.02, 0.3, 0.4, 0.0998),
        ]
        write_metrics_csv(records, path)
        raw = path.read_bytes().decode()
        assert "\r" not in raw
        lines = raw.strip().split("\n")
        assert lines[0] == "t,train_loss,test_acc,grad_norm_sq,consensus,delta_t,v1,v2,lr"
        assert lines[1].split(",")[2] == ""  # absent accuracy
        assert lines[1].split(",")[6] == ""  # absent v1
        assert float(lines[2].split(",")[8]) == 0.0998

    def test_values_roundtrip_exactly(self, tmp_path):
        rec = RoundRecord(3, 0.1 + 0.2, 1 / 3, 1e-17, 0.0, 2.5e-4, None, None, 0.1 * 0.998**3)
        path = tmp_path / "metrics.csv"
        write_metrics_csv([rec], path)
        cells = path.read_text().strip().split("\n")[1].split(",")
        assert float(cells[1]) == rec.train_loss
        assert float(cells[2]) == rec.test_acc
        assert float(cells[8]) == rec.lr


class TestStabilityProbe:
    def test_identical_replacement_is_a_fixed_point(self):
        cfg = probe_cfg(rounds=15)
        problem = build_problem(cfg)
        trace = stability_probe(cfg, problem, (0, 3), int(problem.shards[0].labels[3]))
        assert (trace.distances == 0.0).all()
        assert (trace.heldout_gap == 0.0).all()

    @pytest.mark.parametrize("algorithm", ["oled_sgd", "fedavg_central", "dpsgd"])
    def test_zero_prefix_then_positive(self, algorithm):
        cfg = probe_cfg(rounds=40, algorithm=AlgorithmKind(algorithm), participation=0.5)
        problem = build_problem(cfg)
        flip = (int(problem.shards[0].labels[3]) + 1) % problem.spec.num_classes
        trace = stability_probe(cfg, problem, (0, 3), flip)
        assert trace.first_draw is not None
        first_round = trace.first_draw[0]
        assert (trace.distances[:first_round] == 0.0).all()  # bitwise
        assert (trace.distances[first_round:] >= 0).all()
        assert trace.mean_distance[first_round] > 0
        assert np.isfinite(trace.distances).all()

    def test_twin_shares_features_and_differs_in_one_label(self, monkeypatch):
        cfg = probe_cfg(rounds=2)
        problem = build_problem(cfg)
        stacks = []

        def recorded(cfg, prob):
            stacks.append(prob.shards)
            return iter_rounds(cfg, prob)

        monkeypatch.setattr(stability, "iter_rounds", recorded)
        flip = (int(problem.shards[2].labels[1]) + 1) % problem.spec.num_classes
        stability_probe(cfg, problem, (2, 1), flip)
        original, twin = stacks
        assert original is problem.shards
        assert twin.features is problem.shards.features
        changed = np.flatnonzero(twin.labels != original.labels)
        assert changed.tolist() == [problem.shards.offsets[2] + 1]

    def test_rejects_bad_indices(self):
        cfg = probe_cfg(rounds=2)
        problem = build_problem(cfg)
        with pytest.raises(ValueError):
            stability_probe(cfg, problem, (99, 0), 0)
        with pytest.raises(ValueError):
            stability_probe(cfg, problem, (0, 10_000), 0)

    def test_rejects_quadratic(self):
        cfg = probe_cfg(model=ModelConfig(kind="quadratic", p=4))
        with pytest.raises(ValueError):
            stability_probe(cfg, build_problem(cfg), (0, 0), 0)


class TestRecordInvariants:
    def test_nonnegative_metrics_over_a_run(self):
        result = run_experiment(probe_cfg(rounds=10, diagnostics=True))
        for rec in result.records:
            assert rec.train_loss >= 0
            assert rec.grad_norm_sq >= 0
            assert rec.consensus >= 0
            assert rec.delta_t >= 0
            assert rec.v1 >= 0 and rec.v2 >= 0
            assert 0.0 <= rec.test_acc <= 1.0
            assert rec.lr > 0
