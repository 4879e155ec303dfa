"""Dataset generation, CSV loading, and partition schemes."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip.cli import main
from dgossip.data import (
    LabeledDataset,
    _as_plan,
    _largest_remainder,
    _repair_empty,
    generate_synthetic,
    generate_synthetic_holdout,
    load_csv,
    partition_dirichlet,
    partition_iid,
    partition_pathological,
)


def nearest_centroid_accuracy(ds: LabeledDataset) -> float:
    centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)])
    d2 = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == ds.labels))


def label_histogram(ds, idx):
    return np.bincount(ds.labels[idx], minlength=ds.num_classes) / len(idx)


def tv_distance(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def assert_is_partition(plan, n):
    flat = np.concatenate(plan)
    assert len(flat) == n
    assert np.array_equal(np.sort(flat), np.arange(n))
    assert all(len(a) >= 1 for a in plan)


class TestSynthetic:
    def test_counts(self):
        ds = generate_synthetic(2, 2, 50, 0.5, seed=0)
        assert len(ds) == 100
        assert np.bincount(ds.labels).tolist() == [50, 50]

    def test_determinism(self):
        a = generate_synthetic(3, 4, 10, 0.3, seed=7)
        b = generate_synthetic(3, 4, 10, 0.3, seed=7)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, generate_synthetic(3, 4, 10, 0.3, seed=8).features)

    def test_tight_clusters_are_separable(self):
        ds = generate_synthetic(3, 5, 200, 0.01, seed=1)
        assert nearest_centroid_accuracy(ds) >= 0.99

    def test_holdout_shares_means_disjoint_noise(self):
        train = generate_synthetic(4, 6, 100, 0.2, seed=3)
        test = generate_synthetic_holdout(4, 6, 100, 0.2, seed=3)
        for c in range(4):
            mu_train = train.features[train.labels == c].mean(axis=0)
            mu_test = test.features[test.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 0.2
        assert not np.array_equal(train.features, test.features)

    def test_rejects_degenerate_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 2, 10, 0.5, seed=0)


class TestIID:
    def test_even_split(self):
        ds = generate_synthetic(2, 2, 50, 0.5, seed=0)  # n=100
        plan = partition_iid(ds, 10, seed=0)
        assert [len(a) for a in plan] == [10] * 10

    def test_remainder_split(self):
        feats = np.zeros((101, 2))
        labels = np.zeros(101, dtype=np.int64)
        ds = LabeledDataset(feats, labels, num_classes=1)
        plan = partition_iid(ds, 10, seed=0)
        sizes = sorted(len(a) for a in plan)
        assert sizes == [10] * 9 + [11]

    def test_determinism(self):
        ds = generate_synthetic(2, 2, 50, 0.5, seed=0)
        a = partition_iid(ds, 7, seed=3)
        b = partition_iid(ds, 7, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDirichlet:
    @staticmethod
    def dealt_client_by_client(ds, m, alpha, seed):
        """The per-(class, client) loop that the vectorised deal must match bitwise, errors included."""
        n = len(ds)
        if n < m:
            raise ValueError(f"cannot give every client a sample: n={n} < m={m}")
        rng = np.random.default_rng([seed])
        parts = [[] for _ in range(m)]
        for c in np.unique(ds.labels):
            idx = np.nonzero(ds.labels == c)[0].astype(np.int64)
            rng.shuffle(idx)
            shares = rng.dirichlet(np.full(m, alpha))
            start = 0
            for i, cnt in enumerate(_largest_remainder(shares, len(idx))):
                parts[i].extend(idx[start : start + cnt].tolist())
                start += cnt
        return _repair_empty([np.asarray(p, dtype=np.int64) for p in parts])

    def test_single_client_takes_all(self):
        ds = generate_synthetic(3, 2, 10, 0.5, seed=0)
        plan = partition_dirichlet(ds, 1, alpha=0.5, seed=0)
        assert_is_partition(plan, len(ds))
        assert len(plan[0]) == len(ds)

    def test_huge_alpha_is_nearly_uniform(self):
        # Dir(inf) concentrates at uniform shares
        ds = generate_synthetic(4, 2, 250, 0.5, seed=0)
        global_hist = label_histogram(ds, np.arange(len(ds)))
        for seed in range(10):
            plan = partition_dirichlet(ds, 10, alpha=1e6, seed=seed)
            tv = np.mean(
                [tv_distance(label_histogram(ds, a), global_hist) for a in plan]
            )
            assert tv < 0.05

    def test_covers_exactly_once(self):
        ds = generate_synthetic(5, 3, 40, 0.5, seed=2)
        plan = partition_dirichlet(ds, 10, alpha=0.3, seed=4)
        assert_is_partition(plan, len(ds))

    def test_heterogeneity_monotone_in_alpha(self):
        ds = generate_synthetic(4, 2, 250, 0.5, seed=0)
        global_hist = label_histogram(ds, np.arange(len(ds)))
        means = []
        for alpha in (0.1, 0.3, 1.0, 10.0, 1e6):
            tvs = []
            for seed in range(10):
                plan = partition_dirichlet(ds, 10, alpha=alpha, seed=seed)
                tvs.append(
                    np.mean(
                        [tv_distance(label_histogram(ds, a), global_hist) for a in plan]
                    )
                )
            means.append(np.mean(tvs))
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_small_dataset_rejected(self):
        ds = generate_synthetic(2, 2, 2, 0.5, seed=0)  # n=4
        with pytest.raises(ValueError):
            partition_dirichlet(ds, 5, alpha=0.5, seed=0)

    def test_label_gaps_draw_as_the_compacted_labels(self):
        # absent classes draw nothing, so only the order of the present labels matters
        ds = generate_synthetic(4, 2, 30, 0.5, seed=1)
        gapped = LabeledDataset(ds.features, np.array([0, 7, 8, 3_000_000])[ds.labels], 3_000_001)
        for seed in range(5):
            compact = partition_dirichlet(ds, 6, alpha=0.3, seed=seed)
            spread = partition_dirichlet(gapped, 6, alpha=0.3, seed=seed)
            assert all(np.array_equal(a, b) for a, b in zip(compact, spread, strict=True))


class TestPathological:
    def test_exact_class_counts(self):
        ds = generate_synthetic(10, 2, 100, 0.5, seed=0)
        plan = partition_pathological(ds, 100, classes_per_client=2, seed=1)
        assert_is_partition(plan, len(ds))
        for a in plan:
            assert len(np.unique(ds.labels[a])) == 2

    def test_full_support_when_cpc_equals_c(self):
        ds = generate_synthetic(4, 2, 50, 0.5, seed=0)
        plan = partition_pathological(ds, 5, classes_per_client=4, seed=0)
        for a in plan:
            assert len(np.unique(ds.labels[a])) == 4

    def test_all_classes_covered(self):
        ds = generate_synthetic(10, 2, 50, 0.5, seed=0)
        plan = partition_pathological(ds, 5, classes_per_client=2, seed=3)
        held = np.unique(np.concatenate([np.unique(ds.labels[a]) for a in plan]))
        assert len(held) == 10

    def test_infeasible_rejected(self):
        ds = generate_synthetic(10, 2, 50, 0.5, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            partition_pathological(ds, 4, classes_per_client=2, seed=0)

    @staticmethod
    def dealt_over_every_class_id(ds, m, classes_per_client, seed):
        """The dealing over range(num_classes), absent ids included, that gap-free data must still get."""
        rng = np.random.default_rng([seed])
        while True:
            owned = [rng.choice(ds.num_classes, size=classes_per_client, replace=False) for _ in range(m)]
            if len(np.unique(np.concatenate(owned))) == ds.num_classes:
                break
        parts = [[] for _ in range(m)]
        for c in range(ds.num_classes):
            holders = [i for i, classes in enumerate(owned) if c in classes]
            idx = np.nonzero(ds.labels == c)[0].astype(np.int64)
            if len(idx) < len(holders):
                raise ValueError(
                    f"class {c} has {len(idx)} samples but {len(holders)} holders; "
                    "exact per-client class support is impossible"
                )
            rng.shuffle(idx)
            for holder, chunk in zip(holders, np.array_split(idx, len(holders))):
                parts[holder].extend(chunk.tolist())
        return [np.asarray(p, dtype=np.int64) for p in parts]

    @pytest.mark.parametrize(
        "classes, m, cpc, seed", [(10, 100, 2, 1), (4, 5, 4, 0), (10, 5, 2, 3), (3, 7, 2, 9)]
    )
    def test_gap_free_data_is_dealt_as_before(self, classes, m, cpc, seed):
        ds = generate_synthetic(classes, 2, 40, 0.5, seed=seed)
        plan = partition_pathological(ds, m, classes_per_client=cpc, seed=seed)
        reference = self.dealt_over_every_class_id(ds, m, cpc, seed)
        assert all(np.array_equal(a, b) for a, b in zip(plan, reference, strict=True))

    def test_label_gaps_deal_as_the_compacted_labels(self):
        ds = generate_synthetic(4, 2, 30, 0.5, seed=1)
        gapped = LabeledDataset(ds.features, np.array([0, 7, 8, 3_000_000])[ds.labels], 3_000_001)
        for seed in range(5):
            compact = partition_pathological(ds, 6, classes_per_client=2, seed=seed)
            spread = partition_pathological(gapped, 6, classes_per_client=2, seed=seed)
            assert all(np.array_equal(a, b) for a, b in zip(compact, spread, strict=True))

    def test_csv_with_a_label_gap_runs(self, tmp_path):
        # labels 0 and 2 only: class 1 is absent, and no client is dealt it
        csv = tmp_path / "gap.csv"
        csv.write_text("f1,f2,label\n" + "".join(f"{i % 5}.5,{i % 3}.0,{2 * (i % 2)}\n" for i in range(40)))
        preset = Path(__file__).parents[1] / "configs" / "logistic_dirichlet.toml"
        overrides = [
            "m=4", "rounds=2", "partition.scheme=pathological", "partition.classes_per_client=2",
            "data.source=csv", f"data.path={csv}",
        ]
        argv = ["run", "--config", str(preset), "--out", str(tmp_path / "out")]
        assert main(argv + [arg for o in overrides for arg in ("--set", o)]) == 0


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(["iid", "dirichlet", "pathological"]),
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_every_scheme_yields_a_set_partition(scheme, m, seed):
    ds = generate_synthetic(4, 3, 30, 0.5, seed=0)  # n=120
    if scheme == "iid":
        plan = partition_iid(ds, m, seed)
    elif scheme == "dirichlet":
        plan = partition_dirichlet(ds, m, alpha=0.3, seed=seed)
    else:
        cpc = 2 if m >= 2 else 4  # keep m * classes_per_client >= num_classes
        plan = partition_pathological(ds, m, classes_per_client=cpc, seed=seed)
    assert_is_partition(plan, len(ds))
    assert isinstance(plan, tuple) and len(plan) == m
    assert all(a.dtype == np.int64 for a in plan)


@st.composite
def labelled_rows(draw):
    """(dataset, its labels compacted to 0..C-1, the label of each compact class).

    2-30 classes of 1-40 rows each, in a shuffled row order; half the time
    the labels have gaps and the largest is 3,000,000.
    """
    sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=30))
    c = len(sizes)
    if draw(st.booleans()):
        ids = np.arange(c)
    else:
        ids = np.sort(np.random.default_rng(draw(st.integers(0, 2**32))).choice(3_000_000, c - 1, replace=False))
        ids = np.append(ids, 3_000_000)
    order = np.random.default_rng(draw(st.integers(0, 2**32))).permutation(sum(sizes))
    compact = np.repeat(np.arange(c), sizes)[order]
    features = np.zeros((len(compact), 1))
    return (
        LabeledDataset(features, ids[compact], int(ids[-1]) + 1),
        LabeledDataset(features, compact, c),
        ids,
    )


def outcome(partition, *args):
    """The plan as lists, or the ValueError's message."""
    try:
        return [p.tolist() for p in partition(*args)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    data=labelled_rows(),
    m=st.integers(1, 120),
    alpha=st.floats(0.01, 1e3),
    seed=st.integers(0, 2**32),
)
def test_dirichlet_deals_as_the_client_by_client_loop(data, m, alpha, seed):
    # small alpha leaves clients empty, so the repair runs; n < m fails alike on both sides
    ds, _, _ = data
    got = outcome(partition_dirichlet, ds, m, alpha, seed)
    assert got == outcome(TestDirichlet.dealt_client_by_client, ds, m, alpha, seed)
    assert isinstance(got, list) or "sample" in got


@settings(max_examples=150, deadline=None)
@given(data=labelled_rows(), m=st.integers(1, 120), cpc_pick=st.floats(0, 1), seed=st.integers(0, 2**32))
def test_pathological_deals_as_the_class_by_class_loop(data, m, cpc_pick, seed):
    # enough classes per client that one draw of owners covers every class with odds over 1/2,
    # so neither side spends its retries; a class with fewer rows than holders fails alike
    ds, compact, ids = data
    c = len(ids)
    low = min(c, math.ceil(c * (1 + math.log(c)) / m))
    cpc = low + int(cpc_pick * (c - low))
    got = outcome(partition_pathological, ds, m, cpc, seed)
    want = outcome(TestPathological.dealt_over_every_class_id, compact, m, cpc, seed)
    if isinstance(want, str):  # the reference names the compact class; the partition names its label
        want = re.sub(r"^class (\d+)", lambda hit: f"class {ids[int(hit[1])]}", want)
    assert got == want


@pytest.mark.parametrize(
    "parts, n",
    [
        ([np.array([0, 0, 1])], 2),
        ([np.array([0, 1]), np.array([], dtype=np.int64)], 2),
        ([np.array([0, 1]), np.array([5])], 3),
        ([np.array([-1, 1])], 2),
        ([np.array([0, 2]), np.array([2])], 3),
        ([np.array([1]), np.array([2])], 3),
    ],
    ids=["overlap", "empty", "out_of_range", "negative", "duplicate", "missing"],
)
def test_partition_check_rejects_overlap_and_empty_clients(parts, n):
    with pytest.raises(AssertionError, match="internal error"):
        _as_plan(parts, n)


class TestLoadCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f1,f2,label\n0.5,1.5,0\n-1.0,2.0,1\n3.25,0.0,1\n")
        ds = load_csv(str(path))
        assert ds.features.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.num_classes == 2

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f1,f2,label\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(str(path))

    def test_label_gaps_allowed(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("f1,label\n1.0,2\n2.0,2\n")
        assert load_csv(str(path)).num_classes == 3

    def test_bad_rows_name_the_line(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("f1,f2,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match=":3"):
            load_csv(str(ragged))
        negative = tmp_path / "neg.csv"
        negative.write_text("f1,label\n1.0,-1\n")
        with pytest.raises(ValueError, match="negative label"):
            load_csv(str(negative))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_feature_names_the_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f1,f2,label\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(ValueError, match=r"nonfinite\.csv:3: non-finite"):
            load_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/never.csv")

