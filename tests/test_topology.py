"""Mixing-matrix construction, spectral quantities, and the affine transform."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgossip.cli import main
from dgossip.engine import gossip_mix
from dgossip.keyed import _floyd, _keys
from dgossip.topology import (
    MixingMatrix,
    TopologyKind,
    TopologySpec,
    _partners,
    averaging_matrix,
    beta_theory_bound,
    build_mixing,
    spectral_gap,
)
from stream_reference import GAMMA, MASK, floyd, mix64, partners

ALL_KINDS = list(TopologyKind)


def modified(w: MixingMatrix, beta: float) -> np.ndarray:
    """The dense (1 + beta) * W - beta * I that lookahead gossips with."""
    return (1.0 + beta) * w.w - beta * np.eye(w.m)


def ring_metropolis_psi(m: int) -> float:
    # circulant oracle: ring eigenvalues are 1/3 + (2/3) cos(2 pi k / m)
    lams = [1 / 3 + (2 / 3) * math.cos(2 * math.pi * k / m) for k in range(1, m)]
    return max(abs(l) for l in lams)


def make_spec(kind: TopologyKind, m: int, k: int = 3, seed: int = 0) -> TopologySpec:
    return TopologySpec(kind=kind, m=m, k=min(k, m - 1), seed=seed)


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    if kind is TopologyKind.GRID:
        m = draw(st.sampled_from([4, 9, 16, 25]))
    else:
        m = draw(st.integers(min_value=2, max_value=24))
    k = draw(st.integers(min_value=1, max_value=max(1, m - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return make_spec(kind, m, k, seed)


class TestBuildMixing:
    def test_fully_connected_uniform(self):
        w = build_mixing(make_spec(TopologyKind.FULLY_CONNECTED, 4))
        assert np.array_equal(w.w, np.full((4, 4), 0.25))

    def test_ring4_metropolis_by_hand(self):
        # degree 2 everywhere: neighbor weight 1/3, self weight 1/3
        w = build_mixing(make_spec(TopologyKind.RING, 4))
        expected = np.array(
            [
                [1 / 3, 1 / 3, 0.0, 1 / 3],
                [1 / 3, 1 / 3, 1 / 3, 0.0],
                [0.0, 1 / 3, 1 / 3, 1 / 3],
                [1 / 3, 0.0, 1 / 3, 1 / 3],
            ]
        )
        assert np.allclose(w.w, expected, atol=1e-15)

    def test_ring2_degenerate(self):
        w = build_mixing(make_spec(TopologyKind.RING, 2))
        assert np.array_equal(w.w, np.full((2, 2), 0.5))

    def test_grid_requires_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            build_mixing(make_spec(TopologyKind.GRID, 15))

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            build_mixing(make_spec(TopologyKind.RING, 1))

    def test_random_k_requires_k_below_m(self):
        with pytest.raises(ValueError):
            build_mixing(TopologySpec(TopologyKind.RANDOM_K, m=4, k=4))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_an_exact_kind_value_builds_its_members_matrix(self, kind):
        spec = TopologySpec(kind.value, 9, k=3, seed=5)
        assert spec.kind is kind
        got, want = build_mixing(spec), build_mixing(TopologySpec(kind, 9, k=3, seed=5))
        assert all(np.array_equal(a, b) for a, b in zip(got.neighbours, want.neighbours, strict=True))
        assert got.w.tobytes() == want.w.tobytes()

    @pytest.mark.parametrize("kind", ["Ring", "RING", " ring", "fully_connected", "exp", 3])
    def test_an_unknown_kind_is_refused_naming_it(self, kind):
        with pytest.raises(ValueError, match=f"unknown topology kind {kind!r}"):
            build_mixing(TopologySpec(kind, 9))

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_invariants(self, spec):
        w = build_mixing(spec)
        assert np.array_equal(w.w, w.w.T)  # bitwise symmetry
        assert np.all(np.abs(w.w.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(w.w >= 0.0)
        vals = np.linalg.eigvalsh(w.w)
        assert vals[0] > -1.0
        assert vals[-1] <= 1.0 + 1e-9
        assert abs(vals[-1] - 1.0) <= 1e-9  # exactly one eigenvalue at 1
        assert vals[-2] < 1.0 - 1e-9
        assert w.psi == spectral_gap(w.w)  # the cached spectrum is a fresh eigvalsh, bitwise

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_self_weight_is_one_minus_the_rest_of_its_row(self, spec):
        # w_ii = 1 - sum_j w_ij, summed over row i as the table lays it out:
        # the other weights in ascending j, 0.0 at i's own entry and the padding
        index, weight = build_mixing(spec).neighbours
        for i, (cols, row) in enumerate(zip(index, weight)):
            others = np.where(cols == i, 0.0, row)
            assert row[cols == i].max() == 1.0 - np.sum(others)

    @settings(max_examples=25, deadline=None)
    @given(specs())
    def test_power_contraction(self, spec):
        # ||W^t - P||_op <= psi^t for small t
        w = build_mixing(spec)
        p = averaging_matrix(spec.m)
        power = np.eye(spec.m)
        for t in range(1, 6):
            power = power @ w.w
            assert np.linalg.norm(power - p, 2) <= w.psi**t + 1e-9

    def test_determinism(self):
        spec = make_spec(TopologyKind.RANDOM_K, 30, k=4, seed=99)
        assert np.array_equal(build_mixing(spec).w, build_mixing(spec).w)

    def test_build_and_gossip_allocate_no_dense_matrix(self):
        m = 4096
        tracemalloc.start()
        try:
            w = build_mixing(make_spec(TopologyKind.RING, m))
            gossip_mix(np.ones((m, 1)), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below even a boolean (m, m) array; a dense float64 W is 8 times that
        assert peak < m * m

    def test_rejects_a_table_gossip_would_misread(self):
        # gossip gathers rows unchecked, so a bad table must not get that far
        weight = np.full((3, 2), 0.5)
        for index in (np.array([[0, 1], [1, 3], [2, 0]]), np.array([[0, 1], [1, -1], [2, 0]])):
            with pytest.raises(ValueError, match="out of range"):
                MixingMatrix(index, weight)
        for index, w in (
            (np.zeros((3, 2), dtype=np.intp), np.full((3, 3), 0.5)),
            (np.zeros((3, 2), dtype=np.intp), np.full((2, 2), 0.5)),
            (np.zeros(3, dtype=np.intp), np.ones(3)),
        ):
            with pytest.raises(ValueError, match="shape"):
                MixingMatrix(index, w)
        MixingMatrix(np.array([[0, 1], [0, 1], [1, 2]]), weight)  # in range: accepted


class TestSpectralGap:
    def test_fully_connected_is_rank_one(self):
        for m in (4, 8, 32):
            assert build_mixing(make_spec(TopologyKind.FULLY_CONNECTED, m)).psi <= 1e-12

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_ring_matches_circulant_oracle(self, m):
        w = build_mixing(make_spec(TopologyKind.RING, m))
        assert w.psi == pytest.approx(ring_metropolis_psi(m), abs=1e-9)

    def test_ring16_frozen_value(self):
        w = build_mixing(make_spec(TopologyKind.RING, 16))
        assert w.psi == pytest.approx(1 / 3 + (2 / 3) * math.cos(math.pi / 8), abs=1e-9)

    def test_ordering_at_16(self):
        psi = {
            kind: build_mixing(make_spec(kind, 16)).psi
            for kind in (
                TopologyKind.FULLY_CONNECTED,
                TopologyKind.EXPONENTIAL,
                TopologyKind.GRID,
                TopologyKind.RING,
            )
        }
        assert (
            psi[TopologyKind.FULLY_CONNECTED]
            < psi[TopologyKind.EXPONENTIAL]
            < psi[TopologyKind.GRID]
            < psi[TopologyKind.RING]
        )


class TestChebyshevModified:
    """psi_tilde(beta), the non-principal radius of (1 + beta) * W - beta * I, and beta*."""

    def test_beta_zero_is_identity_transform(self):
        w = build_mixing(make_spec(TopologyKind.GRID, 9))
        assert np.array_equal(modified(w, 0.0), w.w)
        assert w.psi_tilde(0.0) == pytest.approx(w.psi, abs=1e-12)

    def test_fully_connected_mapped_spectrum(self):
        # eigenvalues {1, 0, 0, 0} -> {1, -0.3, -0.3, -0.3}
        w = build_mixing(make_spec(TopologyKind.FULLY_CONNECTED, 4))
        assert w.psi_tilde(0.3) == pytest.approx(0.3, abs=1e-12)
        vals = np.sort(np.linalg.eigvalsh(modified(w, 0.3)))
        assert np.allclose(vals, [-0.3, -0.3, -0.3, 1.0], atol=1e-12)

    def test_ring16_beta02_contracts_faster(self):
        w = build_mixing(make_spec(TopologyKind.RING, 16))
        # map the circulant spectrum independently
        lams = [1 / 3 + (2 / 3) * math.cos(2 * math.pi * k / 16) for k in range(1, 16)]
        expected = max(abs(1.2 * l - 0.2) for l in lams)
        assert w.psi_tilde(0.2) == pytest.approx(expected, abs=1e-9)
        assert w.psi_tilde(0.2) < w.psi

    def test_rejects_bad_beta(self):
        w = build_mixing(make_spec(TopologyKind.RING, 4))
        for beta in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                w.psi_tilde(beta)

    @settings(max_examples=40, deadline=None)
    @given(specs(), st.floats(min_value=0.0, max_value=0.99))
    def test_eigenvalue_map_exactness(self, spec, beta):
        w = build_mixing(spec)
        mod = modified(w, beta)
        got = np.sort(np.linalg.eigvalsh(mod))
        want = np.sort((1.0 + beta) * np.linalg.eigvalsh(w.w) - beta)
        assert np.all(np.abs(got - want) <= 1e-9)
        assert np.all(np.abs(mod.sum(axis=1) - 1.0) <= 1e-12)
        assert abs(got[-1] - 1.0) <= 1e-9  # principal eigenvalue stays at 1

    @settings(max_examples=40, deadline=None)
    @given(specs(), st.floats(min_value=0.0, max_value=0.99))
    def test_psi_tilde_is_the_modified_matrix_radius(self, spec, beta):
        # the radius read off W's cached spectrum against eigvalsh of the matrix itself
        w = build_mixing(spec)
        assert abs(w.psi_tilde(beta) - spectral_gap(modified(w, beta))) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(specs())
    def test_psi_tilde_at_zero_is_psi_bitwise(self, spec):
        w = build_mixing(spec)
        assert w.psi_tilde(0.0) == w.psi

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_beta_star_minimises_psi_tilde(self, kind):
        w = build_mixing(make_spec(kind, 16, k=3, seed=5))
        assert 0.0 <= w.beta_star < 1.0
        grid = [w.psi_tilde(beta) for beta in np.linspace(0.0, 0.99, 199)]
        assert w.psi_tilde(w.beta_star) <= min(grid) + 1e-12

    def test_one_eigen_decomposition_per_matrix(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        w = build_mixing(make_spec(TopologyKind.RANDOM_K, 20, k=3, seed=1))
        readings = [w.psi, *(w.psi_tilde(beta) for beta in (0.0, 0.2, 0.5, 0.9)), w.beta_star]
        assert calls == [(20, 20)] and len(readings) == 6


def random_k_adjacency(m: int, k: int, seed: int) -> np.ndarray:
    """The edges of a random_k mixing matrix: its support off the diagonal."""
    w = build_mixing(TopologySpec(TopologyKind.RANDOM_K, m, k=k, seed=seed)).w
    return (w != 0) & ~np.eye(m, dtype=bool)


class TestRandomK:
    def test_k_equal_m_minus_one_is_complete(self):
        for seed in (0, 1, 7):
            adj = random_k_adjacency(4, 3, seed)
            assert np.array_equal(adj, ~np.eye(4, dtype=bool))

    def test_degree_lower_bound(self):
        adj = random_k_adjacency(100, 10, 7)
        assert adj.sum(axis=1).min() >= 10

    def test_bitwise_determinism(self):
        a = random_k_adjacency(50, 5, 123)
        b = random_k_adjacency(50, 5, 123)
        assert np.array_equal(a, b)
        c = random_k_adjacency(50, 5, 124)
        assert not np.array_equal(a, c)

    def test_symmetric_no_self_loops(self):
        adj = random_k_adjacency(20, 2, 5)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_connectivity_check_matches_graph_search(self):
        from dgossip.topology import _is_connected, _metropolis

        def reachable_from_zero(adj):
            seen, stack = {0}, [0]
            while stack:
                for j in np.flatnonzero(adj[stack.pop()]):
                    if int(j) not in seen:
                        seen.add(int(j))
                        stack.append(int(j))
            return len(seen) == len(adj)

        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            adj = rng.random((m, m)) < rng.uniform(0.0, 0.4)
            adj |= adj.T
            np.fill_diagonal(adj, False)
            # each row lists its neighbours, with the client itself in place of the rest
            index, _ = _metropolis(np.where(adj, np.arange(m), np.arange(m)[:, None])).neighbours
            assert _is_connected(index) == reachable_from_zero(adj)

    def test_psi_is_computed_on_first_use(self):
        w = build_mixing(make_spec(TopologyKind.RANDOM_K, 30, k=4, seed=2))
        assert w._spectrum is None  # building W_t runs no eigen-decomposition
        assert w._w is None  # nor builds the dense matrix
        assert w.psi == spectral_gap(w.w)


class TestFloydPartners:
    """random_k partners: Floyd's sampler on each client's keyed stream, held to the scalar reference."""

    @pytest.mark.parametrize(
        "m, k, seed, attempt",
        [(2, 1, 0, 0), (5, 4, 3, 0), (16, 15, 9, 2), (100, 10, 0, 0), (100, 10, 1, 0), (100, 10, 7, 3),
         (37, 5, 2**64 - 1, 31)],
    )
    def test_partners_equal_the_scalar_reference(self, m, k, seed, attempt):
        got = _partners(TopologySpec(TopologyKind.RANDOM_K, m, k=k, seed=seed), attempt)
        assert got.dtype == np.int64 and np.array_equal(got, partners(seed, m, k, attempt))

    def test_rejected_values_retry_like_the_scalar_reference(self):
        # near n = 3 * 2**30 the Lemire threshold (2**32 - n) mod n is about 2**30,
        # so about a quarter of the first values are rejected, some more than once
        n, k, rows = 3 * 2**30 + 7, 6, 64
        key = _keys(rows, 5, 2, 0, np.arange(rows))
        first = [
            mix64(int(row) + (j + 1) * GAMMA & MASK) >> 32 for row in key for j in range(k)
        ]
        tops = [n - k + j + 1 for _ in range(rows) for j in range(k)]
        rejected = sum(u * top & 0xFFFFFFFF < (2**32 - top) % top for u, top in zip(first, tops))
        assert 0.15 * rows * k < rejected < 0.35 * rows * k
        assert np.array_equal(_floyd(key, n, k), [floyd(int(row), n, k) for row in key])

    def test_k_subsets_are_uniform(self):
        # each of the 6 clients' 2 partners, as a subset of the 5 others, over 2000 fixed seeds:
        # chi-square with 9 degrees of freedom below its 0.999 quantile
        index = {pair: i for i, pair in enumerate(itertools.combinations(range(5), 2))}
        counts = np.zeros(len(index))
        for seed in range(2000):
            for i, row in enumerate(_partners(TopologySpec(TopologyKind.RANDOM_K, 6, k=2, seed=seed), 0)):
                counts[index[tuple(sorted(int(p) - (p > i) for p in row))]] += 1
        expected = counts.sum() / len(counts)
        assert ((counts - expected) ** 2 / expected).sum() < 27.877

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
        st.integers(0, 2**64 - 1),
        st.integers(0, 31),
    )
    def test_each_row_has_k_distinct_partners_and_not_itself(self, mk, seed, attempt):
        m, k = mk
        got = _partners(TopologySpec(TopologyKind.RANDOM_K, m, k=k, seed=seed), attempt)
        assert got.shape == (m, k) and got.min() >= 0 and got.max() < m
        assert all(len(set(row)) == k and i not in row for i, row in enumerate(got.tolist()))


class TestSeedBound:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_spec_outside_64_bits_is_refused_naming_the_seed(self, seed):
        with pytest.raises(ValueError, match="topology.seed"):
            TopologySpec(TopologyKind.RANDOM_K, 4, k=1, seed=seed).validate()

    def test_topo_report_refuses_a_seed_of_2_to_the_64(self, capsys):
        assert main(["topo-report", "--kinds", "random_k", "--m", "2", "--k", "1", "--seed", str(2**64)]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_topo_report_takes_the_largest_64_bit_seed(self, capsys):
        assert main(["topo-report", "--kinds", "random_k", "--m", "2,5", "--k", "1", "--seed", str(2**64 - 1)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 3


class TestBetaTheoryBound:
    def test_psi_zero(self):
        # both branches evaluated independently: sqrt(10)/40 > sqrt(5)/30
        assert beta_theory_bound(0.0) == pytest.approx(math.sqrt(5) / 30, abs=1e-12)
        assert math.sqrt(10) / 40 > math.sqrt(5) / 30

    def test_psi_half(self):
        first = math.sqrt(10) * 0.5 / 40
        assert first < math.sqrt(5) / 30
        assert beta_theory_bound(0.5) == pytest.approx(first, abs=1e-12)
        assert beta_theory_bound(0.5) == pytest.approx(math.sqrt(10) / 80, abs=1e-12)

    def test_vanishes_as_psi_approaches_one(self):
        assert beta_theory_bound(1.0 - 1e-9) < 1e-9
        with pytest.raises(ValueError):
            beta_theory_bound(1.0)

    def test_monotone_in_psi(self):
        grid = np.linspace(0.0, 0.999, 50)
        bounds = [beta_theory_bound(p) for p in grid]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_reference_formula_table_covers_all_kinds(capsys):
    # topo-report prints beta* and psi_tilde(beta*) for every kind, from the matrix's one spectrum
    kinds = ",".join(kind.value for kind in TopologyKind)
    assert main(["topo-report", "--kinds", kinds, "--m", "4,16,100", "--k", "3"]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert header.split(",")[4:] == ["beta_star", "psi_tilde_at_beta_star"]
    table = {(row.split(",")[0], int(row.split(",")[1])): [float(v) for v in row.split(",")[2:]] for row in rows}
    assert set(table) == {(kind.value, m) for kind in TopologyKind for m in (4, 16, 100)}
    for (kind, m), (psi, _, beta_star, psi_tilde) in table.items():
        w = build_mixing(make_spec(TopologyKind(kind), m, k=3))
        assert (psi, beta_star, psi_tilde) == (w.psi, w.beta_star, w.psi_tilde(w.beta_star))
        assert 0.0 <= beta_star < 1.0 and psi_tilde <= psi, (kind, m)
    assert table[("ring", 16)][2] == pytest.approx(0.4450, abs=1e-4)


# sha256 prefixes of the Metropolis matrices, self weights set by the row rule
# test_self_weight_is_one_minus_the_rest_of_its_row pins, so a rewrite of the
# graph construction must reproduce W bitwise
W_FINGERPRINTS = {
    ("ring", 4): "30c66ce1d9bb5d68", ("ring", 9): "4f4218e71f5e99f4",
    ("ring", 16): "12eac83372477cf5", ("ring", 25): "d4a30ee5fd1f6da2",
    ("ring", 64): "babd35f6874ede66", ("ring", 100): "ee214be8580cfea7",
    ("grid", 4): "dd6762cdb21b822c", ("grid", 9): "52ade8e15e6d6ce2",
    ("grid", 16): "57085081d16a5a8b", ("grid", 25): "3b699dd361212368",
    ("grid", 64): "5a7a1a4ba070caa6", ("grid", 100): "154f65f83efc7032",
    ("exponential", 4): "c68b23194102001f", ("exponential", 9): "c33a53541bf85c92",
    ("exponential", 16): "1b903a4037bc90ad", ("exponential", 25): "426b2a1cd476f298",
    ("exponential", 64): "4fa4b73f7e140afc", ("exponential", 100): "7740e6a792173f34",
    ("full", 4): "c68b23194102001f", ("full", 9): "8266f72ac1ef3b47",
    ("full", 16): "91fc120cdcf6a2dc", ("full", 25): "8bdc0068b4290106",
    ("full", 64): "86141f6476ccbc71", ("full", 100): "f831a37dd57a882f",
    # past numpy's 128-element pairwise-summation block
    ("grid", 144): "4a6c91593855b087", ("grid", 256): "00197fc8c6c9e847",
    ("exponential", 144): "60435e0b28948d33", ("exponential", 256): "27eeccb8b9d0c429",
    ("full", 144): "58b09547bdcfec2a", ("full", 256): "9d4ade33b4e77e27",
}

# the same for random_k draws, keyed by (m, k, seed)
RANDOM_K_FINGERPRINTS = {
    (16, 3, 0): "4f1c4235b9b6d6d2", (16, 3, 1): "7063fc3dc5625f1e",
    (16, 10, 0): "f39bc05804268544", (16, 10, 1): "839fdc519f172f71",
    (100, 3, 0): "53daaa09c2ae3e3f", (100, 3, 1): "7625e929f911cf7b",
    (100, 10, 0): "775131fe7634224f", (100, 10, 1): "15c9d4e5a1a5c2bd",
}


@pytest.mark.parametrize("kind, m", sorted(W_FINGERPRINTS))
def test_mixing_matrix_fingerprint(kind, m):
    w = build_mixing(TopologySpec(TopologyKind(kind), m)).w
    assert hashlib.sha256(w.tobytes()).hexdigest()[:16] == W_FINGERPRINTS[kind, m]


@pytest.mark.parametrize("m, k, seed", sorted(RANDOM_K_FINGERPRINTS))
def test_random_k_mixing_matrix_fingerprint(m, k, seed):
    w = build_mixing(TopologySpec(TopologyKind.RANDOM_K, m, k=k, seed=seed)).w
    assert hashlib.sha256(w.tobytes()).hexdigest()[:16] == RANDOM_K_FINGERPRINTS[m, k, seed]
