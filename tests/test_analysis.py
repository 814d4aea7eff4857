"""Tests for null-space prediction, classification, and certification."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus.analysis import (
    CertificationReport,
    ConsensusKind,
    certify_cluster_consensus,
    group_clusters,
    mu_m_plus_1,
    null_intersection,
    predict_steady_state,
    verify_necessary_condition,
)
from mwconsensus.errors import (
    DimensionMismatchError,
    EmptyWindowError,
    NotPSDError,
    SignInconsistentEdgeError,
    WindowsNotContiguousError,
)
from mwconsensus.graph import MatrixWeightedGraph, laplacian
from mwconsensus.matalg import NullSpaceBasis, null_space, projector, psd_eigh
from mwconsensus.switching import (
    Segment,
    SwitchingSchedule,
    Window,
)

from mwconsensus import scenarios
from oracles import (
    NonOrthonormalPsiError,
    bipartite_steady_state,
    certify_per_window,
    state_transition,
)
from oracles import verify_necessary_condition as verify_necessary_condition_oracle
from randgen import rand_catalog, rand_certified_schedule, rand_windows, stacked_null_projector


def line_graph(weights_1d):
    """Path graph with scalar weights, d = 1."""
    n = len(weights_1d) + 1
    return MatrixWeightedGraph(
        n, 1, {(i, i + 1): np.array([[w]]) for i, w in enumerate(weights_1d)}
    )


class TestNullIntersection:
    def test_benchmark_dimension_is_five(self, cluster_cfg):
        laps = [laplacian(g) for g in cluster_cfg.graphs.values()]
        basis = null_intersection(laps)
        assert basis.dim == 5

    def test_matches_stacked_svd_oracle(self, rng):
        for _ in range(25):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            cat = rand_catalog(rng, n, d, int(rng.integers(1, 4)))
            laps = [laplacian(g) for g in cat.values()]
            basis = null_intersection(laps)
            P = projector(basis)
            P_oracle = stacked_null_projector(laps)
            assert np.linalg.norm(P - P_oracle, "fro") <= 1e-8

    def test_rejects_non_psd_summand(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(NotPSDError):
            null_intersection([bad])

    def test_rejects_mixed_orders(self):
        a = np.zeros((2, 2))
        b = np.zeros((3, 3))
        with pytest.raises(DimensionMismatchError):
            null_intersection([a, b])


class TestPrediction:
    def test_benchmark_clusters(self, cluster_cfg):
        laps = [laplacian(g) for g in cluster_cfg.graphs.values()]
        basis = null_intersection(laps)
        pred = predict_steady_state(basis, cluster_cfg.initial_state, 7, 3)
        assert pred.kind is ConsensusKind.CLUSTER_CONSENSUS
        assert pred.num_clusters == 3
        assert pred.clusters == ((0, 1, 2), (3, 5), (4, 6))

    def test_projection_identity_and_contraction(self, cluster_cfg):
        laps = [laplacian(g) for g in cluster_cfg.graphs.values()]
        basis = null_intersection(laps)
        x0 = cluster_cfg.initial_state
        pred = predict_steady_state(basis, x0, 7, 3)
        P = projector(basis)
        assert np.allclose(pred.steady_state, P @ x0, atol=1e-12)
        assert np.linalg.norm(pred.steady_state) <= np.linalg.norm(x0) + 1e-12
        # projecting again changes nothing
        again = predict_steady_state(basis, pred.steady_state, 7, 3)
        assert np.allclose(again.steady_state, pred.steady_state, atol=1e-12)

    def test_empty_basis_is_asymptotic_stability(self):
        basis = NullSpaceBasis(vectors=np.zeros((4, 0)), tol_used=1e-9)
        pred = predict_steady_state(basis, np.ones(4), 2, 2)
        assert pred.kind is ConsensusKind.ASYMPTOTIC_STABILITY
        assert np.array_equal(pred.steady_state, np.zeros(4))

    def test_connected_positive_graph_gives_consensus(self):
        g = line_graph([1.0, 2.0, 1.5])
        basis = null_space(laplacian(g))
        pred = predict_steady_state(basis, np.array([1.0, 2.0, 3.0, 4.0]), 4, 1)
        assert pred.kind is ConsensusKind.CONSENSUS
        assert pred.clusters == ((0, 1, 2, 3),)
        assert np.allclose(pred.steady_state, 2.5 * np.ones(4), atol=1e-9)

    def test_two_component_split_classification(self):
        # two disconnected pairs: mirrored means give bipartite, generic means do not
        g = MatrixWeightedGraph(
            4, 1, {(0, 1): np.array([[1.0]]), (2, 3): np.array([[1.0]])}
        )
        basis = null_space(laplacian(g))
        mirrored = predict_steady_state(basis, np.array([0.9, 1.1, -0.9, -1.1]), 4, 1)
        assert mirrored.kind is ConsensusKind.BIPARTITE_CONSENSUS
        generic = predict_steady_state(basis, np.array([0.9, 1.1, 2.0, 4.0]), 4, 1)
        assert generic.kind is ConsensusKind.CLUSTER_CONSENSUS
        assert generic.num_clusters == 2

    def test_dimension_checks(self):
        basis = NullSpaceBasis(vectors=np.zeros((4, 0)), tol_used=1e-9)
        with pytest.raises(DimensionMismatchError):
            predict_steady_state(basis, np.ones(3), 2, 2)
        with pytest.raises(DimensionMismatchError):
            predict_steady_state(basis, np.ones(6), 3, 2)


class TestGroupClusters:
    def test_exact_grouping(self):
        x = np.array([1.0, 1.0, 2.0, 1.0 + 1e-9])
        assert group_clusters(x, 4, 1) == ((0, 1, 3), (2,))

    def test_threshold_scales_with_magnitude(self):
        x = np.array([1e6, 1e6 + 0.5, 0.0])
        assert group_clusters(x, 3, 1) == ((0, 1), (2,))


class TestMu:
    def test_identity_flow_map(self):
        phi = np.eye(4)
        assert mu_m_plus_1(phi, 0) == pytest.approx(1.0)
        assert mu_m_plus_1(phi, 3) == pytest.approx(1.0)

    def test_monotone_in_m(self, cluster_cfg):
        phi = state_transition(cluster_cfg.schedule, Window(0, 3))
        mus = [mu_m_plus_1(phi, m) for m in range(8)]
        assert all(a >= b - 1e-15 for a, b in zip(mus, mus[1:]))

    def test_out_of_range(self):
        phi = np.eye(3)
        with pytest.raises(IndexError):
            mu_m_plus_1(phi, 3)
        with pytest.raises(IndexError):
            mu_m_plus_1(phi, -1)


class TestCertification:
    def test_benchmark_certifies(self, cluster_cfg):
        report = certify_cluster_consensus(cluster_cfg.schedule, cluster_cfg.windows())
        assert report.certified
        assert report.window_nullspaces_equal
        assert report.m == 5
        # pinned from an independent dense computation of the period flow map
        assert report.q_estimate == pytest.approx(0.5102029119, abs=1e-6)
        assert report.max_projector_distance <= 1e-8
        assert report.balance is not None and set(report.balance.sigma) == {1}
        assert not report.pn_spanning_tree

    def test_variant_certifies_with_balance_and_tree(self, bipartite_cfg):
        report = certify_cluster_consensus(bipartite_cfg.schedule, bipartite_cfg.windows())
        assert report.certified
        assert report.m == 3
        assert report.q_estimate == pytest.approx(0.7894193003, abs=1e-6)
        assert report.balance is not None
        assert report.balance.positive_set == (0, 1, 2)
        assert report.pn_spanning_tree

    def test_windows_must_tile_prefix(self, cluster_cfg):
        s = cluster_cfg.schedule
        with pytest.raises(WindowsNotContiguousError):
            certify_cluster_consensus(s, [Window(0, 3), Window(4, 6)])
        with pytest.raises(WindowsNotContiguousError):
            certify_cluster_consensus(s, [Window(3, 6)])
        with pytest.raises(WindowsNotContiguousError):
            certify_cluster_consensus(s, [])

    def test_unequal_window_nullspaces_block_certification(self):
        # second window's graph disconnects node 2, enlarging the null space
        g_full = MatrixWeightedGraph(
            3, 1, {(0, 1): np.array([[1.0]]), (1, 2): np.array([[1.0]])}
        )
        g_part = MatrixWeightedGraph(3, 1, {(0, 1): np.array([[1.0]])})
        from mwconsensus.switching import Segment, SwitchingSchedule

        s = SwitchingSchedule.explicit(
            {"full": g_full, "part": g_part},
            [Segment("full", 1.0), Segment("part", 1.0)],
            alpha=1.0,
        )
        report = certify_cluster_consensus(s, [Window(0, 1), Window(1, 2)])
        assert not report.window_nullspaces_equal
        assert not report.certified

    def test_null_spaces_use_catalog_eig_tol(self):
        # L has eigenvalues 0, 0, 2e-6, 2: the 2e-6 mode is null at eig_tol 1e-3
        W = np.diag([1.0, 1e-6])
        for eig_tol, m in ((1e-9, 2), (1e-3, 3)):
            g = MatrixWeightedGraph(2, 2, {(0, 1): W}, eig_tol=eig_tol)
            s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 1.0)], alpha=1.0)
            assert certify_cluster_consensus(s, [Window(0, 1)]).m == m
            assert certify_per_window(s, [Window(0, 1)]).m == m

    def test_tolerance_after_windows_is_keyword_only(self, cluster_cfg):
        with pytest.raises(TypeError):
            certify_cluster_consensus(cluster_cfg.schedule, cluster_cfg.windows(), 1e-3)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def assert_same_report(got: CertificationReport, want: CertificationReport) -> None:
    """Every field bit-equal, each integral network down to its edge classes."""
    for f in fields(CertificationReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "integral_networks":
            assert len(a) == len(b)
            for na, nb in zip(a, b):
                assert na.window == nb.window
                assert _bits(na.duration) == _bits(nb.duration)
                assert _bits(na.laplacian) == _bits(nb.laplacian)
                assert _bits(na.graph.keys) == _bits(nb.graph.keys)
                assert list(na.graph.classes) == list(nb.graph.classes)
                assert _bits(na.graph.weights) == _bits(nb.graph.weights)
        elif f.name == "basis":
            assert a.tol_used == b.tol_used
            assert a.vectors.shape == b.vectors.shape and _bits(a.vectors) == _bits(b.vectors)
        elif f.name in ("windows", "balance"):
            assert a == b
        else:
            assert type(a) is type(b) and _bits(a) == _bits(b), f.name


def assert_shares_only_equal_windows(s: SwitchingSchedule, report: CertificationReport) -> None:
    """Two windows share one Laplacian exactly when their segment content is equal."""
    def content(w):
        return tuple(a[w.start : w.end].tobytes() for a in (s.graph, s.dwell, s.scale))

    nets = report.integral_networks
    for a in nets:
        for b in nets:
            same = content(a.window) == content(b.window)
            assert (a.laplacian is b.laplacian) == same
            assert (a.graph is b.graph) == same


def _block_schedule(rng):
    """Explicit schedule of blocks that repeat a base block or change one dwell or scale.

    A changed dwell or scale moves by a visible amount or by one ulp; some
    blocks have a different length.  Returns the schedule and one window per block.
    """
    n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    catalog = rand_catalog(rng, n, d, int(rng.integers(1, 4)))
    ids = sorted(catalog)

    def block(length):
        return [
            Segment(
                ids[int(rng.integers(0, len(ids)))],
                float(rng.choice((0.5, 1.0, 1.5))),
                1.0 if rng.uniform() < 0.4 else float(rng.uniform(0.2, 3.0)),
            )
            for _ in range(length)
        ]

    base = block(int(rng.integers(1, 4)))
    blocks = []
    for _ in range(int(rng.integers(2, 7))):
        u, k = rng.uniform(), int(rng.integers(0, len(base)))
        blk = list(base)
        if u < 0.2:
            dw = blk[k].dwell
            blk[k] = replace(blk[k], dwell=dw + 0.25 if rng.uniform() < 0.5 else np.nextafter(dw, 2.0))
        elif u < 0.4:
            sc = blk[k].scale
            blk[k] = replace(blk[k], scale=2.0 * sc if rng.uniform() < 0.5 else np.nextafter(sc, 4.0))
        elif u < 0.5:
            blk = block(int(rng.integers(1, 5)))
        blocks.append(blk)
    s = SwitchingSchedule.explicit(catalog, [seg for blk in blocks for seg in blk], alpha=0.5)
    windows, start = [], 0
    for blk in blocks:
        windows.append(Window(start, start + len(blk)))
        start += len(blk)
    return s, windows


class _CountingArray(np.ndarray):
    """An array that counts the ``tobytes`` calls made on it and on its slices."""

    calls = 0

    def tobytes(self, *args, **kwargs):
        type(self).calls += 1
        return super().tobytes(*args, **kwargs)


def _count_keys(s: SwitchingSchedule, windows) -> int:
    """Certify with counting segment arrays; returns how many slices were turned into bytes."""
    arrays = (s.graph, s.dwell, s.scale)
    _CountingArray.calls = 0
    s.graph, s.dwell, s.scale = (a.view(_CountingArray) for a in arrays)
    try:
        report = certify_cluster_consensus(s, windows)
    finally:
        s.graph, s.dwell, s.scale = arrays
    assert_same_report(report, certify_per_window(s, windows))
    return _CountingArray.calls


class TestMemoisedCertificationAgainstOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_periodic_schedules_match_per_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        catalog = rand_catalog(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 3)
        ids = sorted(catalog)
        pattern = [
            Segment(ids[int(rng.integers(0, 3))], float(rng.choice((0.5, 1.0, 1.5))),
                    float(rng.choice((1.0, 0.3, 2.5))))
            for _ in range(int(rng.integers(1, 4)))
        ]
        s = SwitchingSchedule.periodic(catalog, pattern, int(rng.integers(1, 6)), alpha=0.5)
        plen = len(pattern)
        per_period = [Window(k, k + plen) for k in range(0, s.num_segments, plen)]
        for windows in (per_period, rand_windows(rng, s.num_segments)):
            report = certify_cluster_consensus(s, windows)
            assert_same_report(report, certify_per_window(s, windows))
            assert_shares_only_equal_windows(s, report)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_near_repeated_windows_match_per_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s, windows = _block_schedule(rng)
        report = certify_cluster_consensus(s, windows)
        assert_same_report(report, certify_per_window(s, windows))
        assert_shares_only_equal_windows(s, report)

    def test_window_past_end_raises_though_prefix_repeats(self):
        g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 1.0)] * 5, alpha=1.0)
        # [4, 6) slices to one segment equal to [0, 1); both lengths occur twice
        windows = [Window(0, 1), Window(1, 2), Window(2, 4), Window(4, 6)]
        for certify in (certify_cluster_consensus, certify_per_window):
            with pytest.raises(EmptyWindowError, match=r"window \[4, 6\) exceeds"):
                certify(s, windows)

    def test_sign_conflict_in_repeated_window_names_first_span(self):
        cat = {
            "pos": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])}),
            "neg": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[-1.0]])}),
        }
        s = SwitchingSchedule.periodic(cat, [Segment("pos", 1.0), Segment("neg", 1.0)], 3, alpha=1.0)
        windows = [Window(0, 1), Window(1, 3), Window(3, 5), Window(5, 6)]
        messages = []
        for certify in (certify_cluster_consensus, certify_per_window):
            with pytest.raises(SignInconsistentEdgeError) as info:
                certify(s, windows)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "window [1, 3)" in messages[0]

    def test_unique_lengths_build_no_key(self, cluster_cfg):
        s = cluster_cfg.schedule
        N = s.num_segments
        assert _count_keys(s, [Window(0, N)]) == 0
        assert _count_keys(s, [Window(0, 1), Window(1, 3), Window(3, N)]) == 0
        # control: a shared length keys each of its windows once per array
        assert _count_keys(s, [Window(0, 3), Window(3, 6), Window(6, N)]) == 6


class TestBipartiteSteadyState:
    def test_variant_closed_form_matches_projection(self, bipartite_cfg):
        from mwconsensus.switching import integral_network, simultaneous_structural_balance

        s = bipartite_cfg.schedule
        net = integral_network(s, Window(0, 3))
        basis = null_space(net.laplacian)
        x0 = bipartite_cfg.initial_state
        b = simultaneous_structural_balance(list(s.catalog.values()))
        closed = bipartite_steady_state(b, np.eye(3), x0)
        assert np.abs(closed - projector(basis) @ x0).max() < 1e-12

    def test_signs_mirror_across_partition(self):
        from mwconsensus.graph import Bipartition

        b = Bipartition(sigma=(1, -1))
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        out = bipartite_steady_state(b, np.eye(2), x0)
        # gauged average: ([1,2] + (-1)*[3,4])/2 = [-1,-1]
        assert np.allclose(out, [-1.0, -1.0, 1.0, 1.0])

    def test_partial_psi_projects_per_agent(self):
        from mwconsensus.graph import Bipartition

        b = Bipartition(sigma=(1, 1))
        psi = np.array([[1.0], [0.0]])
        out = bipartite_steady_state(b, psi, np.array([2.0, 5.0, 4.0, 7.0]))
        assert np.allclose(out, [3.0, 0.0, 3.0, 0.0])

    def test_rejects_non_orthonormal_psi(self):
        from mwconsensus.graph import Bipartition

        b = Bipartition(sigma=(1, -1))
        with pytest.raises(NonOrthonormalPsiError):
            bipartite_steady_state(b, np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(4))

    def test_rejects_dimension_mismatch(self):
        from mwconsensus.graph import Bipartition

        b = Bipartition(sigma=(1, -1))
        with pytest.raises(DimensionMismatchError):
            bipartite_steady_state(b, np.eye(2), np.ones(6))


def _lam_max(laps):
    return [float(psd_eigh(L)[0][-1]) for L in laps]


class TestNecessaryCondition:
    def test_benchmark_limit_annihilated(self, cluster_cfg):
        laps = [laplacian(g) for g in cluster_cfg.graphs.values()]
        basis = null_intersection(laps)
        x_star = projector(basis) @ cluster_cfg.initial_state
        assert verify_necessary_condition(x_star, laps, _lam_max(laps))
        # scale invariance of the criterion
        assert verify_necessary_condition(1e6 * x_star, laps, _lam_max(laps))

    def test_generic_vector_fails(self, cluster_cfg, rng):
        laps = [laplacian(g) for g in cluster_cfg.graphs.values()]
        assert not verify_necessary_condition(rng.normal(size=21), laps, _lam_max(laps))


def assert_verdicts_match_oracle(report, x0, n, d, rng):
    """The verdict on certification's lam_max is the eigvalsh one, on both sides of the bound."""
    laps = [net.laplacian for net in report.integral_networks]
    norms = []
    for L in laps:
        lam = np.linalg.eigvalsh(L)
        norms.append(max(abs(lam[0]), abs(lam[-1])))
    assert np.allclose(report.lam_max, norms, rtol=1e-12, atol=1e-12)
    x_star = predict_steady_state(report.basis, x0, n, d).steady_state
    r = rng.normal(size=x_star.size)
    verdicts = set()
    for x in (x_star, r, *(x_star + 10.0**k * r for k in np.arange(-12.0, 0.25, 0.25))):
        got = verify_necessary_condition(x, laps, report.lam_max)
        assert got == verify_necessary_condition_oracle(x, laps)
        verdicts.add(got)
    assert verdicts == {True, False}


class TestNecessaryConditionWithCertifiedSpectra:
    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_bundled_verdicts_match_eigvalsh(self, name, rng):
        cfg = scenarios.load_builtin(name)
        report = certify_cluster_consensus(cfg.schedule, cfg.windows())
        assert_verdicts_match_oracle(report, cfg.initial_state, cfg.num_agents, cfg.dimension, rng)

    def test_random_certified_verdicts_match_eigvalsh(self, rng):
        # the 50 schedules of the acceptance test of contraction: the same seed, and one
        # normal vector of length n d drawn after each schedule, as that test draws it
        draws = np.random.default_rng(4004)
        for _ in range(50):
            s, _, report = rand_certified_schedule(draws)
            x0 = draws.normal(size=s.n * s.d)
            assert_verdicts_match_oracle(report, x0, s.n, s.d, rng)
