"""Tests for null-space prediction, classification, and certification."""

import importlib.util
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwconsensus.analysis import (
    CertificationReport,
    _window_null_space,
    ConsensusKind,
    certify_cluster_consensus,
    group_clusters,
    mu_m_plus_1,
    null_intersection,
    predict_steady_state,
    verify_necessary_condition,
)
from mwconsensus.config import ScenarioConfig, load_config
from mwconsensus.errors import (
    DimensionMismatchError,
    EmptyWindowError,
    NotPSDError,
    SignInconsistentEdgeError,
    WindowsNotContiguousError,
)
from mwconsensus.graph import (
    MatrixWeightedGraph,
    _edge_structure,
    has_positive_negative_spanning_tree,
    laplacian,
)
from mwconsensus.matalg import NullSpaceBasis, null_space
from mwconsensus.switching import (
    Segment,
    SwitchingSchedule,
    Window,
    flow_core,
    integral_network,
)

from mwconsensus import graph, scenarios, switching
from oracles import (
    NonOrthonormalPsiError,
    bipartite_steady_state,
    catalog_spectra,
    certify_per_window,
    definite_edge_span,
    mu_budget,
    mu_m_plus_1_svd,
    projector,
    state_transition,
    window_null_space_eigh,
    window_null_space_skeleton,
)
from oracles import verify_necessary_condition as verify_necessary_condition_oracle
from randgen import (
    rand_catalog,
    random_connected_pd_graph,
    rand_certified_schedule,
    rand_graph,
    rand_pair_signs,
    rand_sign_definite,
    rand_windows,
    stacked_null_projector,
)

ROOT = Path(__file__).resolve().parent.parent


def window_null_space(s: SwitchingSchedule, net) -> NullSpaceBasis:
    """The package's null space of a window's ``net``, with the catalog spectra and its own skeleton."""
    return _window_null_space(s, net, catalog_spectra(s), net.graph._skeleton)


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

    def test_threshold_scales_with_the_summed_largest_eigenvalues(self):
        # this path Laplacian has largest eigenvalue 3, so B = 3 + 6 for [L, 2 L]
        L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        basis = null_intersection([L, 2 * L], 1e-9)
        assert basis.dim == 1 and basis.tol_used == pytest.approx(9e-9, rel=1e-14)

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


def _graded_core(rng, N):
    """``K = E_R C ... C E_1`` with orthogonal ``C`` and graded ``E = exp(-dose lam)``, doses up to 1e3."""
    def graded():
        lam = rng.uniform(0.0, 1.0, N) ** 3 * 10.0 ** rng.uniform(-2, 1)
        lam[rng.uniform(size=N) < 0.2] = 0.0
        return np.exp(-10.0 ** rng.uniform(-1, 3) * lam)

    K = np.diag(graded())
    for _ in range(int(rng.integers(1, 4))):
        K = graded()[:, None] * (np.linalg.qr(rng.standard_normal((N, N)))[0] @ K)
    return K


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
        # each core of a stack has its own m, and needs one
        with pytest.raises(IndexError, match="mu_4 undefined"):
            mu_m_plus_1([phi, phi], [0, 3])
        with pytest.raises(ValueError):
            mu_m_plus_1([phi, phi], [0])

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_trimmed_core_within_its_budget_of_the_full_svd(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 41))
        K = _graded_core(rng, N)
        u = np.finfo(float).eps
        for m in range(N):
            mu, mu_svd = mu_m_plus_1(K, m), mu_m_plus_1_svd(K, m)
            assert mu <= mu_svd + 2 * N * u
            assert mu_svd - mu <= mu_budget(K, m) + 2 * N * u

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_stacked_cores_within_their_budgets_of_the_full_svd(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 41))
        cores = [_graded_core(rng, N) for _ in range(int(rng.integers(1, 4)))]
        ms = [int(rng.integers(0, N)) for _ in cores]
        u = np.finfo(float).eps
        got = mu_m_plus_1(np.stack(cores), ms)
        assert got == mu_m_plus_1(cores, ms) and len(got) == len(cores)
        for K, m, mu in zip(cores, ms, got):
            mu_svd = mu_m_plus_1_svd(K, m)
            assert mu <= mu_svd + 2 * N * u
            assert mu_svd - mu <= mu_budget(K, m) + 2 * N * u

    def test_cores_only_an_iterable_held_are_let_go_before_the_svd(self, monkeypatch):
        refs = []

        def cores():
            for seed in (1, 2):
                K = _graded_core(np.random.default_rng(seed), 20)
                refs.append(weakref.ref(K))
                yield K

        alive = []

        def spy(a, *args, _svd=np.linalg.svd, **kwargs):
            if np.ndim(a) == 3:
                alive.append([ref() is not None for ref in refs])
            return _svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        mu_m_plus_1(cores(), [1, 2])
        assert alive == [[False, False]]

    def test_a_stack_of_one_is_the_single_core(self):
        K = _graded_core(np.random.default_rng(11), 30)
        for m in range(30):
            assert mu_m_plus_1([K], [m]) == [mu_m_plus_1(K, m)]

    def test_diagonal_core_is_exact(self):
        # underflowing and exactly zero entries, whose squares tie at 0.0, and signs
        v = np.array([0.5, -1e-300, 0.0, 1.0, 2.0**-1074, 1e-160, -0.25, 0.0, 1e-39, -0.0, 3e-20])
        for perm in (np.arange(v.size), np.random.default_rng(3).permutation(v.size)):
            K = np.diag(v[perm])
            for m in range(v.size):
                exact = float(np.sort(np.abs(v))[::-1][m] ** 2)
                assert mu_m_plus_1(K, m) == mu_m_plus_1_svd(K, m) == exact


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


def mu_budgets(s: SwitchingSchedule, windows) -> list[float]:
    """How far two trims of each window's core may put its ``mu`` apart: 0 for the whole space.

    Each trim lies within ``mu_budget`` below the full SVD's ``mu``, and each
    SVD within ``2 N eps`` of it.
    """
    out = []
    for w in windows:
        K = flow_core(s, w, catalog_spectra(s))
        N, dim = K.shape[0], window_null_space(s, integral_network(s, w)).dim
        out.append(0.0 if dim == N else mu_budget(K, dim) + 4 * N * np.finfo(float).eps)
    return out


def assert_same_report(got: CertificationReport, want: CertificationReport, budgets) -> None:
    """Every field bit-equal, each integral network down to its edge classes, except ``mu``.

    Each ``mu`` need only lie within its window's one of ``budgets`` of
    ``want``'s, and ``q_estimate`` is the largest of ``got``'s: the package
    trims a pair of windows' cores alike, and the per-window oracle trims
    each core alone.
    """
    for f in fields(CertificationReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "mu":
            assert len(a) == len(b) == len(budgets)
            assert all(abs(x - y) <= beta for x, y, beta in zip(a, b, budgets)), (a, b, budgets)
        elif f.name == "q_estimate":
            assert a == max(got.mu) and abs(a - b) <= max(budgets)
        elif f.name == "integral_networks":
            assert len(a) == len(b)
            for na, nb in zip(a, b):
                assert _bits(na.duration) == _bits(nb.duration)
                assert _bits(na.doses) == _bits(nb.doses)
                assert _bits(na.graph.keys) == _bits(nb.graph.keys)
                assert list(na.graph.classes) == list(nb.graph.classes)
                assert _bits(na.graph.weights) == _bits(nb.graph.weights)
        elif f.name == "basis":
            assert a.tol_used == b.tol_used
            assert a.vectors.shape == b.vectors.shape and _bits(a.vectors) == _bits(b.vectors)
        elif f.name in ("balance", "edge_list"):
            assert a == b
        elif f.name == "edge_structures":
            assert len(a) == len(b)
            for ga, gb in zip(a, b):
                assert _bits(ga.keys) == _bits(gb.keys) and list(ga.classes) == list(gb.classes)
                assert _bits(ga.weights) == _bits(gb.weights)
        elif f.name == "spectra":  # in order of first run
            assert list(a) == list(b)
            assert all(_bits(x) == _bits(y) for k in a for x, y in zip(a[k], b[k]))
        else:
            assert type(a) is type(b) and _bits(a) == _bits(b), f.name


def assert_shares_only_equal_windows(
    s: SwitchingSchedule, windows, report: CertificationReport
) -> None:
    """Two windows share one integral network object exactly when their segment content is equal."""
    def content(w):
        return tuple(a[w.start : w.end].tobytes() for a in (s.graph, s.dwell, s.scale))

    pairs = list(zip(windows, report.integral_networks, strict=True))
    for wa, a in pairs:
        for wb, b in pairs:
            same = content(wa) == content(wb)
            assert (a is b) == same
            assert (a.doses is b.doses) == same and (a.graph is b.graph) == same


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
            assert_same_report(report, certify_per_window(s, windows), mu_budgets(s, windows))
            assert_shares_only_equal_windows(s, windows, report)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_near_repeated_windows_match_per_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s, windows = _block_schedule(rng)
        report = certify_cluster_consensus(s, windows)
        assert_same_report(report, certify_per_window(s, windows), mu_budgets(s, windows))
        assert_shares_only_equal_windows(s, windows, report)

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

    def test_one_ulp_of_a_middle_dwell_makes_a_window_distinct(self):
        cat = {
            "a": MatrixWeightedGraph(3, 2, {(0, 1): np.diag([1.0, 2.0]), (1, 2): np.eye(2)}),
            "b": MatrixWeightedGraph(3, 2, {(0, 2): np.array([[2.0, 1.0], [1.0, 2.0]])}),
        }
        up = np.nextafter(1.0, 2.0)
        segments = [Segment(g, dwell, scale)
                    for mid in (1.0, up, 1.0)
                    for g, dwell, scale in (("a", 1.0, 0.5), ("b", mid, 1.0), ("a", 1.5, 2.0))]
        s = SwitchingSchedule.explicit(cat, segments, alpha=1.0)
        windows = [Window(0, 3), Window(3, 6), Window(6, 9)]
        report = certify_cluster_consensus(s, windows)
        assert report.integral_networks[2] is report.integral_networks[0]
        assert report.integral_networks[1] is not report.integral_networks[0]
        assert_shares_only_equal_windows(s, windows, report)
        assert_same_report(report, certify_per_window(s, windows), mu_budgets(s, windows))

    def test_sign_conflict_raises_before_a_later_window_past_the_end(self):
        cat = {
            "pos": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])}),
            "neg": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[-1.0]])}),
        }
        s = SwitchingSchedule.periodic(cat, [Segment("pos", 1.0), Segment("neg", 1.0)], 2, alpha=1.0)
        # [2, 6) slices to [2, 4), whose content repeats [0, 2)
        windows = [Window(0, 2), Window(2, 6)]
        messages = []
        for certify in (certify_cluster_consensus, certify_per_window):
            with pytest.raises(SignInconsistentEdgeError) as info:
                certify(s, windows)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "window [0, 2)" in messages[0]


def svd_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of each array handed to ``np.linalg.svd`` from now on."""
    shapes = []

    def spy(a, *args, _svd=np.linalg.svd, **kwargs):
        shapes.append(np.shape(a))
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def _trim_schedule():
    """Four windows on a path of 6 agents, d = 1: unequal trims, unequal m and the whole space.

    ``G`` dosed hard then ``P`` lightly decays the core's columns to
    roundoff, and ``P`` then ``G`` its rows, so the first two windows trim
    along different axes.  ``Z`` has no edge, so its window's null space is
    the whole space.  ``P`` alone leaves four components, so ``m = 4``.
    """
    n = 6
    catalog = {
        "G": MatrixWeightedGraph(n, 1, {(i, i + 1): np.array([[1.0 + i]]) for i in range(n - 1)}),
        "P": MatrixWeightedGraph(n, 1, {(0, 1): np.array([[1.0]]), (2, 3): np.array([[2.0]])}),
        "Z": MatrixWeightedGraph(n, 1, {}),
    }
    segments = [Segment("G", 1.0, 50.0), Segment("P", 1.0, 0.1), Segment("P", 1.0, 0.1),
                Segment("G", 1.0, 50.0), Segment("Z", 1.0), Segment("P", 1.0)]
    windows = [Window(0, 2), Window(2, 4), Window(4, 5), Window(5, 6)]
    return SwitchingSchedule.explicit(catalog, segments, alpha=1.0), windows


class TestPairedMu:
    def test_pair_trims_alike_within_budget_of_the_full_svd(self, monkeypatch):
        s, windows = _trim_schedule()
        shapes = svd_shapes(monkeypatch)
        report = certify_cluster_consensus(s, windows)
        # windows 0 and 1 make a pair; window 2 needs no mu; window 3 is a stack of one
        stacks = [sh for sh in shapes if len(sh) == 3]
        assert [sh[0] for sh in stacks] == [2, 1]
        assert report.mu[2] == 0.0
        dims = [window_null_space(s, integral_network(s, w)).dim for w in windows]
        assert dims == [1, 1, 6, 4]
        u = np.finfo(float).eps
        for k in (0, 1, 3):
            K = flow_core(s, windows[k], catalog_spectra(s))
            shapes.clear()
            alone = mu_m_plus_1(K, dims[k])
            if k < 2:  # the pair keeps more of each core than either keeps alone
                assert shapes[-1][1:] != stacks[0][1:]
                assert all(a <= b for a, b in zip(shapes[-1][1:], stacks[0][1:]))
            else:
                assert report.mu[k] == alone
            mu_svd = mu_m_plus_1_svd(K, dims[k])
            assert report.mu[k] <= mu_svd + 2 * 6 * u
            assert mu_svd - report.mu[k] <= mu_budget(K, dims[k]) + 2 * 6 * u

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_one_core_svd_per_pair_and_one_bound_per_window(self, monkeypatch, count):
        s, _ = _trim_schedule()
        segments = [seg for k in range(count)
                    for seg in (Segment("G", 1.0, 1.0 + k), Segment("P", 1.0))]
        s = SwitchingSchedule.explicit(s.catalog, segments, alpha=1.0)
        windows = [Window(k, k + 2) for k in range(0, 2 * count, 2)]
        shapes = svd_shapes(monkeypatch)
        report = certify_cluster_consensus(s, windows)
        assert len(set(report.mu)) == count  # every window distinct, none the whole space
        assert sum(len(sh) == 3 for sh in shapes) == (count + 1) // 2
        assert sum(len(sh) == 2 for sh in shapes) == count

    def test_whole_space_window_is_left_out_inside_its_pair(self, monkeypatch):
        s, _ = _trim_schedule()
        # the pairs are ([Z], [G P]), ([P G], [Z Z]) and ([Z Z Z]): each window of Z alone has
        # the whole space as its null space, and each window's length is its own
        segments = [Segment(g, 1.0, 50.0 if g == "G" else 1.0) for g in "ZGPPGZZZZZ"]
        s = SwitchingSchedule.explicit(s.catalog, segments, alpha=1.0)
        windows = [Window(0, 1), Window(1, 3), Window(3, 5), Window(5, 7), Window(7, 10)]
        cores = []

        def spy(s, w, eigs, *, couplings):
            cores.append(w)
            return flow_core(s, w, eigs, couplings=couplings)

        monkeypatch.setattr("mwconsensus.analysis.flow_core", spy)
        shapes = svd_shapes(monkeypatch)
        report = certify_cluster_consensus(s, windows)
        assert cores == windows[1:3]
        assert [sh[0] for sh in shapes if len(sh) == 3] == [1, 1]
        assert [report.mu[k] for k in (0, 3, 4)] == [0.0, 0.0, 0.0]
        want = certify_per_window(s, windows)
        for k in (1, 2):
            dim = window_null_space(s, integral_network(s, windows[k])).dim
            assert dim < 6
            budget = mu_budget(flow_core(s, windows[k], catalog_spectra(s)), dim)
            assert abs(report.mu[k] - want.mu[k]) <= budget

    def test_one_scan_of_runs_per_window_that_needs_a_mu(self, monkeypatch):
        s, windows = _trim_schedule()
        scans = []
        runs = SwitchingSchedule.runs

        def spy(self, start, end):
            scans.append((start, end))
            return runs(self, start, end)

        monkeypatch.setattr(SwitchingSchedule, "runs", spy)
        report = certify_cluster_consensus(s, windows)
        assert report.mu[2] == 0.0  # window 2's null space is the whole space: no flow core
        # and one scan of the whole prefix, for the graphs to decompose
        assert sorted(scans) == [(0, 2), (0, 6), (2, 4), (5, 6)]

    def test_certification_leaves_no_coupling_on_the_schedule(self, monkeypatch):
        cfg = scenarios.load_builtin("cluster_switching")
        s = cfg.schedule
        held = dict(vars(s))
        pair_dicts = []

        def spy(s, w, eigs, *, couplings=None):
            pair_dicts.append(couplings)
            return flow_core(s, w, eigs, couplings=couplings)

        monkeypatch.setattr("mwconsensus.analysis.flow_core", spy)
        report = certify_cluster_consensus(s, cfg.windows())
        # the same attributes, holding the same objects; the spectra are the report's
        assert vars(s).keys() == held.keys()
        assert all(vars(s)[k] is v for k, v in held.items())
        assert list(report.spectra) == [0, 1, 2]
        assert not hasattr(SwitchingSchedule, "coupling_of")
        assert not hasattr(SwitchingSchedule, "laplacian_of")
        # the one distinct period window is a stack of one, with a dict of its own
        assert len(pair_dicts) == 1 and len(pair_dicts[0]) == 2


class TestBipartiteSteadyState:
    def test_variant_closed_form_matches_projection(self, bipartite_cfg):
        from mwconsensus.switching import integral_network, simultaneous_structural_balance

        s = bipartite_cfg.schedule
        net = integral_network(s, Window(0, 3))
        basis = null_space(laplacian(net.graph))
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


class TestNecessaryCondition:
    def test_benchmark_limit_annihilated(self, cluster_cfg):
        report = certify_cluster_consensus(cluster_cfg.schedule, cluster_cfg.windows())
        basis = null_intersection([laplacian(g) for g in cluster_cfg.graphs.values()])
        x_star = projector(basis) @ cluster_cfg.initial_state
        assert verify_necessary_condition(x_star, report)
        # scale invariance of the criterion
        assert verify_necessary_condition(1e6 * x_star, report)

    def test_generic_vector_fails(self, cluster_cfg, rng):
        report = certify_cluster_consensus(cluster_cfg.schedule, cluster_cfg.windows())
        assert not verify_necessary_condition(rng.normal(size=21), report)
        with pytest.raises(DimensionMismatchError):
            verify_necessary_condition(np.ones(20), report)

    def test_only_the_windowed_graphs_count(self):
        # x agrees across the edge of "a" and not across the edge of "b"
        one = np.array([[1.0]])
        cat = {"a": MatrixWeightedGraph(3, 1, {(0, 1): one}),
               "b": MatrixWeightedGraph(3, 1, {(1, 2): one})}
        s = SwitchingSchedule.explicit(cat, [Segment("a", 1.0), Segment("b", 1.0)], alpha=1.0)
        x = np.array([1.0, 1.0, 5.0])
        first = certify_cluster_consensus(s, [Window(0, 1)])
        assert list(first.spectra) == [0]
        assert verify_necessary_condition(x, first)
        assert not verify_necessary_condition(x, certify_cluster_consensus(s, [Window(0, 1),
                                                                           Window(1, 2)]))


def assert_verdicts_match_oracle(s, windows, report, x0, rng):
    """The verdict on the report's catalog spectra is the eigvalsh one, on both sides of the bound."""
    used = np.unique(s.graph[: windows[-1].end]).tolist()
    assert sorted(report.spectra) == used
    laps = [laplacian(s.catalog[s.ids[k]]) for k in used]
    norms = []
    for L in laps:
        lam = np.linalg.eigvalsh(L)
        norms.append(max(abs(lam[0]), abs(lam[-1])))
    assert np.allclose([report.spectra[k][0][-1] for k in used], norms, rtol=1e-12, atol=1e-12)
    x_star = predict_steady_state(report.basis, x0, s.n, s.d).steady_state
    r = rng.normal(size=x_star.size)
    verdicts = set()
    for x in (x_star, r, *(x_star + 10.0**k * r for k in np.arange(-12.0, 0.25, 0.25))):
        got = verify_necessary_condition(x, report)
        assert got == verify_necessary_condition_oracle(x, laps)
        verdicts.add(got)
    assert verdicts == {True, False}


class TestNecessaryConditionWithCertifiedSpectra:
    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_bundled_verdicts_match_eigvalsh(self, name, rng):
        cfg = scenarios.load_builtin(name)
        report = certify_cluster_consensus(cfg.schedule, cfg.windows())
        assert_verdicts_match_oracle(cfg.schedule, cfg.windows(), report, cfg.initial_state, rng)

    def test_random_certified_verdicts_match_eigvalsh(self, rng):
        # the 50 schedules of the acceptance test of contraction: the same seed, and one
        # normal vector of length n d drawn after each schedule, as that test draws it
        draws = np.random.default_rng(4004)
        for _ in range(50):
            s, windows, report = rand_certified_schedule(draws)
            x0 = draws.normal(size=s.n * s.d)
            assert_verdicts_match_oracle(s, windows, report, x0, rng)


def _projector_bound(L, basis):
    """Davis-Kahan bound on the distance of two numerical null spaces of ``L``.

    For the orthonormal ``X = basis.vectors`` with residual ``R = L X - X (X^T L X)``,
    the true invariant subspace of the ``dim`` smallest eigenvalues lies within
    ``||R|| / delta`` of ``span(X)``, where ``delta = lam_(dim+1) - tol_used``
    separates it from the rest.  A backward-stable ``eigh`` lands within
    ``N eps ||L|| / delta`` of it, and forming either projector costs ``N eps``;
    each term has a factor 10 of slack.
    """
    X = basis.vectors
    LX = L @ X
    lam = np.linalg.eigvalsh(L)
    roundoff = lam.size * np.finfo(float).eps
    if basis.dim == lam.size:
        return 10 * roundoff
    residual = np.linalg.norm(LX - X @ (X.T @ LX), 2) if basis.dim else 0.0
    return 10 * (roundoff + (residual + roundoff * lam[-1]) / (lam[basis.dim] - basis.tol_used))


def assert_windows_match_skeleton_oracle(s, rng):
    for w in rand_windows(rng, s.num_segments):
        net = integral_network(s, w)
        got, want = window_null_space(s, net), window_null_space_skeleton(s, net)
        assert got.dim == want.dim and got.tol_used == want.tol_used
        # the Davis-Kahan bound of the problem compressed to the definite-edge span N, plus
        # the roundoff of N itself, an SVD of order n d
        N = definite_edge_span(net.graph)
        K = N.T @ laplacian(net.graph) @ N
        inside = NullSpaceBasis(vectors=N.T @ got.vectors, tol_used=got.tol_used)
        dist = np.linalg.norm(projector(got) - projector(want), 2)
        assert dist <= _projector_bound(0.5 * (K + K.T), inside) + 10 * len(N) * np.finfo(float).eps


def workload_config(name: str, seed: int, tmp_path, **shape) -> ScenarioConfig:
    """The benchmark workload ``name`` of ``perfbench/gen.py`` at ``seed``, loaded.

    ``shape`` passes the builder's size arguments.
    """
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass asks
    spec.loader.exec_module(gen)
    path = tmp_path / f"{name}.json"
    gen.BUILDERS[name](seed, **shape).write(path)
    return load_config(path)


def signed_components_calls(monkeypatch) -> list[int]:
    """A one-item list that counts the calls to ``graph.signed_components``, from any module."""
    calls = [0]

    def counted(*args, _signed=graph.signed_components):
        calls[0] += 1
        return _signed(*args)

    for module in (graph, switching):
        monkeypatch.setattr(module, "signed_components", counted)
    return calls


def alternating_schedule() -> tuple[SwitchingSchedule, list[Window]]:
    """Two random connected PD graphs alternating with unequal dwells, in 4 windows of 2 segments.

    Every window doses both graphs, for a different time each, so the windows
    are distinct and their integral graphs share one edge structure: the union
    of the two graphs' edges, all PD.
    """
    catalog = {f"G{k}": random_connected_pd_graph(7, 2, seed=k, extra_edges=3) for k in (1, 2)}
    dwells = [1.0, 2.0, 1.5, 1.0, 3.0, 2.5, 1.25, 2.25]
    segments = [Segment(f"G{k % 2 + 1}", w) for k, w in enumerate(dwells)]
    return (SwitchingSchedule.explicit(catalog, segments, alpha=1.0),
            [Window(k, k + 2) for k in range(0, len(dwells), 2)])


def assert_grouped_by_edge_structure(report: CertificationReport) -> None:
    """Windows share an ``edge_list`` position exactly when their integral graphs'
    ``_edge_structure`` is equal, and ``edge_structures`` holds the first window's graph
    of each structure, in order of first use."""
    nets = report.integral_networks
    structures = [_edge_structure(net.graph) for net in nets]
    first_use = list(dict.fromkeys(structures))
    assert report.edge_list == tuple(first_use.index(key) for key in structures)
    assert len(report.edge_structures) == len(first_use)
    for g, key in zip(report.edge_structures, first_use):
        assert g is nets[structures.index(key)].graph


class TestEdgeStructureGrouping:
    @pytest.mark.parametrize("windows_of", [None, 2, 4])
    def test_cluster_switching_windows_grouped_by_edge_structure(self, cluster_cfg, monkeypatch,
                                                                 windows_of):
        s = cluster_cfg.schedule
        windows = cluster_cfg.windows() if windows_of is None else [
            Window(k, k + windows_of) for k in range(0, s.num_segments, windows_of)]
        calls = signed_components_calls(monkeypatch)
        report = certify_cluster_consensus(s, windows, tol=cluster_cfg.tolerances)
        assert_grouped_by_edge_structure(report)
        # one skeleton per edge structure, and the union the balance test colours
        assert calls[0] == len(report.edge_structures) + 1

    def test_windows_dosing_one_structure_for_different_times_share_one_skeleton(self,
                                                                                 monkeypatch):
        s, windows = alternating_schedule()
        calls = signed_components_calls(monkeypatch)
        report = certify_cluster_consensus(s, windows)
        assert_grouped_by_edge_structure(report)
        assert len({net.duration for net in report.integral_networks}) == 4
        assert report.edge_list == (0, 0, 0, 0) and calls[0] == 2
        assert report.pn_spanning_tree and report.balance is not None

    @pytest.mark.parametrize("name", ["periodic_windows", "long_schedule", "large_network"])
    def test_workloads_make_two_traversals(self, name, tmp_path, monkeypatch):
        # large_network at half its agents keeps its 4 distinct windows of one structure
        cfg = workload_config(name, 1, tmp_path, **({"n": 100} if name == "large_network" else {}))
        calls = signed_components_calls(monkeypatch)
        report = certify_cluster_consensus(cfg.schedule, cfg.windows(), tol=cfg.tolerances)
        assert_grouped_by_edge_structure(report)
        assert len(report.edge_structures) == 1 and calls[0] == 2


class TestSpectralRouteAgainstDenseLaplacians:
    @pytest.mark.parametrize("source, name", [
        *(("bundled", name) for name in scenarios.BUILTIN_NAMES),
        *(("workload", name) for name in ("periodic_windows", "long_schedule", "large_network")),
    ])
    def test_window_null_spaces_and_necessary_verdicts(self, source, name, tmp_path, rng):
        # the window null spaces from the catalog spectra against a full eigh of the dense
        # dosed sum, and the verdicts on ||lam * (V^T x)|| against ||L x|| of dense Laplacians;
        # large_network at half its agents, as its oracle takes 50 eigvalsh calls a graph
        shape = {"n": 100} if name == "large_network" else {}
        cfg = scenarios.load_builtin(name) if source == "bundled" else workload_config(
            name, 1, tmp_path, **shape)
        s, windows = cfg.schedule, cfg.windows()
        report = certify_cluster_consensus(s, windows, tol=cfg.tolerances)
        for net in {id(net): net for net in report.integral_networks}.values():
            got, want = window_null_space(s, net), window_null_space_eigh(s, net)
            assert got.dim == want.dim and got.tol_used == want.tol_used
            dist = np.linalg.norm(projector(got) - projector(want), 2)
            assert dist <= _projector_bound(laplacian(net.graph), got)
        assert_verdicts_match_oracle(s, windows, report, cfg.initial_state, rng)


class TestWindowNullSpaceAgainstEigh:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=80)
    def test_restricted_solve_matches_full_eigh_oracle(self, seed):
        # a scale of 1e-6 to 1e-11 doses a graph briefly: its edges' averages stay definite
        # against their own scale, yet their directions fall below the window's threshold,
        # so the eigh of the dosed sum counted them as null beside pn_spanning_tree; the
        # skeleton oracle holds a definite edge's two agents together, as the report reads it
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        # sparse graphs are often disconnected
        signs = rand_pair_signs(rng, n)
        catalog = {
            f"g{k}": rand_graph(rng, n, d, pair_signs=signs, edge_prob=float(rng.uniform(0.1, 0.8)))
            for k in range(int(rng.integers(1, 4)))
        }
        ids = sorted(catalog)
        segs = []
        for _ in range(int(rng.integers(1, 8))):
            low = rng.uniform() < 0.3
            scale = 10.0 ** -rng.uniform(6, 11) if low else float(rng.uniform(0.2, 3.0))
            segs.append(Segment(ids[int(rng.integers(len(ids)))],
                                float(rng.choice((0.5, 1.0, 1.5))), scale))
        assert_windows_match_skeleton_oracle(SwitchingSchedule.explicit(catalog, segs, alpha=0.5),
                                             rng)

    @given(st.integers(0, 2**32 - 1))
    @example(seed=517872646)  # a sum rebuilt as (V * lam) @ V.T was 1.8e-12 asymmetric here
    @settings(deadline=None, max_examples=80)
    def test_near_aligned_rank_one_edges_of_very_different_weight(self, seed):
        # near-aligned rank-one edges sum to an average that classifies as definite against
        # its own scale while its smallest eigenvalue is below the window's threshold, set by
        # heavier edges: the eigh of the dosed sum counted that direction as null, so m
        # exceeded d beside pn_spanning_tree.  Edges that stay semidefinite leave c = n
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        catalog = {}
        for k in range(int(rng.integers(2, 4))):
            edges = {}
            for i in range(n - 1):
                th = float(rng.choice([0.0, 10 ** -rng.uniform(2, 7)]))
                v = np.array([-np.sin(th), np.cos(th)])
                edges[(i, i + 1)] = 10 ** rng.uniform(-1, 4) * np.outer(v, v)
            catalog[f"g{k}"] = MatrixWeightedGraph(n, 2, edges)
        segs = [Segment(f"g{int(rng.integers(len(catalog)))}", float(rng.choice((0.5, 1.0))),
                        float(rng.uniform(0.2, 3.0))) for _ in range(int(rng.integers(1, 8)))]
        assert_windows_match_skeleton_oracle(SwitchingSchedule.explicit(catalog, segs, alpha=0.5),
                                             rng)

    @pytest.mark.parametrize("order", [("g", "h"), ("h", "g")])
    def test_a_near_null_vector_outside_the_first_span_is_kept(self, order):
        # the antisymmetric e1 vector spans null(L_g) but has quotient 1e-5 > thr = 1e-6 on
        # L_w; the window's third null vector, along (cos 1e-4, sin 1e-4), has 1e-8
        th = 1e-4
        v = np.array([-np.sin(th), np.cos(th)])
        graphs = {"g": MatrixWeightedGraph(2, 2, {(0, 1): np.diag([0.0, 1.0])}),
                  "h": MatrixWeightedGraph(2, 2, {(0, 1): 1000 * np.outer(v, v)})}
        s = SwitchingSchedule.explicit({k: graphs[k] for k in order},
                                       [Segment("g", 1.0), Segment("h", 1.0)], alpha=1.0)
        net = integral_network(s, Window(0, 2))
        got, want = window_null_space(s, net), window_null_space_eigh(s, net)
        assert got.dim == want.dim == 3
        assert np.linalg.norm(projector(got) - projector(want), 2) <= 1e-12  # eps 1e3 / gap 1

    def test_low_dose_graph_alone_in_a_window(self):
        # a window of one briefly dosed path graph: every eigenvalue of its average is below
        # the threshold, so the eigenvalues alone gave m = 3, yet both averaged edges, at
        # 1e-10 > EIG_FLOOR, classify as positive definite and span the agents: with
        # pn_spanning_tree the agents agree, m = d = 1
        one = np.array([[1.0]])
        g = MatrixWeightedGraph(3, 1, {(0, 1): one, (1, 2): one})
        s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 1.0, 1e-10)], alpha=1.0)
        net = integral_network(s, Window(0, 1))
        assert has_positive_negative_spanning_tree(net.graph)
        assert window_null_space(s, net).dim == window_null_space_skeleton(s, net).dim == 1
        assert window_null_space_eigh(s, net).dim == 3

    @pytest.mark.parametrize("brief_edge", [(2, 3), (1, 2)], ids=["apart", "adjacent"])
    def test_edge_the_integral_graph_drops_stays_in_the_sum(self, brief_edge):
        # "brief" doses its edge to an average of 5e-13 <= EIG_FLOOR, so the integral graph
        # drops it and the window null space, taken from that graph, leaves it out; the eigh
        # of the exact dosed sum, edge included, agrees within 1e-12, apart from "wide"'s
        # edge or adjacent to it, as the edge is far below the threshold
        one = np.array([[1.0]])
        cat = {"wide": MatrixWeightedGraph(4, 1, {(0, 1): one}),
               "brief": MatrixWeightedGraph(4, 1, {brief_edge: one})}
        s = SwitchingSchedule.explicit(
            cat, [Segment("wide", 1.0), Segment("brief", 1.0, 1e-12)], alpha=1.0
        )
        net = integral_network(s, Window(0, 2))
        assert net.graph.keys.tolist() == [[0, 1]]
        got, want = window_null_space(s, net), window_null_space_eigh(s, net)
        assert got.dim == want.dim == 3 and got.tol_used == want.tol_used
        assert np.linalg.norm(projector(got) - projector(want), 2) <= 1e-12

    def test_bound_past_the_float_range_is_clamped(self):
        # each graph's lam_max is 0.9 of the float maximum, at different nodes, and each is
        # dosed at 0.95: B = 1.71 times the maximum, while each averaged block stays below half
        big = np.array([[0.45 * np.finfo(float).max]])
        cat = {"g": MatrixWeightedGraph(4, 1, {(0, 1): big}),
               "h": MatrixWeightedGraph(4, 1, {(2, 3): big})}
        s = SwitchingSchedule.explicit(
            cat, [Segment("g", 1.0, 1.9), Segment("h", 1.0, 1.9)], alpha=1.0
        )
        net = integral_network(s, Window(0, 2))
        got, want = window_null_space(s, net), window_null_space_eigh(s, net)
        assert got.tol_used == want.tol_used == 1e-9 * np.finfo(float).max
        assert got.dim == want.dim == 2
        assert np.linalg.norm(projector(got) - projector(want), 2) <= 1e-12

    def test_window_whose_doses_underflow_is_all_null(self):
        g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 1e-30, 1e-300)], alpha=1e-30)
        net = integral_network(s, Window(0, 1))
        assert net.doses.tolist() == [0.0]
        assert window_null_space(s, net).dim == 2
        report = certify_cluster_consensus(s, [Window(0, 1)])
        assert report.m == 2 and report.mu == (0.0,) and report.certified

    def test_brief_graph_whose_bound_cuts_its_spectrum_offers_no_span(self):
        # "brief" doses the path 0-1-2-3 at 2e-9 beside "wide"'s edge (0, 1): the window's
        # second eigenvalue, 7e-10, is below thr = 1e-9, so the eigenvalues alone gave m = 2,
        # yet the averaged edges (1, 2) and (2, 3), at 1e-9, classify as positive definite
        # and with (0, 1) span the agents: pn_spanning_tree holds, and m = d = 1
        one = np.array([[1.0]])
        cat = {"wide": MatrixWeightedGraph(4, 1, {(0, 1): one}),
               "brief": MatrixWeightedGraph(4, 1, {(0, 1): one, (1, 2): one, (2, 3): one})}
        s = SwitchingSchedule.explicit(
            cat, [Segment("wide", 1.0), Segment("brief", 1.0, 2e-9)], alpha=1.0
        )
        net = integral_network(s, Window(0, 2))
        assert has_positive_negative_spanning_tree(net.graph)
        got, want = window_null_space(s, net), window_null_space_skeleton(s, net)
        assert got.dim == want.dim == 1 and window_null_space_eigh(s, net).dim == 2
        assert np.linalg.norm(projector(got) - projector(want), 2) <= 1e-12

    def test_every_component_with_an_odd_negative_cycle_gives_m_zero(self):
        # a negative-definite triangle forces x_0 = -x_1 = x_2 = -x_0, so 0; the triangle on
        # nodes 3 to 5 is a second component, forced to 0 alike, and the quotient has order 0
        nd = -np.diag([1.0, 2.0])
        g = MatrixWeightedGraph(6, 2, {(0, 1): nd, (1, 2): nd, (0, 2): nd,
                                       (3, 4): nd, (4, 5): nd, (3, 5): nd})
        s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 1.0)], alpha=1.0)
        net = integral_network(s, Window(0, 1))
        got = window_null_space(s, net)
        assert got.vectors.shape == (12, 0)
        assert window_null_space_skeleton(s, net).dim == window_null_space_eigh(s, net).dim == 0
        report = certify_cluster_consensus(s, [Window(0, 1)])
        assert report.m == 0 and report.balance is None and not report.pn_spanning_tree
        pred = predict_steady_state(report.basis, np.ones(12), 6, 2)
        assert pred.kind is ConsensusKind.ASYMPTOTIC_STABILITY

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_pn_spanning_tree_gives_m_equal_d(self, seed):
        # signs from one node signature balance every graph, so a definite-edge spanning tree
        # leaves the agents one mirrored block: m = d, however weakly a tree edge is dosed
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        sigma = rng.choice((-1, 1), size=n)
        catalog = {}
        for k in range(int(rng.integers(1, 4))):
            order = rng.permutation(n).tolist()
            pairs = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])
                     if rng.uniform() < 0.8}
            pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.2}
            weights = {(i, j): rand_sign_definite(rng, d, int(sigma[i] * sigma[j]),
                                                  singular=rng.uniform() < 0.3)
                       for i, j in sorted(pairs)}
            catalog[f"g{k}"] = MatrixWeightedGraph(
                n, d, weights or {(0, 1): sigma[0] * sigma[1] * np.eye(d)})
        ids = sorted(catalog)
        segs = [Segment(ids[int(rng.integers(len(ids)))], float(rng.choice((0.5, 1.0))),
                        10.0 ** -rng.uniform(6, 11) if rng.uniform() < 0.3
                        else float(rng.uniform(0.2, 3.0)))
                for _ in range(int(rng.integers(1, 8)))]
        s = SwitchingSchedule.explicit(catalog, segs, alpha=0.5)
        windows = rand_windows(rng, s.num_segments)
        for w in windows:
            net = integral_network(s, w)
            if has_positive_negative_spanning_tree(net.graph):
                assert window_null_space(s, net).dim == d
        report = certify_cluster_consensus(s, windows)
        assert report.balance is not None
        if report.pn_spanning_tree:
            assert report.m == d
