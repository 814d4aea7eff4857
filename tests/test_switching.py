"""Tests for schedules, integral networks, flow maps, and simultaneous balance."""

import numpy as np
import pytest

from mwconsensus import scenarios
from mwconsensus.errors import (
    DimensionMismatchError,
    DwellTooShortError,
    EmptyScheduleError,
    EmptyWindowError,
    ScheduleError,
    SignInconsistentEdgeError,
)
from mwconsensus.graph import MatrixWeightedGraph, laplacian
from mwconsensus.analysis import mu_m_plus_1
from mwconsensus.matalg import null_space
from mwconsensus.switching import (
    Segment,
    SwitchingSchedule,
    Window,
    flow_core,
    integral_network,
    simultaneous_structural_balance,
    spectra,
    validate_schedule,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    catalog_spectra,
    integral_network_per_segment,
    mu_budget,
    mu_m_plus_1_svd,
    projector,
    state_transition,
    state_transition_per_segment,
    weight_of,
)
from randgen import (
    rand_catalog,
    rand_run_schedule,
    rand_windows,
    random_connected_pd_graph,
    stacked_null_projector,
)


def small_catalog():
    g1 = MatrixWeightedGraph(3, 1, {(0, 1): np.array([[1.0]])})
    g2 = MatrixWeightedGraph(3, 1, {(1, 2): np.array([[2.0]])})
    return {"a": g1, "b": g2}


class TestScheduleConstruction:
    def test_switch_times_and_duration(self):
        s = SwitchingSchedule.explicit(
            small_catalog(), [Segment("a", 2.0), Segment("b", 3.0)], alpha=1.0
        )
        assert np.array_equal(s.switch_times(), [0.0, 2.0, 5.0])
        assert s.total_duration == 5.0
        assert (s.n, s.d) == (3, 1)

    def test_periodic_expansion(self):
        s = SwitchingSchedule.periodic(
            small_catalog(), [Segment("a", 1.0), Segment("b", 1.0)], 3, alpha=1.0
        )
        assert s.num_segments == 6
        assert s.ids == ("a", "b")
        assert s.graph.tolist() == [0, 1] * 3

    def test_dwell_below_alpha_rejected(self):
        with pytest.raises(DwellTooShortError) as exc:
            SwitchingSchedule.explicit(
                small_catalog(), [Segment("a", 1.0), Segment("b", 0.5)], alpha=1.0
            )
        assert exc.value.segment == 1

    def test_empty_schedule_and_catalog_rejected(self):
        with pytest.raises(EmptyScheduleError):
            SwitchingSchedule.explicit(small_catalog(), [], alpha=1.0)
        with pytest.raises(EmptyScheduleError):
            SwitchingSchedule.explicit({}, [Segment("a", 1.0)], alpha=1.0)

    def test_unknown_graph_rejected(self):
        with pytest.raises(ScheduleError, match="segment 0 references no graph"):
            SwitchingSchedule.explicit(small_catalog(), [Segment("zz", 1.0)], alpha=1.0)

    def test_mixed_catalog_dims_rejected(self):
        cat = small_catalog()
        cat["odd"] = MatrixWeightedGraph(4, 1, {(0, 1): np.array([[1.0]])})
        with pytest.raises(DimensionMismatchError):
            SwitchingSchedule.explicit(cat, [Segment("a", 1.0)], alpha=1.0)
        cat = small_catalog()
        cat["loose"] = MatrixWeightedGraph(3, 1, {(0, 1): np.array([[1.0]])}, eig_tol=1e-3)
        with pytest.raises(DimensionMismatchError, match="eig_tol"):
            SwitchingSchedule.explicit(cat, [Segment("a", 1.0)], alpha=1.0)

    def test_nonpositive_segment_params_rejected(self):
        cat = small_catalog()
        with pytest.raises(DwellTooShortError) as exc:
            SwitchingSchedule.explicit(cat, [Segment("a", 1.0), Segment("b", 0.0)], alpha=0.5)
        assert exc.value.segment == 1
        with pytest.raises(ScheduleError, match="segment 1 scale"):
            SwitchingSchedule.periodic(
                cat, [Segment("a", 1.0), Segment("b", 1.0, scale=0.0)], 2, alpha=0.5
            )
        with pytest.raises(ScheduleError, match="scale"):
            SwitchingSchedule(cat, [0], [1.0], [float("nan")], alpha=0.5)
        with pytest.raises(ScheduleError, match="references no graph"):
            SwitchingSchedule(cat, [2], [1.0], [1.0], alpha=0.5)
        with pytest.raises(DimensionMismatchError):
            SwitchingSchedule(cat, [0, 1], [1.0], [1.0], alpha=0.5)

    @pytest.mark.parametrize("count", [2**62, 10**20])
    def test_segment_count_past_array_range_rejected(self, count):
        # checked before numpy is asked for the arrays, which it would refuse with ValueError
        cat = small_catalog()
        with pytest.raises(ScheduleError, match="repetitions of the pattern are more than"):
            SwitchingSchedule.periodic(cat, [Segment("a", 1.0)], count, alpha=0.5)
        with pytest.raises(ScheduleError, match="param 'intervals' = .* are more than"):
            SwitchingSchedule.generated(cat, "linear_ramp", {"graph": "a", "intervals": count})

    def test_generated_inverse_square_and_ramp(self):
        cat = {"base": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})}
        s = SwitchingSchedule.generated(
            cat, "inverse_square_decay", {"graph": "base", "intervals": 4}
        )
        assert s.scale.tolist() == [1.0, 0.25, 1.0 / 9.0, 0.0625]
        assert s.scale.tolist() == [1.0 / k**2 for k in range(1, 5)]
        s2 = SwitchingSchedule.generated(cat, "linear_ramp", {"graph": "base", "intervals": 3})
        assert s2.scale.tolist() == [1.0, 2.0, 3.0]
        # a numpy integer is an integer
        params = {"graph": "base", "intervals": np.int64(2)}
        assert SwitchingSchedule.generated(cat, "linear_ramp", params).num_segments == 2
        with pytest.raises(ScheduleError, match="unknown schedule generator 'nope'"):
            SwitchingSchedule.generated(cat, "nope", {"graph": "base", "intervals": 3})

    @pytest.mark.parametrize(
        "params, error, param",
        [
            ({"graph": "base", "intervals": 2.9}, EmptyScheduleError, "intervals"),
            ({"graph": "base", "intervals": "7"}, EmptyScheduleError, "intervals"),
            ({"graph": "base", "intervals": True}, EmptyScheduleError, "intervals"),
            ({"graph": "base", "intervals": 0}, EmptyScheduleError, "intervals"),
            ({"graph": "other", "intervals": 3}, ScheduleError, "graph"),
        ],
        ids=["float", "string", "bool", "zero", "unknown-graph"],
    )
    def test_generator_params_not_coerced(self, params, error, param):
        cat = {"base": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})}
        for name in ("inverse_square_decay", "linear_ramp"):
            with pytest.raises(error, match=f"param '{param}'"):
                SwitchingSchedule.generated(cat, name, params)


class TestValidateSchedule:
    def test_periodic_benchmark_satisfies_hypotheses(self, cluster_cfg):
        report = validate_schedule(cluster_cfg.schedule)
        assert report.finite_recurring_catalog
        assert report.notes[-1] == "3 distinct dwell value(s)"

    def test_scaled_generator_violates_recurrence(self):
        cat = {"base": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})}
        s = SwitchingSchedule.generated(
            cat, "inverse_square_decay", {"graph": "base", "intervals": 5}
        )
        report = validate_schedule(s)
        assert not report.finite_recurring_catalog
        assert report.notes[-1] == "1 distinct dwell value(s)"

    def test_unused_catalog_graph_flagged(self):
        s = SwitchingSchedule.explicit(small_catalog(), [Segment("a", 1.0)], alpha=1.0)
        report = validate_schedule(s)
        assert not report.finite_recurring_catalog
        assert any("never scheduled" in note for note in report.notes)

    def test_unused_graphs_are_listed_by_id(self):
        g = small_catalog()["a"]
        catalog = {"c": g, "a": g, "d": g, "b": g}
        s = SwitchingSchedule.explicit(catalog, [Segment("d", 1.0), Segment("a", 1.0)], alpha=1.0)
        assert validate_schedule(s).notes[0] == "catalog graphs never scheduled: b, c"


class TestIntegralNetwork:
    def test_benchmark_period_edge_set(self, cluster_cfg):
        # union of the three networks over one period, 1-based pairs
        net = integral_network(cluster_cfg.schedule, Window(0, 3))
        got = {(i + 1, j + 1) for (i, j) in net.graph.keys.tolist()}
        assert got == {(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 7)}
        assert net.duration == 6.0

    def test_benchmark_period_average_weights(self, cluster_cfg):
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        g1, g3 = s.catalog["G1"], s.catalog["G3"]
        assert np.allclose(weight_of(net.graph, 0, 1), (2.0 / 6.0) * weight_of(g1, 0, 1))
        assert np.allclose(weight_of(net.graph, 2, 3), (1.0 / 6.0) * weight_of(g3, 2, 3))

    def test_laplacian_additivity(self, cluster_cfg):
        # L of the average equals the dwell-weighted average of the L's
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        expected = (
            2.0 * laplacian(s.catalog["G1"])
            + 3.0 * laplacian(s.catalog["G2"])
            + 1.0 * laplacian(s.catalog["G3"])
        ) / 6.0
        assert np.abs(laplacian(net.graph) - expected).max() < 1e-12

    def test_window_nullspace_equals_intersection(self, cluster_cfg):
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        P = projector(null_space(laplacian(net.graph)))
        P_oracle = stacked_null_projector(
            [laplacian(s.catalog[g]) for g in ("G1", "G2", "G3")]
        )
        assert np.linalg.norm(P - P_oracle, "fro") <= 1e-8

    def test_sign_conflict_across_segments_rejected(self):
        g_pos = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        g_neg = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[-1.0]])})
        s = SwitchingSchedule.explicit(
            {"p": g_pos, "n": g_neg},
            [Segment("p", 1.0), Segment("p", 1.0), Segment("n", 1.0)],
            alpha=1.0,
        )
        for build in (integral_network, integral_network_per_segment):
            with pytest.raises(SignInconsistentEdgeError):
                build(s, Window(1, 3))
            # a window covering only one sign is fine
            assert build(s, Window(0, 2)).graph.keys.tolist() == [[0, 1]]

    def test_sign_conflict_names_first_clash_in_first_appearance_order(self):
        # in catalog order a, b, c the first clash would be edge (2,3); the
        # window meets c, a, b, so b's edge (0,1) clashes first
        one = np.array([[1.0]])
        cat = {
            "a": MatrixWeightedGraph(4, 1, {(2, 3): one}),
            "b": MatrixWeightedGraph(4, 1, {(0, 1): one, (2, 3): -one}),
            "c": MatrixWeightedGraph(4, 1, {(0, 1): -one}),
        }
        s = SwitchingSchedule.explicit(
            cat, [Segment(k, 1.0) for k in ("c", "a", "b", "c")], alpha=1.0
        )
        for build in (integral_network, integral_network_per_segment):
            with pytest.raises(SignInconsistentEdgeError) as exc:
                build(s, Window(0, 4))
            assert (exc.value.i, exc.value.j) == (0, 1)

    def test_averages_classified_with_catalog_eig_tol(self):
        W = np.diag([1.0, 1e-6])
        for eig_tol, cls in ((1e-9, "positive_definite"), (1e-3, "positive_semidefinite")):
            g = MatrixWeightedGraph(2, 2, {(0, 1): W}, eig_tol=eig_tol)
            s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 2.0, scale=0.5)], alpha=1.0)
            avg = integral_network(s, Window(0, 1)).graph
            assert avg.eig_tol == eig_tol
            assert avg.keys.tolist() == [[0, 1]] and avg.classes[0].value == cls

    def test_tiny_scale_average_dropped(self):
        g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        s = SwitchingSchedule.explicit(
            {"g": g}, [Segment("g", 1.0, scale=1e-15)] * 2, alpha=1.0
        )
        for build in (integral_network, integral_network_per_segment):
            for w in (Window(0, 1), Window(0, 2)):
                assert build(s, w).graph.keys.shape == (0, 2)

    def test_window_bounds_checked(self):
        s = SwitchingSchedule.explicit(small_catalog(), [Segment("a", 1.0)], alpha=1.0)
        with pytest.raises(EmptyWindowError):
            integral_network(s, Window(0, 2))
        with pytest.raises(EmptyWindowError):
            Window(1, 1)


class TestStateTransition:
    def test_composition_over_subwindows(self, cluster_cfg):
        s = cluster_cfg.schedule
        whole = state_transition(s, Window(0, 6))
        first = state_transition(s, Window(0, 3))
        second = state_transition(s, Window(3, 6))
        assert np.abs(second @ first - whole).max() < 1e-12

    def test_norm_at_most_one(self, cluster_cfg, rng):
        s = cluster_cfg.schedule
        Phi = state_transition(s, Window(0, 3))
        assert np.linalg.svd(Phi, compute_uv=False).max() <= 1.0 + 1e-10
        for _ in range(5):
            cat = rand_catalog(rng, 4, 2, 2)
            sched = SwitchingSchedule.explicit(
                cat, [Segment(g, 1.0) for g in sorted(cat)], alpha=1.0
            )
            M = state_transition(sched, Window(0, 2))
            assert np.linalg.svd(M, compute_uv=False).max() <= 1.0 + 1e-10

    def test_fixes_common_nullspace(self, cluster_cfg):
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        basis = null_space(laplacian(net.graph))
        Phi = state_transition(s, Window(0, 3))
        assert np.abs(Phi @ basis.vectors - basis.vectors).max() < 1e-12

    def test_single_segment_matches_exponential(self):
        g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 2.0, scale=0.5)], alpha=1.0)
        Phi = state_transition(s, Window(0, 1))
        lam, V = np.linalg.eigh(laplacian(g))
        expected = (V * np.exp(-0.5 * 2.0 * lam)) @ V.T
        assert np.abs(Phi - expected).max() < 1e-14


# Singular values are perfectly conditioned (Weyl): |sigma_i(A) - sigma_i(B)| <= ||A - B||_2.
# Every factor has spectral norm at most 1, so one matrix product rounds to within about
# N eps of the exact product (inner products of length N = n d), and the SVD returns the
# singular values of a matrix within about N eps ||A|| (backward-stable bidiagonalization).
# The explicit Phi takes R products V diag(e) V^T and R - 1 products between them; the flow
# core takes R - 1 couplings V_a^T V_b and at most R - 2 products, its diagonal scalings
# rounding entrywise only.  The computed V are orthogonal to within about N eps, which
# enters once at each end of Phi = V_R K V_1^T.  With one SVD on each side that sums to
# (2R - 1) + (2R - 3) + 2 + 2 = 4R <= 4 (R + 1) terms of N eps each.
FLOW_CORE_C = 4


def _flow_core_window(rng):
    """One window over one run (of one or two segments), two runs, G1 G2 G1 or G1 G2 G2 G1."""
    n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    catalog = rand_catalog(rng, n, d, 2)
    a, b = sorted(catalog)
    shape = [[a], [a, a], [a, b], [a, a, b], [a, b, a], [a, b, b, a]][int(rng.integers(0, 6))]
    segs = [
        Segment(gid, float(rng.choice((0.5, 1.0, 1.5))),
                1.0 if rng.uniform() < 0.3 else float(10.0 ** rng.uniform(-1, 1)))
        for gid in shape
    ]
    s = SwitchingSchedule.explicit(catalog, segs, alpha=0.5)
    return s, Window(0, s.num_segments)


class TestFlowCore:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_singular_values_match_explicit_flow_map(self, seed):
        s, w = _flow_core_window(np.random.default_rng(seed))
        K, Phi = flow_core(s, w, catalog_spectra(s)), state_transition(s, w)
        R = s.runs(w.start, w.end)[1].size
        N = s.n * s.d
        gap = np.abs(np.linalg.svd(K, compute_uv=False) - np.linalg.svd(Phi, compute_uv=False))
        assert gap.max() <= FLOW_CORE_C * (R + 1) * N * np.finfo(float).eps

    def test_recovers_flow_map_in_the_end_eigenbases(self, cluster_cfg):
        s = cluster_cfg.schedule
        eigs = catalog_spectra(s)
        for w in (Window(0, 1), Window(0, 2), Window(0, 6)):
            _, graphs, _ = s.runs(w.start, w.end)
            V_first, V_last = (eigs[k][1] for k in (graphs[0], graphs[-1]))
            Phi = V_last @ flow_core(s, w, eigs) @ V_first.T
            assert np.abs(Phi - state_transition(s, w)).max() < 1e-12

    def test_windows_sharing_one_coupling_dict_get_the_cores_of_separate_calls(self, cluster_cfg):
        s = cluster_cfg.schedule
        windows = [Window(0, 6), Window(6, 12), Window(2, 9), Window(4, 5)]
        eigs = catalog_spectra(s)
        alone = [flow_core(s, w, eigs) for w in windows]
        shared = {}
        for w, K in zip(windows, alone):
            assert flow_core(s, w, eigs, couplings=shared).tobytes() == K.tobytes()
        crossed = {(b, a) for w in windows
                   for a, b in zip(s.graph[w.start:w.end - 1].tolist(),
                                   s.graph[w.start + 1:w.end].tolist()) if a != b}
        assert set(shared) == crossed
        held = dict(shared)
        flow_core(s, Window(12, 18), eigs, couplings=shared)  # crosses only what it shares
        assert shared.keys() == held.keys() and all(shared[k] is v for k, v in held.items())

    def test_a_transition_crossed_both_ways_forms_one_coupling(self):
        # in [A, B, A, B] the coupling of B after A is formed once, and read transposed for A
        # after B; the core's mu is the dense flow map's within mu's error bound beta
        cat = {g: random_connected_pd_graph(6, 2, seed=k, extra_edges=3) for k, g in enumerate("AB")}
        segs = [Segment(g, dwell) for g, dwell in zip("ABAB", (0.3, 0.5, 0.2, 0.4))]
        s = SwitchingSchedule.explicit(cat, segs, alpha=0.1)
        couplings = {}
        K = flow_core(s, Window(0, 4), spectra(s, [0, 1]), couplings=couplings)
        assert list(couplings) == [(1, 0)]  # catalog positions: B after A
        Phi = state_transition(s, Window(0, 4))
        m = 2  # connected with definite weights: the consensus space of dimension d
        mu, exact = mu_m_plus_1(K, m), mu_m_plus_1_svd(Phi, m)
        assert 1e-3 < exact < 1.0
        roundoff = 2 * s.n * s.d * np.finfo(float).eps
        assert mu <= exact + roundoff
        assert exact - mu <= mu_budget(Phi, m) + roundoff


class TestDosesAndRunsAgainstOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_window_operators_match_per_segment_oracle(self, seed):
        # bit-equal where no graph repeats; otherwise only the summation order differs
        rng = np.random.default_rng(seed)
        s, *_ = rand_run_schedule(rng)
        for w in rand_windows(rng, s.num_segments):
            net = integral_network(s, w)
            ref = integral_network_per_segment(s, w)
            assert net.duration == ref.duration
            assert np.array_equal(net.graph.keys, ref.graph.keys)
            assert list(net.graph.classes) == list(ref.graph.classes)
            assert np.array_equal(net.doses, ref.doses)
            L, L_ref = laplacian(net.graph), laplacian(ref.graph)
            Phi, Phi_ref = state_transition(s, w), state_transition_per_segment(s, w)
            if np.unique(s.graph[w.start : w.end]).size == w.end - w.start:
                assert np.array_equal(L, L_ref)
                assert np.array_equal(Phi, Phi_ref)
            else:
                assert np.abs(L - L_ref).max() <= 1e-12
                assert np.abs(Phi - Phi_ref).max() <= 1e-12

    def test_accumulates_in_order_of_first_appearance(self):
        # (1 + u) + u rounds back to 1 while (u + u) + 1 does not, for u = 2**-53
        one = {(0, 1): np.array([[1.0]])}
        cat = {k: MatrixWeightedGraph(2, 1, one) for k in ("a", "b", "c")}
        u = 2.0**-53
        s = SwitchingSchedule.explicit(
            cat, [Segment("c", 1.0), Segment("a", 1.0, u), Segment("b", 1.0, u)], alpha=1.0
        )
        w = Window(0, 3)
        got = weight_of(integral_network(s, w).graph, 0, 1)
        assert np.array_equal(got, weight_of(integral_network_per_segment(s, w).graph, 0, 1))
        assert got[0, 0] == 1.0 / 3.0

    def test_signed_zeros_kept(self):
        # a key's first contribution is taken as it is, not added to +0.0
        W = np.array([[1.0, -0.0], [-0.0, 1.0]])
        cat = {k: MatrixWeightedGraph(2, 2, {(0, 1): c * W}) for k, c in (("a", 1.0), ("b", 2.0))}
        s = SwitchingSchedule.explicit(cat, [Segment("a", 1.0), Segment("b", 1.0)], alpha=1.0)
        for w in (Window(0, 1), Window(0, 2)):
            got = integral_network(s, w).graph.weights
            assert got.tobytes() == integral_network_per_segment(s, w).graph.weights.tobytes()
            assert np.signbit(got[0, 0, 1])

    def test_runs_merge_consecutive_segments_on_one_graph(self):
        s = SwitchingSchedule.explicit(
            small_catalog(),
            [Segment("a", 1.0, 2.0), Segment("a", 3.0), Segment("b", 1.0), Segment("a", 1.0)],
            alpha=1.0,
        )
        first, graph, dose = s.runs(0, 4)
        assert first.tolist() == [0, 2, 3]
        assert graph.tolist() == [0, 1, 0]
        assert dose.tolist() == [5.0, 1.0, 1.0]
        first, graph, dose = s.runs(1, 3)
        assert (first.tolist(), graph.tolist(), dose.tolist()) == ([1, 2], [0, 1], [3.0, 1.0])


class TestSimultaneousBalance:
    def test_benchmark_is_trivially_balanced(self, cluster_cfg):
        b = simultaneous_structural_balance(list(cluster_cfg.graphs.values()))
        assert b is not None and set(b.sigma) == {1}

    def test_variant_split(self, bipartite_cfg):
        b = simultaneous_structural_balance(list(bipartite_cfg.graphs.values()))
        assert b is not None
        assert b.positive_set == (0, 1, 2)
        assert b.negative_set == (3, 4, 5, 6)

    def test_cross_graph_sign_conflict_is_unbalanced(self):
        g_pos = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        g_neg = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[-1.0]])})
        assert simultaneous_structural_balance([g_pos, g_neg]) is None

    def test_union_odd_cycle_is_unbalanced(self):
        g1 = MatrixWeightedGraph(3, 1, {(0, 1): np.array([[1.0]]), (1, 2): np.array([[1.0]])})
        g2 = MatrixWeightedGraph(3, 1, {(0, 2): np.array([[-1.0]])})
        assert simultaneous_structural_balance([g1, g2]) is None

    def test_empty_collection_rejected(self):
        with pytest.raises(EmptyScheduleError):
            simultaneous_structural_balance([])
