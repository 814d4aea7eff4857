"""Tests for schedules, integral networks, flow maps, and simultaneous balance."""

import numpy as np
import pytest

from mwconsensus.errors import (
    DimensionMismatchError,
    DwellTooShortError,
    EmptyScheduleError,
    EmptyWindowError,
    SignInconsistentEdgeError,
)
from mwconsensus.graph import MatrixWeightedGraph, laplacian
from mwconsensus.matalg import null_space, projector
from mwconsensus.switching import (
    Segment,
    SwitchingSchedule,
    Window,
    integral_network,
    simultaneous_structural_balance,
    state_transition,
    validate_schedule,
)

from randgen import rand_catalog, stacked_null_projector


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
        assert [seg.graph_id for seg in s.segments()] == ["a", "b"] * 3

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
        with pytest.raises(KeyError):
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
        with pytest.raises(DwellTooShortError):
            Segment("a", 0.0)
        with pytest.raises(ValueError):
            Segment("a", 1.0, scale=0.0)

    def test_generated_inverse_square_and_ramp(self):
        cat = {"base": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})}
        s = SwitchingSchedule.generated(
            cat, "inverse_square_decay", {"graph": "base", "intervals": 4}
        )
        assert [seg.scale for seg in s.segments()] == [1.0, 0.25, 1.0 / 9.0, 0.0625]
        s2 = SwitchingSchedule.generated(cat, "linear_ramp", {"graph": "base", "intervals": 3})
        assert [seg.scale for seg in s2.segments()] == [1.0, 2.0, 3.0]
        with pytest.raises(KeyError):
            SwitchingSchedule.generated(cat, "nope", {"graph": "base", "intervals": 3})


class TestValidateSchedule:
    def test_periodic_benchmark_satisfies_hypotheses(self, cluster_cfg):
        report = validate_schedule(cluster_cfg.schedule)
        assert report.finite_recurring_catalog
        assert report.distinct_dwells == (1.0, 2.0, 3.0)

    def test_scaled_generator_violates_recurrence(self):
        cat = {"base": MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})}
        s = SwitchingSchedule.generated(
            cat, "inverse_square_decay", {"graph": "base", "intervals": 5}
        )
        report = validate_schedule(s)
        assert not report.finite_recurring_catalog
        assert report.distinct_dwells == (1.0,)

    def test_unused_catalog_graph_flagged(self):
        s = SwitchingSchedule.explicit(small_catalog(), [Segment("a", 1.0)], alpha=1.0)
        report = validate_schedule(s)
        assert not report.finite_recurring_catalog
        assert any("never scheduled" in note for note in report.notes)


class TestIntegralNetwork:
    def test_benchmark_period_edge_set(self, cluster_cfg):
        # union of the three networks over one period, 1-based pairs
        net = integral_network(cluster_cfg.schedule, Window(0, 3))
        got = {(i + 1, j + 1) for (i, j) in net.graph.edge_keys}
        assert got == {(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 7)}
        assert net.duration == 6.0

    def test_benchmark_period_average_weights(self, cluster_cfg):
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        g1, g3 = s.catalog["G1"], s.catalog["G3"]
        assert np.allclose(net.graph.weight(0, 1), (2.0 / 6.0) * g1.weight(0, 1))
        assert np.allclose(net.graph.weight(2, 3), (1.0 / 6.0) * g3.weight(2, 3))

    def test_laplacian_additivity(self, cluster_cfg):
        # L of the average equals the dwell-weighted average of the L's
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        expected = (
            2.0 * s.laplacian_of("G1").matrix
            + 3.0 * s.laplacian_of("G2").matrix
            + 1.0 * s.laplacian_of("G3").matrix
        ) / 6.0
        assert np.abs(net.laplacian.matrix - expected).max() < 1e-12

    def test_window_nullspace_equals_intersection(self, cluster_cfg):
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        P = projector(null_space(net.laplacian.matrix))
        P_oracle = stacked_null_projector(
            [s.laplacian_of(g).matrix for g in ("G1", "G2", "G3")]
        )
        assert np.linalg.norm(P - P_oracle, "fro") <= 1e-8

    def test_sign_conflict_across_segments_rejected(self):
        g_pos = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        g_neg = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[-1.0]])})
        s = SwitchingSchedule.explicit(
            {"p": g_pos, "n": g_neg}, [Segment("p", 1.0), Segment("n", 1.0)], alpha=1.0
        )
        with pytest.raises(SignInconsistentEdgeError):
            integral_network(s, Window(0, 2))
        # a window covering only one sign is fine
        assert integral_network(s, Window(0, 1)).graph.has_edge(0, 1)

    def test_averages_classified_with_catalog_eig_tol(self):
        W = np.diag([1.0, 1e-6])
        for eig_tol, cls in ((1e-9, "positive_definite"), (1e-3, "positive_semidefinite")):
            g = MatrixWeightedGraph(2, 2, {(0, 1): W}, eig_tol=eig_tol)
            s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 2.0, scale=0.5)], alpha=1.0)
            avg = integral_network(s, Window(0, 1)).graph
            assert avg.eig_tol == eig_tol
            assert avg.edge(0, 1).definiteness.value == cls

    def test_tiny_scale_average_dropped(self):
        g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        s = SwitchingSchedule.explicit(
            {"g": g}, [Segment("g", 1.0, scale=1e-15)], alpha=1.0
        )
        net = integral_network(s, Window(0, 1))
        assert net.graph.edges == ()

    def test_window_bounds_checked(self):
        s = SwitchingSchedule.explicit(small_catalog(), [Segment("a", 1.0)], alpha=1.0)
        with pytest.raises(EmptyWindowError):
            integral_network(s, Window(0, 2))
        with pytest.raises(EmptyWindowError):
            Window(1, 1)


class TestStateTransition:
    def test_composition_over_subwindows(self, cluster_cfg):
        s = cluster_cfg.schedule
        whole = state_transition(s, Window(0, 6)).matrix
        first = state_transition(s, Window(0, 3)).matrix
        second = state_transition(s, Window(3, 6)).matrix
        assert np.abs(second @ first - whole).max() < 1e-12

    def test_norm_at_most_one(self, cluster_cfg, rng):
        s = cluster_cfg.schedule
        Phi = state_transition(s, Window(0, 3)).matrix
        assert np.linalg.svd(Phi, compute_uv=False).max() <= 1.0 + 1e-10
        for _ in range(5):
            cat = rand_catalog(rng, 4, 2, 2)
            sched = SwitchingSchedule.explicit(
                cat, [Segment(g, 1.0) for g in sorted(cat)], alpha=1.0
            )
            M = state_transition(sched, Window(0, 2)).matrix
            assert np.linalg.svd(M, compute_uv=False).max() <= 1.0 + 1e-10

    def test_fixes_common_nullspace(self, cluster_cfg):
        s = cluster_cfg.schedule
        net = integral_network(s, Window(0, 3))
        basis = null_space(net.laplacian.matrix)
        Phi = state_transition(s, Window(0, 3)).matrix
        assert np.abs(Phi @ basis.vectors - basis.vectors).max() < 1e-12

    def test_single_segment_matches_exponential(self):
        g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[1.0]])})
        s = SwitchingSchedule.explicit({"g": g}, [Segment("g", 2.0, scale=0.5)], alpha=1.0)
        Phi = state_transition(s, Window(0, 1)).matrix
        lam, V = np.linalg.eigh(laplacian(g).matrix)
        expected = (V * np.exp(-0.5 * 2.0 * lam)) @ V.T
        assert np.abs(Phi - expected).max() < 1e-14


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
