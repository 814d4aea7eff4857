"""Tests for the exact and RK4 integrators."""

import tracemalloc

import numpy as np
import pytest

from mwconsensus.errors import (
    DimensionMismatchError,
    HorizonError,
    ScheduleError,
    ScheduleExhaustedError,
)
from mwconsensus.graph import MatrixWeightedGraph, laplacian
from mwconsensus.matalg import null_space
from mwconsensus.sim import _doses_since_run_start, check_run, simulate_exact, simulate_rk4
from mwconsensus.switching import Segment, SwitchingSchedule

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    agent,
    matrix_exp_neg,
    projector,
    run_time_scaled_scenario,
    simulate_exact_per_run,
    simulate_exact_per_segment,
    state_at,
)
from randgen import rand_catalog, rand_run_schedule, rand_short_runs, random_connected_pd_graph


def two_node_schedule(dwell=2.0, w=1.0):
    g = MatrixWeightedGraph(2, 1, {(0, 1): np.array([[w]])})
    return SwitchingSchedule.explicit({"g": g}, [Segment("g", dwell)], alpha=min(1.0, dwell))


class TestSimulateExact:
    def test_sampling_grid_contains_switches_and_horizon(self, cluster_cfg):
        traj = simulate_exact(cluster_cfg.schedule, cluster_cfg.initial_state, 10.0, 0.8)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 10.0
        for t in (2.0, 5.0, 6.0, 8.0):  # switching instants below the horizon
            assert np.any(np.isclose(traj.times, t, atol=1e-12))
        assert np.all(np.diff(traj.times) > 0)

    def test_single_segment_matches_closed_form(self, rng):
        s = two_node_schedule(dwell=3.0, w=0.7)
        x0 = rng.normal(size=2)
        traj = simulate_exact(s, x0, 3.0, 0.5)
        L = laplacian(s.catalog["g"])
        for t, x in zip(traj.times, traj.states):
            expected = matrix_exp_neg(L, t) @ x0
            assert np.abs(x - expected).max() < 1e-13

    def test_state_norm_never_increases(self, cluster_cfg):
        traj = simulate_exact(cluster_cfg.schedule, cluster_cfg.initial_state, 30.0, 0.5)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_horizon_mid_segment(self, cluster_cfg):
        traj = simulate_exact(cluster_cfg.schedule, cluster_cfg.initial_state, 3.5, 1.0)
        assert traj.times[-1] == 3.5

    def test_input_validation(self, cluster_cfg):
        s = cluster_cfg.schedule
        x0 = cluster_cfg.initial_state
        with pytest.raises(HorizonError):
            simulate_exact(s, x0, 0.0, 1.0)
        with pytest.raises(HorizonError):
            simulate_exact(s, x0, 10.0, 0.0)
        with pytest.raises(HorizonError, match="^sample_dt must be positive and finite, got inf$"):
            simulate_exact(s, x0, 10.0, np.inf)
        with pytest.raises(ScheduleExhaustedError):
            simulate_exact(s, x0, 1e9, 1.0)
        with pytest.raises(DimensionMismatchError):
            simulate_exact(s, np.ones(5), 10.0, 1.0)

    def test_trajectory_accessors(self, cluster_cfg):
        traj = simulate_exact(cluster_cfg.schedule, cluster_cfg.initial_state, 6.0, 1.0)
        assert agent(traj, 0).shape == (traj.num_samples, 3)
        assert np.array_equal(state_at(traj, 2.0), traj.states[2])
        with pytest.raises(KeyError):
            state_at(traj, 2.5)
        with pytest.raises(DimensionMismatchError):
            agent(traj, 7)


class TestSimulateRK4:
    def test_matches_exact_on_benchmark_prefix(self, cluster_cfg):
        s = cluster_cfg.schedule
        x0 = cluster_cfg.initial_state
        rk = simulate_rk4(s, x0, 12.0, 1e-3)
        ex = simulate_exact(s, x0, 12.0, 1.0)
        for t in np.arange(1.0, 12.5, 1.0):
            a = state_at(rk, t, tol=1e-9)
            b = state_at(ex, t, tol=1e-9)
            assert np.abs(a - b).max() < 1e-9

    def test_fourth_order_convergence(self):
        s = two_node_schedule(dwell=1.0)
        x0 = np.array([1.0, -1.0])
        L = laplacian(s.catalog["g"])
        exact = matrix_exp_neg(L, 1.0) @ x0
        errs = []
        for h in (0.1, 0.05, 0.025):
            traj = simulate_rk4(s, x0, 1.0, h)
            errs.append(np.abs(traj.final_state - exact).max())
        rate1 = np.log2(errs[0] / errs[1])
        rate2 = np.log2(errs[1] / errs[2])
        assert rate1 > 3.5 and rate2 > 3.5

    def test_steps_never_straddle_switches(self, cluster_cfg):
        traj = simulate_rk4(cluster_cfg.schedule, cluster_cfg.initial_state, 6.0, 0.5)
        for t in (2.0, 5.0, 6.0):
            assert np.any(np.isclose(traj.times, t, atol=1e-12))

    def test_step_must_divide_dwell(self):
        s = two_node_schedule(dwell=1.0)
        with pytest.raises(HorizonError, match=r"^step_h = 0\.3 does not divide segment 0 span 1\.0$"):
            simulate_rk4(s, np.ones(2), 1.0, 0.3)

    def test_infinite_step_rejected(self):
        s = two_node_schedule(dwell=1.0)
        with pytest.raises(HorizonError, match="^step_h must be positive and finite, got inf$"):
            simulate_rk4(s, np.ones(2), 1.0, np.inf)

    def test_records_every_step(self):
        s = two_node_schedule(dwell=1.0)
        traj = simulate_rk4(s, np.ones(2), 1.0, 0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestTimeScaledScenarios:
    def test_decay_matches_truncated_dose(self, rng):
        base = random_connected_pd_graph(3, 2, seed=7)
        x0 = rng.normal(size=6)
        traj, predicted = run_time_scaled_scenario("inverse_square_decay", base, 50, x0)
        assert np.abs(traj.final_state - predicted).max() < 1e-10
        # the decayed limit is NOT the null-space projection
        L = laplacian(base)
        proj = projector(null_space(L)) @ x0
        assert np.abs(predicted - proj).max() > 1e-3

    def test_ramp_reaches_projection(self, rng):
        base = random_connected_pd_graph(3, 2, seed=7)
        x0 = rng.normal(size=6)
        traj, predicted = run_time_scaled_scenario("linear_ramp", base, 60, x0)
        L = laplacian(base)
        assert np.allclose(predicted, projector(null_space(L)) @ x0)
        assert np.abs(traj.final_state - predicted).max() < 1e-9

    def test_unknown_kind_rejected(self, rng):
        base = random_connected_pd_graph(3, 2, seed=7)
        with pytest.raises(ScheduleError, match="unknown schedule generator"):
            run_time_scaled_scenario("nope", base, 5, np.ones(6))


class TestRunsAgainstOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_matches_per_segment_oracle(self, seed):
        s, x0, horizon, sample_dt = rand_run_schedule(np.random.default_rng(seed))
        traj = simulate_exact(s, x0, horizon, sample_dt)
        ref = simulate_exact_per_segment(s, x0, horizon, sample_dt)
        assert np.array_equal(traj.times, ref.times)
        assert traj.times[-1] == horizon
        tol = 1e-10 * max(1.0, float(np.abs(x0).max()))
        assert np.abs(traj.states - ref.states).max() <= tol

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_matches_per_run_oracle_on_many_short_runs(self, seed):
        rng = np.random.default_rng(seed)
        s, x0 = rand_short_runs(rng)
        t = s.switch_times()
        k = int(rng.integers(0, s.num_segments))
        mid_run = float(t[k] + rng.uniform(0.1, 0.9) * (t[k + 1] - t[k]))
        tol = 1e-14 * max(1.0, float(np.abs(x0).max()))
        for horizon in (mid_run, s.total_duration + 5e-10):
            traj = simulate_exact(s, x0, horizon, 1.0)
            ref = simulate_exact_per_run(s, x0, horizon, 1.0)
            assert np.array_equal(traj.times, ref.times)
            assert np.abs(traj.states - ref.states).max() <= tol

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_doses_since_run_start_are_each_runs_own_interpolation(self, seed):
        rng = np.random.default_rng(seed)
        s, _ = rand_short_runs(rng)
        K, t = s.num_segments, s.switch_times()
        horizon = s.total_duration + 5e-10
        # the switching instants themselves, random instants and one just past the end
        ts = np.sort(np.concatenate([t[:K], rng.uniform(0.0, horizon, 50), [horizon]]))
        first = s.runs(0, K)[0]
        cum = np.concatenate(([0.0], np.cumsum(s.scale * s.dwell)))
        run = np.searchsorted(t[first], ts, side="right") - 1
        expected = np.empty_like(ts)
        for r, (k0, k1) in enumerate(zip(first.tolist(), [*first[1:].tolist(), K])):
            on_r = run == r
            expected[on_r] = np.interp(ts[on_r], t[k0 : k1 + 1], cum[k0 : k1 + 1] - cum[k0])
        assert np.array_equal(_doses_since_run_start(s, K, first, ts), expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_one_run_is_bit_for_bit_the_per_run_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 6)), int(rng.integers(1, 4))  # a path and one more edge
        base = random_connected_pd_graph(n, d, seed=int(rng.integers(0, 1000)))
        kind = str(rng.choice(("inverse_square_decay", "linear_ramp")))
        intervals = int(rng.integers(1, 40))
        s = SwitchingSchedule.generated({"base": base}, kind, {"graph": "base", "intervals": intervals})
        x0 = rng.normal(size=n * d)
        sample_dt = float(rng.uniform(0.07, 3.0))
        for horizon in (float(rng.uniform(0.1, intervals)), intervals + 5e-10):
            traj = simulate_exact(s, x0, horizon, sample_dt)
            ref = simulate_exact_per_run(s, x0, horizon, sample_dt)
            assert np.array_equal(traj.times, ref.times)
            assert np.array_equal(traj.states, ref.states)

    def test_horizon_just_past_the_end_repeats_the_final_state(self):
        # within the 1e-9 horizon tolerance but not merged with the end instant
        s = SwitchingSchedule.explicit(two_node_schedule().catalog, [Segment("g", 1.0)] * 2, 1.0)
        traj = simulate_exact(s, [1.0, 3.0], 2.0 + 5e-10, 0.5)
        assert traj.times[-2:].tolist() == [2.0, 2.0 + 5e-10]
        assert np.array_equal(traj.states[-1], traj.states[-2])

    def test_merged_run_equals_one_exponential(self, rng):
        # three segments on one graph act as exp(-(sum of doses) L)
        g = MatrixWeightedGraph(3, 1, {(0, 1): np.array([[1.0]]), (1, 2): np.array([[0.5]])})
        segs = [Segment("g", 1.0, 2.0), Segment("g", 0.5, 0.25), Segment("g", 2.0, 1.0)]
        s = SwitchingSchedule.explicit({"g": g}, segs, alpha=0.5)
        x0 = rng.normal(size=3)
        traj = simulate_exact(s, x0, 3.5, 0.4)
        assert np.array_equal(traj.states[0], x0)  # exact at the run start
        L = laplacian(g)
        # inside the second and third segments, and at the end
        for t, dose in ((1.2, 2.05), (2.8, 3.425), (3.5, 4.125)):
            assert np.abs(state_at(traj, t) - matrix_exp_neg(L, dose) @ x0).max() < 1e-12


def chain_schedule(graphs: int, per_run: int, n: int, segments: int = 600) -> SwitchingSchedule:
    """Unit dwells on paths of ``n`` agents, ``graphs`` of them taking turns ``per_run`` segments each."""
    catalog = {f"g{k}": MatrixWeightedGraph(n, 1, {(i, i + 1): np.array([[1.0 + k]]) for i in range(n - 1)})
               for k in range(graphs)}
    segs = [Segment(f"g{k // per_run % graphs}", 1.0, 1.0 + k % 3) for k in range(segments)]
    return SwitchingSchedule.explicit(catalog, segs, alpha=1.0)


class TestMemoryCount:
    @pytest.mark.parametrize(
        "graphs, per_run, n, sample_dt",
        [
            (4, 1, 2, 100.0),  # a run per sample, at the narrowest state
            (1, 1, 2, 0.25),  # one run of many samples
            (2, 3, 2, 0.5),
            (2, 1, 30, 100.0),
            (2, 50, 30, 0.25),
        ],
    )
    def test_exact_run_holds_no_more_than_check_run_counts(self, monkeypatch, graphs, per_run,
                                                           n, sample_dt):
        s = chain_schedule(graphs, per_run, n)
        x0, horizon = np.arange(float(n)), s.total_duration - 0.5
        simulate_exact(s, x0, horizon, sample_dt)  # the eigendecompositions are cached
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            simulate_exact(s, x0, horizon, sample_dt)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: peak - 1.0)
        with pytest.raises(HorizonError, match="more than the host's"):
            check_run(s, horizon, "exact", sample_dt)


class TestRandomSchedules:
    def test_exact_and_rk4_agree_on_random_instances(self, rng):
        for _ in range(5):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            cat = rand_catalog(rng, n, d, 2)
            segs = [Segment(g, float(rng.choice((0.5, 1.0)))) for g in sorted(cat)]
            s = SwitchingSchedule.explicit(cat, segs, alpha=0.5)
            x0 = rng.normal(size=n * d)
            T = s.total_duration
            ex = simulate_exact(s, x0, T, T)
            rk = simulate_rk4(s, x0, T, 1e-3)
            assert np.abs(ex.final_state - rk.final_state).max() < 1e-9
