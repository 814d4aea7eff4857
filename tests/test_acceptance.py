"""Acceptance gate: one test per deliverable criterion, at the stated tolerance.

``CRITERIA`` maps each test name to the summary line printed by the
``pytest_terminal_summary`` hook in conftest.py, so a full run ends with one
PASS/FAIL line per criterion.
"""

import math

import numpy as np
import pytest

from mwconsensus.analysis import (
    NECESSARY_TOL,
    ConsensusKind,
    certify_cluster_consensus,
    mu_m_plus_1,
    null_intersection,
    predict_steady_state,
)
from mwconsensus.graph import laplacian
from mwconsensus.matalg import null_space, projector
from mwconsensus.sim import simulate_exact, simulate_rk4
from mwconsensus.switching import Segment, SwitchingSchedule, Window
from oracles import (
    bipartite_steady_state,
    gauge_transform,
    matrix_exp_neg,
    quadratic_form,
    run_time_scaled_scenario,
    signature_matrix,
    state_at,
    state_transition,
    verify_necessary_condition,
)
from randgen import rand_catalog, rand_certified_schedule, rand_graph, stacked_null_projector

from mwconsensus import Bipartition, scenarios

CRITERIA = {
    "test_c01_cluster_limit_matches_prediction": (
        "simulated 7-agent switching run reaches the projected cluster "
        "pattern (inf-norm error <= 1e-6 at t = 600)"
    ),
    "test_c02_necessary_condition_at_steady_state": (
        "predicted limit is annihilated by every catalog Laplacian "
        "(scale-aware residual <= 1e-6)"
    ),
    "test_c03_window_nullspace_equals_intersection": (
        "common null space matches an independent stacked-SVD oracle on the "
        "bundled catalogs and 200 seeded random catalogs (projector distance <= 1e-8)"
    ),
    "test_c04_flow_maps_contract_complement": (
        "flow maps contract the null-space complement: mu_(m+1) < 1 - 1e-9 "
        "on bundled runs and sqrt(mu) bounds 50 random certified schedules"
    ),
    "test_c05_bipartite_variant_certified_and_exact": (
        "sign-flipped variant certifies bipartite: two-coloring, definite-edge "
        "spanning tree, and closed-form limit within 1e-6 of the simulation"
    ),
    "test_c06_decaying_gain_stalls_short_of_projection": (
        "inverse-square gain decay lands on the finite-dose limit "
        "(error <= 2*||L||*||x0||/K) while staying 10x clear of the projection"
    ),
    "test_c07_ramped_gain_reaches_projection": (
        "linearly ramped gain reaches the null-space projection within 1e-8 "
        "after 100 intervals"
    ),
    "test_c08_multi_period_flow_map_idempotent": (
        "N-period flow map with q^N <= 1e-8 is idempotent within 1e-6 in "
        "Frobenius norm"
    ),
    "test_c09_integrators_agree_at_switch_instants": (
        "closed-form and RK4 integrators agree within 1e-6 at every switching "
        "instant (bundled run over [0, 60] and 20 seeded random runs)"
    ),
    "test_c10_structural_invariants_hold": (
        "seeded random instances satisfy the structural invariants: PSD "
        "Laplacians, Rayleigh bounds, gauge conjugation, projector "
        "idempotency, non-increasing state norm"
    ),
}


def catalog_laplacians(cfg):
    return [laplacian(g) for g in cfg.graphs.values()]


def theorem_limit(cfg):
    basis = null_intersection(catalog_laplacians(cfg), cfg.tolerances.eig_tol)
    return predict_steady_state(
        basis, cfg.initial_state, cfg.num_agents, cfg.dimension, cfg.tolerances.cluster_tol
    )


def test_c01_cluster_limit_matches_prediction(cluster_cfg):
    pred = theorem_limit(cluster_cfg)
    assert pred.kind is ConsensusKind.CLUSTER_CONSENSUS
    assert pred.clusters == ((0, 1, 2), (3, 5), (4, 6))
    traj = simulate_exact(
        cluster_cfg.schedule, cluster_cfg.initial_state, cluster_cfg.horizon, 1.0
    )
    err = np.abs(traj.final_state - pred.steady_state).max()
    assert err <= 1e-6, f"cluster limit error {err:.3e} > 1e-6"


def test_c02_necessary_condition_at_steady_state(cluster_cfg):
    pred = theorem_limit(cluster_cfg)
    assert NECESSARY_TOL == 1e-6
    assert verify_necessary_condition(pred.steady_state, catalog_laplacians(cluster_cfg))


def test_c03_window_nullspace_equals_intersection(cluster_cfg, bipartite_cfg):
    def check(laps):
        P = projector(null_intersection(laps))
        P_oracle = stacked_null_projector(laps)
        dist = float(np.linalg.norm(P - P_oracle, "fro"))
        assert dist <= 1e-8, f"projector distance {dist:.3e} > 1e-8"

    check(catalog_laplacians(cluster_cfg))
    check(catalog_laplacians(bipartite_cfg))
    rng = np.random.default_rng(3003)
    for _ in range(200):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        catalog = rand_catalog(rng, n, d, int(rng.integers(2, 4)))
        check([laplacian(g) for g in catalog.values()])


def test_c04_flow_maps_contract_complement(cluster_cfg, bipartite_cfg):
    for cfg in (cluster_cfg, bipartite_cfg):
        report = certify_cluster_consensus(
            cfg.schedule, cfg.windows(), ns_eq_tol=cfg.tolerances.ns_eq_tol
        )
        assert report.certified
        assert report.q_estimate < 1.0 - 1e-9

    rng = np.random.default_rng(4004)
    for _ in range(50):
        schedule, windows, report = rand_certified_schedule(rng)
        phi = state_transition(schedule, windows[0])
        P = projector(report.basis)
        r = rng.normal(size=phi.shape[0])
        w0 = r - P @ r
        nw = float(np.linalg.norm(w0))
        assert nw > 1e-9  # basis dim < ambient dim for certified draws
        contracted = float(np.linalg.norm(phi @ w0))
        bound = math.sqrt(report.q_estimate) * nw + 1e-10
        assert contracted <= bound, f"{contracted:.12f} > {bound:.12f}"


def test_c05_bipartite_variant_certified_and_exact(bipartite_cfg):
    report = certify_cluster_consensus(
        bipartite_cfg.schedule,
        bipartite_cfg.windows(),
        ns_eq_tol=bipartite_cfg.tolerances.ns_eq_tol,
    )
    assert report.certified
    assert isinstance(report.balance, Bipartition)
    assert report.balance.positive_set == (0, 1, 2)
    assert report.balance.negative_set == (3, 4, 5, 6)
    assert report.pn_spanning_tree

    pred = theorem_limit(bipartite_cfg)
    assert pred.kind is ConsensusKind.BIPARTITE_CONSENSUS
    closed_form = bipartite_steady_state(
        report.balance, np.eye(bipartite_cfg.dimension), bipartite_cfg.initial_state
    )
    traj = simulate_exact(
        bipartite_cfg.schedule, bipartite_cfg.initial_state, bipartite_cfg.horizon, 1.0
    )
    err = np.abs(traj.final_state - closed_form).max()
    assert err <= 1e-6, f"bipartite limit error {err:.3e} > 1e-6"
    assert np.abs(pred.steady_state - closed_form).max() <= 1e-9


def test_c06_decaying_gain_stalls_short_of_projection():
    cfg = scenarios.load_builtin("time_scaled_decay")
    graph = next(iter(cfg.graphs.values()))
    intervals = cfg.schedule.num_segments
    assert intervals == 100_000
    traj, _ = run_time_scaled_scenario(
        "inverse_square_decay", graph, intervals, cfg.initial_state
    )
    L = laplacian(graph)
    ideal = matrix_exp_neg(L, math.pi**2 / 6.0) @ cfg.initial_state
    lam = np.linalg.eigvalsh(L)
    norm_L = float(max(abs(lam[0]), abs(lam[-1])))
    tol = 2.0 * norm_L * np.linalg.norm(cfg.initial_state) / intervals
    err = float(np.linalg.norm(traj.final_state - ideal))
    assert err <= tol, f"finite-dose limit error {err:.3e} > {tol:.3e}"
    gap = float(
        np.linalg.norm(projector(null_space(L)) @ cfg.initial_state - ideal)
    )
    assert gap > 10.0 * tol, "limit is not distinguishable from the projection"


def test_c07_ramped_gain_reaches_projection():
    cfg = scenarios.load_builtin("time_scaled_growth")
    graph = next(iter(cfg.graphs.values()))
    intervals = cfg.schedule.num_segments
    assert intervals == 100
    traj, predicted = run_time_scaled_scenario(
        "linear_ramp", graph, intervals, cfg.initial_state
    )
    err = float(np.linalg.norm(traj.final_state - predicted))
    assert err <= 1e-8, f"projection error {err:.3e} > 1e-8"


def test_c08_multi_period_flow_map_idempotent(cluster_cfg):
    report = certify_cluster_consensus(
        cluster_cfg.schedule, cluster_cfg.windows(), ns_eq_tol=cluster_cfg.tolerances.ns_eq_tol
    )
    q = report.q_estimate
    N = math.ceil(math.log(1e-8) / math.log(q))
    assert N == 28
    assert q**N <= 1e-8
    segs_per_period = cluster_cfg.windows()[0].end  # windows index segments
    assert N * segs_per_period <= cluster_cfg.schedule.num_segments
    phi_N = state_transition(cluster_cfg.schedule, Window(0, N * segs_per_period))
    defect = float(np.linalg.norm(phi_N @ phi_N - phi_N, "fro"))
    assert defect <= 1e-6, f"idempotency defect {defect:.3e} > 1e-6"
    assert float(np.linalg.norm(phi_N - projector(report.basis), "fro")) <= 1e-6


def test_c09_integrators_agree_at_switch_instants(cluster_cfg):
    def compare(schedule, x0, horizon):
        exact = simulate_exact(schedule, x0, horizon, sample_dt=horizon)
        rk4 = simulate_rk4(schedule, x0, horizon, step_h=1e-3)
        checkpoints = [t for t in schedule.switch_times() if 0.0 < t <= horizon]
        if horizon not in checkpoints:
            checkpoints.append(horizon)
        for t in checkpoints:
            gap = np.abs(state_at(exact, t) - state_at(rk4, t)).max()
            assert gap <= 1e-6, f"integrators differ by {gap:.3e} at t={t}"

    compare(cluster_cfg.schedule, cluster_cfg.initial_state, 60.0)

    rng = np.random.default_rng(9009)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        catalog = rand_catalog(rng, n, d, int(rng.integers(2, 4)))
        pattern = [
            Segment(gid, float(rng.choice((0.5, 1.0, 1.5)))) for gid in sorted(catalog)
        ]
        schedule = SwitchingSchedule.periodic(catalog, pattern, 1, alpha=0.5)
        x0 = rng.uniform(-1.0, 1.0, size=n * d)
        compare(schedule, x0, schedule.total_duration)


def test_c10_structural_invariants_hold():
    rng = np.random.default_rng(1010)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        g = rand_graph(rng, n, d)
        L = laplacian(g)
        lam = np.linalg.eigvalsh(L)
        scale = max(1.0, float(lam[-1]))
        assert lam[0] >= -1e-9 * scale  # PSD

        x = rng.normal(size=n * d)
        energy = quadratic_form(L, x)
        sq = float(x @ x)
        assert lam[0] * sq - 1e-9 * scale * sq <= energy <= lam[-1] * sq + 1e-9 * scale * sq
        assert abs(energy - float(x @ L @ x)) <= 1e-9 * scale * sq

        b = Bipartition(tuple(int(s) for s in rng.choice((-1, 1), size=n)))
        C = signature_matrix(b, d)
        Lg = laplacian(gauge_transform(g, b))
        assert np.abs(Lg - C @ L @ C).max() <= 1e-12 * scale

        P = projector(null_space(L))
        assert float(np.linalg.norm(P @ P - P, "fro")) <= 1e-10

        schedule = SwitchingSchedule.explicit(
            {"g": g}, [Segment("g", 1.5)], alpha=0.5
        )
        traj = simulate_exact(schedule, x, 1.5, sample_dt=0.25)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0]))
