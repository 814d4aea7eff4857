"""Slow reference paths kept as oracles for the fast code they were replaced by.

``matrix_abs`` re-classifies a weight with ``eigvalsh`` instead of reading
the class cached on its edge, ``laplacian_oracle`` assembles a Laplacian
through it, ``matrix_exp_neg`` exponentiates one matrix spectrally, and
``run_time_scaled_scenario`` predicts the limit of a generated schedule in
closed form.

The ``*_per_segment`` window operators and integrator walk a schedule one
segment at a time and, for the integral network, one edge at a time, where
the package works from per-graph doses and merged runs of one graph.
``write_trajectory_csv_rows`` formats a trajectory row by row.

``certify_per_window`` certifies every window from scratch, where the package
computes each distinct window content once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mwconsensus.analysis import (
    NS_EQ_TOL,
    Q_MARGIN,
    CertificationReport,
    mu_m_plus_1,
)
from mwconsensus.errors import (
    EmptyWindowError,
    HorizonError,
    SignInconsistentEdgeError,
    WindowsNotContiguousError,
)
from mwconsensus.graph import (
    EdgeKey,
    MatrixWeightedGraph,
    has_positive_negative_spanning_tree,
    laplacian,
)
from mwconsensus.matalg import (
    EIG_TOL,
    SYM_TOL,
    Definiteness,
    check_symmetric,
    classify_definiteness,
    null_space,
    projector,
    psd_eigh,
)
from mwconsensus.sim import (
    _DEDUP_TOL,
    _EDGE_TOL,
    Trajectory,
    _check_horizon,
    _validated_x0,
    simulate_exact,
)
from mwconsensus.switching import (
    IntegralNetwork,
    Segment,
    SwitchingSchedule,
    Window,
    integral_network,
    simultaneous_structural_balance,
    state_transition,
)


def matrix_abs(matrix, eig_tol: float = EIG_TOL, sym_tol: float = SYM_TOL) -> np.ndarray:
    """``sign(M) * M`` with the sign classified afresh; raises on indefinite input."""
    M = check_symmetric(matrix, sym_tol)
    return float(classify_definiteness(M, eig_tol, sym_tol).sign) * M


def laplacian_oracle(g: MatrixWeightedGraph) -> np.ndarray:
    """Block Laplacian ``D - A`` with every ``|A_ij|`` from :func:`matrix_abs`."""
    n, d = g.n, g.d
    L = np.zeros((n * d, n * d))
    for e in g.edges:
        i, j, W = e.i, e.j, e.weight
        aW = matrix_abs(W, g.eig_tol)
        L[i * d : (i + 1) * d, i * d : (i + 1) * d] += aW
        L[j * d : (j + 1) * d, j * d : (j + 1) * d] += aW
        L[i * d : (i + 1) * d, j * d : (j + 1) * d] -= W
        L[j * d : (j + 1) * d, i * d : (i + 1) * d] -= W
    return L


def matrix_exp_neg(matrix, tau: float, eig_tol: float = EIG_TOL) -> np.ndarray:
    """``exp(-tau * M)`` for symmetric PSD ``M`` and ``tau >= 0``, spectrally."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    lam, V, _ = psd_eigh(matrix, eig_tol)
    return (V * np.exp(-tau * lam)) @ V.T


def run_time_scaled_scenario(
    kind: str, base_graph: MatrixWeightedGraph, intervals: int, x0
) -> tuple[Trajectory, np.ndarray]:
    """Simulate a unit-dwell generated schedule and predict its limit in closed form.

    ``inverse_square_decay`` (gain 1/k^2) has a converging total dose, so the
    state tends to ``exp(-(sum_k 1/k^2) L) x0``.  ``linear_ramp`` (gain k) has
    a diverging dose, so the state tends to the null-space projection of x0.
    Returns the trajectory and the predicted limit after ``intervals`` intervals.
    """
    s = SwitchingSchedule.generated(
        {"base": base_graph}, kind, {"graph": "base", "intervals": intervals}, alpha=1.0
    )
    x = np.asarray(x0, dtype=float).ravel()
    traj = simulate_exact(s, x, horizon=float(intervals), sample_dt=float(intervals))
    L = laplacian(base_graph)
    if kind == "inverse_square_decay":
        dose = float(sum(1.0 / k**2 for k in range(1, intervals + 1)))
        predicted = matrix_exp_neg(L, dose) @ x
    else:
        predicted = projector(null_space(L)) @ x
    return traj, predicted


def segments(s: SwitchingSchedule) -> list[Segment]:
    """The schedule as one ``Segment`` record per entry."""
    return [
        Segment(s.ids[g], dwell, scale)
        for g, dwell, scale in zip(s.graph.tolist(), s.dwell.tolist(), s.scale.tolist())
    ]


def _window_segments(s: SwitchingSchedule, w: Window) -> list[Segment]:
    if w.end > s.num_segments:
        raise EmptyWindowError(
            f"window [{w.start}, {w.end}) exceeds schedule length {s.num_segments}"
        )
    return segments(s)[w.start : w.end]


def integral_network_per_segment(s: SwitchingSchedule, w: Window) -> IntegralNetwork:
    """Accumulate ``scale_k * dwell_k * A_ij`` edge by edge, segment by segment."""
    segs = _window_segments(s, w)
    duration = float(sum(seg.dwell for seg in segs))
    acc: dict[EdgeKey, np.ndarray] = {}
    signs: dict[EdgeKey, int] = {}
    for seg in segs:
        g = s.catalog[seg.graph_id]
        for e in g.edges:
            prev = signs.get(e.key)
            if prev is not None and prev != e.sign:
                raise SignInconsistentEdgeError(
                    f"switches weight sign inside window [{w.start}, {w.end})", *e.key
                )
            signs[e.key] = e.sign
            contrib = (seg.scale * seg.dwell) * e.weight
            if e.key in acc:
                acc[e.key] = acc[e.key] + contrib
            else:
                acc[e.key] = contrib
    weights: dict[EdgeKey, np.ndarray] = {}
    for key, total in acc.items():
        avg = total / duration
        if classify_definiteness(avg, s.eig_tol) is Definiteness.ZERO:
            continue
        weights[key] = avg
    g_avg = MatrixWeightedGraph(
        s.n, s.d, weights, label=f"integral[{w.start}:{w.end}]", eig_tol=s.eig_tol
    )
    return IntegralNetwork(window=w, duration=duration, graph=g_avg, laplacian=laplacian(g_avg))


def state_transition_per_segment(s: SwitchingSchedule, w: Window) -> np.ndarray:
    """Product of one factor ``exp(-scale L dwell)`` per segment, newest first."""
    Phi = np.eye(s.n * s.d)
    for seg in _window_segments(s, w):
        lam, V = s.eig_of(seg.graph_id)
        factor = (V * np.exp(-seg.scale * seg.dwell * lam)) @ V.T
        Phi = factor @ Phi
    return Phi


def simulate_exact_per_segment(
    s: SwitchingSchedule, x0, horizon: float, sample_dt: float
) -> Trajectory:
    """Exact integration restarted at every segment from the propagated state."""
    x = _validated_x0(s, x0)
    horizon = _check_horizon(s, horizon)
    if not sample_dt > 0:
        raise HorizonError(f"sample_dt must be positive, got {sample_dt}")

    n_grid = int(np.floor(horizon / sample_dt + 1e-9))
    grid = np.arange(n_grid + 1) * sample_dt
    t_switch = s.switch_times()
    inside = t_switch[(t_switch > 0.0) & (t_switch < horizon)]
    ts = np.unique(np.concatenate([grid, inside, [horizon]]))
    keep = np.ones(ts.size, dtype=bool)
    keep[1:] = np.diff(ts) > _DEDUP_TOL
    ts = ts[keep]

    states = np.empty((ts.size, x.size))
    idx = 0
    for k, seg in enumerate(segments(s)):
        a, b = float(t_switch[k]), float(t_switch[k + 1])
        last = b >= horizon - _EDGE_TOL
        end = min(b, horizon)
        hi = int(np.searchsorted(ts, end, side="right" if last else "left"))
        lam, V = s.eig_of(seg.graph_id)
        if hi > idx:
            taus = ts[idx:hi] - a
            decay = np.exp(-np.outer(seg.scale * lam, taus))
            states[idx:hi] = (V @ (decay * (V.T @ x)[:, None])).T
            if taus[0] == 0.0:
                states[idx] = x
            idx = hi
        x = V @ (np.exp(-seg.scale * lam * (end - a)) * (V.T @ x))
        if last:
            break
    return Trajectory(times=ts, states=states, n=s.n, d=s.d)


def write_trajectory_csv_rows(traj: Trajectory, path) -> None:
    """``t, x_1_1, ..., x_n_d`` rows, each value formatted on its own with ``.17g``."""
    cols = [f"x_{i + 1}_{k + 1}" for i in range(traj.n) for k in range(traj.d)]
    lines = ["t," + ",".join(cols)]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    Path(path).write_text("\n".join(lines) + "\n")


def certify_per_window(
    s: SwitchingSchedule, windows, *, ns_eq_tol: float = NS_EQ_TOL
) -> CertificationReport:
    """Integral network, null space and flow map of every window, computed afresh."""
    if not windows:
        raise WindowsNotContiguousError("no windows given")
    ws = tuple(windows)
    if ws[0].start != 0:
        raise WindowsNotContiguousError(f"first window starts at {ws[0].start}, not 0")
    for prev, nxt in zip(ws, ws[1:]):
        if nxt.start != prev.end:
            raise WindowsNotContiguousError(
                f"gap between windows: [{prev.start},{prev.end}) then [{nxt.start},{nxt.end})"
            )
    nets = tuple(integral_network(s, w) for w in ws)
    bases = [null_space(net.laplacian, s.eig_tol) for net in nets]
    projs = [projector(b) for b in bases]
    max_dist = 0.0
    for P in projs[1:]:
        max_dist = max(max_dist, float(np.linalg.norm(P - projs[0], "fro")))
    equal = max_dist <= ns_eq_tol and len({b.dim for b in bases}) == 1
    m = bases[0].dim
    mus = tuple(mu_m_plus_1(state_transition(s, w), b.dim) for w, b in zip(ws, bases))
    q = max(mus)
    certified = bool(equal and q <= 1.0 - Q_MARGIN)
    balance = simultaneous_structural_balance([net.graph for net in nets])
    pn = all(has_positive_negative_spanning_tree(net.graph)[0] for net in nets)
    return CertificationReport(
        windows=ws,
        integral_networks=nets,
        window_nullspaces_equal=equal,
        max_projector_distance=max_dist,
        m=m,
        mu=mus,
        q_estimate=float(q),
        certified=certified,
        basis=bases[0],
        balance=balance,
        pn_spanning_tree=pn,
    )
