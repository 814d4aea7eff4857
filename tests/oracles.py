"""Slow reference paths kept as oracles for the fast code they were replaced by.

``classify_definiteness`` classifies one matrix with its own ``eigvalsh``
call, where the package classifies a whole stack at once.  ``matrix_abs``
re-classifies a weight through it instead of reading the class held for its
edge, ``laplacian_oracle`` assembles a Laplacian edge by edge through it,
``matrix_exp_neg`` exponentiates one matrix spectrally, and
``run_time_scaled_scenario`` predicts the limit of a generated schedule in
closed form.

``sign_of``, ``weight_of``, ``quadratic_form``, ``is_connected``,
``structural_balance``, ``signature_matrix`` and ``gauge_transform`` look up
and state class and graph facts that the tests check; the package itself does
not need them.  Nor does it need ``bipartite_steady_state`` (the paper's
closed-form bipartite limit, which raises ``NonOrthonormalPsiError``) or the
trajectory lookups ``state_at`` and ``agent``.  ``two_color_signs`` 2-colors a
signed edge dict with its own breadth-first search, visiting neighbors in
sorted order, where the package runs one traversal on edge arrays for both
balance and spanning trees.

The ``*_per_segment`` window operators and integrator walk a schedule one
segment at a time and, for the integral network, one edge at a time, where
the package works from per-graph doses and merged runs of one graph.
``simulate_exact_per_run`` evaluates each run's samples with their own
exponentials and product, where the package forms one block per catalog
graph and its loop over runs only carries the state.
``state_transition`` forms the window flow map ``Phi`` explicitly, one
matrix product per run, where the package works with its flow core in the
catalog eigenbases.  ``verify_necessary_condition`` takes each Laplacian's
norm from its own ``eigvalsh`` call, where the package reuses the largest
eigenvalue of each catalog graph's cached eigendecomposition.  ``write_trajectory_csv_rows``
formats a trajectory row by row, and ``write_trajectory_csv_savetxt`` writes it with
``np.savetxt``, where the package spells a block of values as ``%.17g`` in numpy.
``parse_graph_per_edge`` reads a scenario file's graph entry one edge at a
time, converting and checking each edge's ends and weight on its own and
building the graph from a dict of them, where the package converts a graph's
ends and weights in one call each and checks them as whole arrays.
``mu_m_plus_1_svd`` takes the singular values of the whole flow core, where the
package drops the rows and columns too small to move them beyond roundoff;
``mu_budget`` is the bound ``beta`` on what that drop may lose.
``projector`` forms a basis's orthogonal projector, where the package measures
how far apart two spans are from the bases alone (``projector_distance``).

``certify_per_window`` certifies every window from scratch, where the package
computes each distinct window content once.  ``window_null_space_eigh`` takes a
window's null space from the full ``eigh`` of its dosed sum of catalog
Laplacians, where the package solves inside a catalog null space where that
provably loses nothing.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Mapping

import numpy as np

from mwconsensus.analysis import (
    NECESSARY_TOL,
    NS_EQ_TOL,
    Q_MARGIN,
    CertificationReport,
    _window_null_space,
    mu_m_plus_1,
)
from mwconsensus.config import _as_array, _as_int, _as_object, _need
from mwconsensus.errors import (
    ConfigValidationError,
    DimensionMismatchError,
    ConsensusToolError,
    EmptyWindowError,
    HorizonError,
    IndefiniteWeightError,
    SignInconsistentEdgeError,
    WindowsNotContiguousError,
)
from mwconsensus.graph import (
    Bipartition,
    EdgeKey,
    MatrixWeightedGraph,
    has_positive_negative_spanning_tree,
    laplacian,
)
from mwconsensus.matalg import (
    EIG_FLOOR,
    EIG_TOL,
    ORTHO_TOL,
    Definiteness,
    NullSpaceBasis,
    check_symmetric,
    null_space,
    projector_distance,
    psd_eigh,
)
from mwconsensus.sim import (
    _DEDUP_TOL,
    _EDGE_TOL,
    Trajectory,
    _check_horizon,
    _grid_count,
    _segments_reached,
    _validated_x0,
    check_run,
    simulate_exact,
)
from mwconsensus.switching import (
    IntegralNetwork,
    Segment,
    SwitchingSchedule,
    Window,
    _check_window,
    flow_core,
    integral_network,
    simultaneous_structural_balance,
)


def classify_definiteness(matrix, eig_tol: float = EIG_TOL) -> Definiteness:
    """Classify one symmetric matrix by the signs of its eigenvalues.

    Eigenvalues within ``max(eig_tol * max|lam|, EIG_FLOOR)`` of zero are
    treated as zero; ties at the threshold count as zero.
    """
    M = check_symmetric(matrix)
    if M.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {M.shape}")
    lam = np.linalg.eigvalsh(M)
    thr = max(eig_tol * float(np.abs(lam).max(initial=0.0)), EIG_FLOOR)
    neg = lam < -thr
    pos = lam > thr
    if not neg.any() and not pos.any():
        return Definiteness.ZERO
    if neg.any() and pos.any():
        return Definiteness.INDEFINITE
    if pos.any():
        return Definiteness.POSITIVE_DEFINITE if pos.all() else Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.NEGATIVE_DEFINITE if neg.all() else Definiteness.NEGATIVE_SEMIDEFINITE


def sign_of(c: Definiteness) -> int:
    """Scalar sign of a class: +1 for PD/PSD, -1 for ND/NSD, 0 for ZERO.

    Raises IndefiniteWeightError for INDEFINITE, which has no scalar sign.
    """
    if c in (Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE):
        return 1
    if c in (Definiteness.NEGATIVE_DEFINITE, Definiteness.NEGATIVE_SEMIDEFINITE):
        return -1
    if c is Definiteness.ZERO:
        return 0
    raise IndefiniteWeightError("indefinite matrix has no scalar sign")


def matrix_abs(matrix, eig_tol: float = EIG_TOL) -> np.ndarray:
    """``sign(M) * M`` with the sign classified afresh; raises on indefinite input."""
    M = check_symmetric(matrix)
    return float(sign_of(classify_definiteness(M, eig_tol))) * M


def laplacian_oracle(g: MatrixWeightedGraph) -> np.ndarray:
    """Block Laplacian ``D - A`` with every ``|A_ij|`` from :func:`matrix_abs`."""
    n, d = g.n, g.d
    L = np.zeros((n * d, n * d))
    for (i, j), W in zip(g.keys.tolist(), g.weights):
        aW = matrix_abs(W, g.eig_tol)
        L[i * d : (i + 1) * d, i * d : (i + 1) * d] += aW
        L[j * d : (j + 1) * d, j * d : (j + 1) * d] += aW
        L[i * d : (i + 1) * d, j * d : (j + 1) * d] -= W
        L[j * d : (j + 1) * d, i * d : (i + 1) * d] -= W
    return L


def weight_of(g: MatrixWeightedGraph, i: int, j: int) -> np.ndarray:
    """A_ij, the weight on edge {i, j} (symmetric, so order-free)."""
    (k,) = np.flatnonzero((g.keys == (min(i, j), max(i, j))).all(axis=1))
    return g.weights[k]


def quadratic_form(L: np.ndarray, x: np.ndarray) -> float:
    """x^T L x; nonnegative for every stacked state x and block Laplacian L."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != L.shape[0]:
        raise DimensionMismatchError(f"state length {x.size} != n*d = {L.shape[0]}")
    return float(x @ L @ x)


def is_connected(g: MatrixWeightedGraph) -> bool:
    """Connectivity of the underlying (unsigned) skeleton."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.keys.tolist():
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    return len(seen) == g.n


def two_color_signs(n: int, signs: Mapping[EdgeKey, int]) -> Bipartition | None:
    """2-color nodes so every +1 edge joins like colors and every -1 edge unlike.

    BFS per component, roots colored +1 in increasing node order, so the
    result is deterministic.  Returns None when some cycle makes the coloring
    impossible (an odd number of negative edges on it).
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), s in signs.items():
        adj[i].append((j, s))
        adj[j].append((i, s))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in sorted(adj[u]):
                want = sigma[u] * s
                if sigma[v] == 0:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    return None
    return Bipartition(sigma=tuple(sigma))


def structural_balance(g: MatrixWeightedGraph) -> Bipartition | None:
    """Bipartition making positive edges intra-cluster and negative ones inter-cluster.

    Returns None when the signed skeleton is unbalanced.
    """
    return two_color_signs(g.n, dict(zip(map(tuple, g.keys.tolist()), g.signs.tolist())))


def signature_matrix(b: Bipartition, d: int) -> np.ndarray:
    """Gauge matrix ``C = diag(sigma_1 I_d, ..., sigma_n I_d)``, with ``C = C^T = C^{-1}``."""
    return np.kron(np.diag(np.asarray(b.sigma, dtype=float)), np.eye(d))


def gauge_transform(g: MatrixWeightedGraph, b: Bipartition) -> MatrixWeightedGraph:
    """Flip weight signs by the gauge: A_ij -> sigma_i sigma_j A_ij.

    For a balanced graph with its own balance bipartition this makes every
    weight positive semidefinite.  The Laplacian transforms by conjugation:
    L(gauged) = C L(g) C with C the signature matrix.
    """
    if len(b.sigma) != g.n:
        raise DimensionMismatchError(f"bipartition covers {len(b.sigma)} nodes, graph has {g.n}")
    weights = {
        (i, j): float(b.sigma[i] * b.sigma[j]) * W for (i, j), W in zip(g.keys.tolist(), g.weights)
    }
    label = f"{g.label}~gauged" if g.label else "gauged"
    return MatrixWeightedGraph(g.n, g.d, weights, label=label, eig_tol=g.eig_tol)


def matrix_exp_neg(matrix, tau: float, eig_tol: float = EIG_TOL) -> np.ndarray:
    """``exp(-tau * M)`` for symmetric PSD ``M`` and ``tau >= 0``, spectrally."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    lam, V, _ = psd_eigh(check_symmetric(matrix), eig_tol)
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
    doses = np.zeros(len(s.ids))
    acc: dict[EdgeKey, np.ndarray] = {}
    signs: dict[EdgeKey, int] = {}
    for seg in segs:
        doses[s.ids.index(seg.graph_id)] += seg.scale * seg.dwell
        g = s.catalog[seg.graph_id]
        for key, sign, W in zip(map(tuple, g.keys.tolist()), g.signs.tolist(), g.weights):
            prev = signs.get(key)
            if prev is not None and prev != sign:
                raise SignInconsistentEdgeError(
                    f"switches weight sign inside window [{w.start}, {w.end})", *key
                )
            signs[key] = sign
            contrib = (seg.scale * seg.dwell) * W
            if key in acc:
                acc[key] = acc[key] + contrib
            else:
                acc[key] = contrib
    weights: dict[EdgeKey, np.ndarray] = {}
    for key, total in acc.items():
        avg = total / duration
        if classify_definiteness(avg, s.eig_tol) is Definiteness.ZERO:
            continue
        weights[key] = avg
    g_avg = MatrixWeightedGraph(
        s.n, s.d, weights, label=f"integral[{w.start}:{w.end}]", eig_tol=s.eig_tol
    )
    return IntegralNetwork(duration=duration, graph=g_avg, doses=doses)


def state_transition_per_segment(s: SwitchingSchedule, w: Window) -> np.ndarray:
    """Product of one factor ``exp(-scale L dwell)`` per segment, newest first."""
    Phi = np.eye(s.n * s.d)
    for seg in _window_segments(s, w):
        lam, V = s.eig_of(seg.graph_id)
        factor = (V * np.exp(-seg.scale * seg.dwell * lam)) @ V.T
        Phi = factor @ Phi
    return Phi


def state_transition(s: SwitchingSchedule, w: Window) -> np.ndarray:
    """Window flow map ``Phi``: ``exp(-dose_r L_r)`` over runs of one graph, newest leftmost."""
    _check_window(s, w)
    Phi = None
    _, graphs, doses = s.runs(w.start, w.end)
    for k, dose in zip(graphs.tolist(), doses.tolist()):
        lam, V = s.eig_of(s.ids[k])
        factor = (V * np.exp(-dose * lam)) @ V.T
        Phi = factor if Phi is None else factor @ Phi
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


def simulate_exact_per_run(
    s: SwitchingSchedule, x0, horizon: float, sample_dt: float
) -> Trajectory:
    """Exact integration one maximal run of one graph at a time.

    Each run maps its start state to all of its samples with its own
    exponential block and product, restarting from the propagated state.
    """
    x = _validated_x0(s, x0)
    horizon = check_run(s, horizon, "exact", sample_dt)
    t_switch = s.switch_times()
    inside = t_switch[(t_switch > 0.0) & (t_switch < horizon)]
    grid = np.arange(int(_grid_count(horizon, sample_dt))) * sample_dt
    ts = np.unique(np.concatenate([grid, inside, [horizon]]))
    keep = np.ones(ts.size, dtype=bool)
    keep[1:] = np.diff(ts) > _DEDUP_TOL
    ts = ts[keep]

    K = _segments_reached(s, horizon)
    cum = np.concatenate(([0.0], np.cumsum(s.scale[:K] * s.dwell[:K])))
    first, graphs, doses = s.runs(0, K)
    s.decompose([s.ids[g] for g in np.unique(graphs).tolist()])
    states = np.empty((ts.size, x.size))
    idx = 0
    runs = zip(first.tolist(), [*first[1:].tolist(), K], graphs.tolist(), doses)
    with np.errstate(over="ignore"):  # a dose times eigenvalue past the float range decays to 0
        for k0, k1, g, dose in runs:
            # the last run takes every remaining sample, up to a horizon just past the end
            hi = ts.size if k1 == K else int(np.searchsorted(ts, t_switch[k1]))
            lam, V = s.eig_of(s.ids[g])
            y = V.T @ x
            if hi > idx:
                D = np.interp(ts[idx:hi], t_switch[k0 : k1 + 1], cum[k0 : k1 + 1] - cum[k0])
                decay = np.exp(-np.outer(lam, D))
                states[idx:hi] = (V @ (decay * y[:, None])).T
                if ts[idx] == t_switch[k0]:
                    states[idx] = x  # exact at the run start
                idx = hi
            x = V @ (np.exp(-dose * lam) * y)
    return Trajectory(times=ts, states=states, n=s.n, d=s.d)


def state_at(traj: Trajectory, t: float, tol: float = 1e-9) -> np.ndarray:
    """State at the sample instant nearest to ``t`` (within ``tol``)."""
    k = int(np.searchsorted(traj.times, t))
    best, err = None, np.inf
    for c in (k - 1, k):
        if 0 <= c < traj.times.size and abs(traj.times[c] - t) < err:
            best, err = c, abs(traj.times[c] - t)
    if best is None or err > tol:
        raise KeyError(f"no sample within {tol} of t = {t}")
    return traj.states[best]


def agent(traj: Trajectory, i: int) -> np.ndarray:
    """All samples of agent ``i``'s d-dimensional state, shape (S, d)."""
    if not 0 <= i < traj.n:
        raise DimensionMismatchError(f"agent index {i} out of range 0..{traj.n - 1}")
    return traj.states[:, i * traj.d : (i + 1) * traj.d]


def write_trajectory_csv_rows(traj: Trajectory, path) -> None:
    """``t, x_1_1, ..., x_n_d`` rows, each value formatted on its own with ``.17g``."""
    cols = [f"x_{i + 1}_{k + 1}" for i in range(traj.n) for k in range(traj.d)]
    lines = ["t," + ",".join(cols)]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv_savetxt(traj: Trajectory, path) -> None:
    """``t, x_1_1, ..., x_n_d`` rows, written by ``np.savetxt`` with ``%.17g``."""
    cols = [f"x_{i + 1}_{k + 1}" for i in range(traj.n) for k in range(traj.d)]
    np.savetxt(path, np.column_stack((traj.times, traj.states)), fmt="%.17g", delimiter=",",
               header="t," + ",".join(cols), comments="")


def parse_graph_per_edge(entry, n: int, d: int, eig_tol: float) -> tuple[str, MatrixWeightedGraph]:
    """A scenario file's graph entry as ``(id, graph)``, each edge parsed on its own."""
    entry = _as_object(entry, "graphs[]")
    gid = _need(entry, "id", "graphs[]")
    if not isinstance(gid, str) or not gid:
        raise ConfigValidationError(f"graph id must be a nonempty string, got {gid!r}", field="graphs[].id")
    edges = _need(entry, "edges", f"graph {gid!r}")
    if not isinstance(edges, list):
        raise ConfigValidationError(f"graph {gid!r}: edges must be a list", field="edges")
    weights = {}
    for e in edges:
        e = _as_object(e, f"graph {gid!r}: edges[]", "edges")
        i = _as_int(_need(e, "i", f"graph {gid!r} edge"), "edge i")
        j = _as_int(_need(e, "j", f"graph {gid!r} edge"), "edge j")
        w = _need(e, "weight", f"graph {gid!r} edge ({i},{j})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigValidationError(
                f"graph {gid!r}: edge ({i},{j}) outside node range 1..{n}", field="edges"
            )
        W = _as_array(w, f"graph {gid!r}: edge ({i},{j}) weight", "weight")
        if W.shape != (d, d):
            raise ConfigValidationError(
                f"graph {gid!r}: edge ({i},{j}) weight has shape {W.shape}, expected ({d},{d})",
                field="weight",
            )
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in weights:
            raise ConfigValidationError(f"graph {gid!r}: duplicate edge ({i},{j})", field="edges")
        weights[key] = W
    try:
        return gid, MatrixWeightedGraph(n, d, weights, label=gid, eig_tol=eig_tol)
    except ConsensusToolError as exc:
        raise ConfigValidationError(f"graph {gid!r}: {exc.describe(1)}", field="graphs") from exc


def projector(basis: NullSpaceBasis) -> np.ndarray:
    """Orthogonal projector ``sum_i eta_i eta_i^T`` onto the spanned subspace."""
    V = basis.vectors
    return V @ V.T


def mu_m_plus_1_svd(Phi: np.ndarray, m: int) -> float:
    """``sigma_{m+1}(Phi)^2`` from the singular values of the whole of ``Phi``."""
    if m < 0:
        raise IndexError(f"m must be >= 0, got {m}")
    if m >= Phi.shape[0]:
        raise IndexError(f"mu_{m + 1} undefined: order is {Phi.shape[0]}")
    sv = np.linalg.svd(Phi, compute_uv=False)
    return float(sv[m] ** 2)


def mu_budget(Phi: np.ndarray, m: int) -> float:
    """``beta = 2 N eps s1 lb``, how far a trimmed ``mu`` may lie below the full SVD's.

    ``s1`` is the largest row or column norm of ``Phi`` and ``lb`` the
    smallest singular value of its ``m + 1`` columns of largest norm.
    """
    N = Phi.shape[0]
    rows, cols = (Phi**2).sum(axis=1), (Phi**2).sum(axis=0)
    lb = np.linalg.svd(Phi[:, np.argsort(cols, kind="stable")[N - m - 1:]], compute_uv=False)[-1]
    return 2 * N * np.finfo(float).eps * np.sqrt(max(rows.max(), cols.max())) * lb


def certify_per_window(
    s: SwitchingSchedule, windows, *, ns_eq_tol: float = NS_EQ_TOL
) -> CertificationReport:
    """Integral network, null space and flow core of every window, computed afresh.

    Each window's null space comes from the package's restricted solve, so
    only the sharing of distinct window content differs from the package.
    """
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
    bases = [_window_null_space(s, net) for net in nets]
    max_dist = max((projector_distance(bases[0], b) for b in bases[1:]), default=0.0)
    equal = max_dist <= ns_eq_tol and len({b.dim for b in bases}) == 1
    m = bases[0].dim
    mus = tuple(mu_m_plus_1(flow_core(s, w), b.dim) for w, b in zip(ws, bases))
    q = max(mus)
    certified = bool(equal and q <= 1.0 - Q_MARGIN)
    balance = simultaneous_structural_balance([net.graph for net in nets])
    pn = all(has_positive_negative_spanning_tree(net.graph) for net in nets)
    return CertificationReport(
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


def window_null_space_eigh(s: SwitchingSchedule, net: IntegralNetwork) -> NullSpaceBasis:
    """Null space of ``L_w = sum_g (dose_g / T) L_g`` from its full ``eigh``.

    The threshold is the package's, ``eig_tol * max(1, B)`` with ``B = sum_g
    (dose_g / T) lam_max(L_g)`` clamped at the float maximum.
    """
    dosed = [(dose / net.duration, g) for g, dose in zip(s.ids, net.doses.tolist()) if dose]
    B = min(sum(w * float(s.eig_of(g)[0][-1]) for w, g in dosed), np.finfo(float).max)
    lam, V, thr = psd_eigh(sum(w * s.laplacian_of(g) for w, g in dosed), s.eig_tol, B)
    return NullSpaceBasis(vectors=V[:, lam <= thr], tol_used=thr)


def verify_necessary_condition(x_star: np.ndarray, laplacians) -> bool:
    """``||L x*|| <= NECESSARY_TOL (1 + ||L||) ||x*||`` for every L; ``||L||`` by ``eigvalsh``."""
    v = np.asarray(x_star, dtype=float).ravel()
    nv = float(np.linalg.norm(v))
    for L in laplacians:
        if v.size != L.shape[0]:
            raise DimensionMismatchError(f"state length {v.size} != order {L.shape[0]}")
        lam = np.linalg.eigvalsh(L)
        bound = NECESSARY_TOL * (1.0 + float(max(abs(lam[0]), abs(lam[-1])))) * nv
        if float(np.linalg.norm(L @ v)) > bound:
            return False
    return True


class NonOrthonormalPsiError(ConsensusToolError):
    """The per-agent basis passed to :func:`bipartite_steady_state` is not orthonormal."""


def bipartite_steady_state(b: Bipartition, psi: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Closed-form bipartite limit: gauge, average, project, gauge back.

    ``psi`` is a ``(d, r)`` matrix with orthonormal columns spanning the
    per-agent agreement subspace (identity for the full space).  The limit is
    ``x*_i = sigma_i Psi Psi^T mean_j(sigma_j x0_j)``: every agent lands on a
    common vector up to its partition sign.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim == 1:
        psi = psi[:, None]
    d, r = psi.shape
    gram = psi.T @ psi
    if np.abs(gram - np.eye(r)).max(initial=0.0) > ORTHO_TOL:
        raise NonOrthonormalPsiError("psi columns are not orthonormal")
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(b.sigma)
    if x0.size != n * d:
        raise DimensionMismatchError(f"state length {x0.size} != n*d = {n * d}")
    sigma = np.asarray(b.sigma, dtype=float)
    gauged = x0.reshape(n, d) * sigma[:, None]
    avg = gauged.mean(axis=0)
    common = psi @ (psi.T @ avg)
    return (sigma[:, None] * common[None, :]).ravel()
