"""Seeded random instances shared by the property and acceptance tests."""

from __future__ import annotations

import numpy as np

from mwconsensus import MatrixWeightedGraph, Segment, SwitchingSchedule, Window
from mwconsensus.analysis import certify_cluster_consensus


def rand_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Q


def rand_sign_definite(
    rng: np.random.Generator, d: int, sign: int, singular: bool = False
) -> np.ndarray:
    """Well-conditioned sign-definite weight: sign * Q diag(lam) Q^T, lam in [0.5, 2]."""
    lam = rng.uniform(0.5, 2.0, size=d)
    if singular and d > 1:
        lam[rng.integers(0, d)] = 0.0
    Q = rand_orthogonal(rng, d)
    return float(sign) * (Q * lam) @ Q.T


def rand_pair_signs(rng: np.random.Generator, n: int) -> dict[tuple[int, int], int]:
    """One global sign per node pair, so any catalog built from it is sign-consistent."""
    return {
        (i, j): int(rng.choice((-1, 1)))
        for i in range(n)
        for j in range(i + 1, n)
    }


def rand_graph(
    rng: np.random.Generator,
    n: int,
    d: int,
    pair_signs: dict[tuple[int, int], int] | None = None,
    edge_prob: float = 0.6,
    allow_singular: bool = True,
) -> MatrixWeightedGraph:
    if pair_signs is None:
        pair_signs = rand_pair_signs(rng, n)
    weights = {}
    pairs = sorted(pair_signs)
    while not weights:
        for key in pairs:
            if rng.uniform() < edge_prob:
                singular = allow_singular and rng.uniform() < 0.3
                weights[key] = rand_sign_definite(rng, d, pair_signs[key], singular)
    return MatrixWeightedGraph(n, d, weights)


def random_connected_pd_graph(
    n: int, d: int, seed: int, extra_edges: int = 1
) -> MatrixWeightedGraph:
    """Random connected graph with positive-definite weights R R^T + 0.3 I.

    A random spanning path guarantees connectivity; ``extra_edges`` further
    random edges are added on top.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    keys: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        keys.add((min(int(a), int(b)), max(int(a), int(b))))
    while len(keys) < n - 1 + extra_edges:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            keys.add((min(a, b), max(a, b)))
    weights = {}
    for key in sorted(keys):
        R = rng.normal(size=(d, d))
        weights[key] = R @ R.T + 0.3 * np.eye(d)
    return MatrixWeightedGraph(n, d, weights, label=f"rand{seed}")


def rand_catalog(
    rng: np.random.Generator, n: int, d: int, count: int
) -> dict[str, MatrixWeightedGraph]:
    """Catalog sharing one pairwise sign assignment (sign-consistent by construction)."""
    signs = rand_pair_signs(rng, n)
    return {
        f"g{k}": rand_graph(rng, n, d, pair_signs=signs) for k in range(count)
    }


def rand_run_schedule(
    rng: np.random.Generator,
) -> tuple[SwitchingSchedule, np.ndarray, float, float]:
    """A schedule with repeated graphs and varied gains, plus a simulation setup.

    Consecutive segments repeat one graph of 2 to 5 in runs of 1 to 4, most scales are
    not 1, dwells vary, the horizon falls strictly inside a segment and the
    sample step divides no dwell.  Returns ``(schedule, x0, horizon, sample_dt)``.
    """
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    catalog = rand_catalog(rng, n, d, int(rng.integers(2, 6)))
    ids = sorted(catalog)
    segs = []
    for _ in range(int(rng.integers(2, 7))):
        gid = ids[int(rng.integers(0, len(ids)))]
        for _ in range(int(rng.integers(1, 5))):
            scale = 1.0 if rng.uniform() < 0.3 else float(rng.uniform(0.2, 3.0))
            segs.append(Segment(gid, float(rng.choice((0.5, 0.75, 1.0, 1.3))), scale))
    s = SwitchingSchedule.explicit(catalog, segs, alpha=0.5)
    t = s.switch_times()
    k = int(rng.integers(0, s.num_segments))
    horizon = float(t[k] + rng.uniform(0.1, 0.9) * (t[k + 1] - t[k]))
    sample_dt = float(rng.uniform(0.07, 0.6))
    x0 = rng.normal(size=n * d) * 10.0 ** rng.uniform(-2, 2)
    return s, x0, horizon, sample_dt


def rand_short_runs(rng: np.random.Generator) -> tuple[SwitchingSchedule, np.ndarray]:
    """Many short maximal runs over 2 to 4 graphs, each with 1 to 3 samples at ``sample_dt = 1``.

    A run is one segment of dwell 0.5 to 2.5 or two of 0.5; consecutive runs
    are on different graphs, and most scales are not 1.  Returns
    ``(schedule, x0)``.
    """
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    catalog = rand_catalog(rng, n, d, int(rng.integers(2, 5)))
    ids = sorted(catalog)
    segs, prev = [], None
    for _ in range(int(rng.integers(10, 60))):
        gid = ids[int(rng.choice([k for k in range(len(ids)) if ids[k] != prev]))]
        dwells = [0.5, 0.5] if rng.uniform() < 0.3 else [float(rng.choice((0.5, 1.0, 1.5, 2.0, 2.5)))]
        for dwell in dwells:
            scale = 1.0 if rng.uniform() < 0.3 else float(rng.uniform(0.2, 3.0))
            segs.append(Segment(gid, dwell, scale))
        prev = gid
    x0 = rng.normal(size=n * d) * 10.0 ** rng.uniform(-2, 2)
    return SwitchingSchedule.explicit(catalog, segs, alpha=0.5), x0


def rand_windows(rng: np.random.Generator, num_segments: int) -> list[Window]:
    """Contiguous windows of 1 to 6 segments tiling the whole schedule."""
    out, start = [], 0
    while start < num_segments:
        end = min(start + int(rng.integers(1, 7)), num_segments)
        out.append(Window(start, end))
        start = end
    return out


def rand_certified_schedule(
    rng: np.random.Generator, max_attempts: int = 200
) -> tuple[SwitchingSchedule, list[Window], object]:
    """Draw periodic schedules until one certifies; returns (schedule, windows, report)."""
    for _ in range(max_attempts):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        count = int(rng.integers(2, 4))
        catalog = rand_catalog(rng, n, d, count)
        pattern = [
            Segment(gid, float(rng.choice((0.5, 1.0, 1.5)))) for gid in sorted(catalog)
        ]
        reps = 3
        schedule = SwitchingSchedule.periodic(catalog, pattern, reps, alpha=0.5)
        # windows are segment-index ranges: one window per period
        windows = [Window(k * len(pattern), (k + 1) * len(pattern)) for k in range(reps)]
        try:
            report = certify_cluster_consensus(schedule, windows)
        except Exception:
            continue
        if report.certified:
            return schedule, windows, report
    raise AssertionError("no certified schedule found; generator parameters need review")


def stacked_null_projector(mats: list[np.ndarray], tol: float = 1e-8) -> np.ndarray:
    """Independent oracle for the intersection of null spaces: SVD of the stack."""
    S = np.vstack(mats)
    _, sv, vt = np.linalg.svd(S)
    thr = tol * max(1.0, float(sv.max(initial=0.0)))
    null_dim = int((sv <= thr).sum()) + (S.shape[1] - sv.size)
    if null_dim == 0:
        k = S.shape[1]
        return np.zeros((k, k))
    V = vt[-null_dim:].T
    return V @ V.T


def many_graph_doc(seed: int, window: int, n: int = 100, d: int = 3, graphs: int = 30,
                   segments: int = 400) -> dict:
    """Scenario document of a many-graph catalog, the shape whose memory grows with the catalog.

    ``graphs`` connected graphs of ``2 n - 1`` positive-definite edges each (a
    random spanning path and ``n`` random edges more), ``segments`` unit-dwell
    segments whose graph changes at every segment, and uniform windows of
    ``window`` segments.  The same seed gives the same document.
    """
    rng = np.random.default_rng(seed)
    catalog = []
    for g in range(graphs):
        order = rng.permutation(n).tolist()
        keys = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
        while len(keys) < 2 * n - 1:
            a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
            keys.add((a, b))
        edges = []
        for i, j in sorted(keys):
            R = rng.normal(size=(d, d))
            edges.append({"i": i + 1, "j": j + 1, "weight": (R @ R.T + 0.3 * np.eye(d)).tolist()})
        catalog.append({"id": f"G{g + 1}", "edges": edges})
    sequence = [int(rng.integers(graphs))]
    for _ in range(segments - 1):  # any graph but the one before
        sequence.append((sequence[-1] + 1 + int(rng.integers(graphs - 1))) % graphs)
    return {
        "dimension": d,
        "num_agents": n,
        "graphs": catalog,
        "schedule": {"type": "explicit", "alpha": 1.0,
                     "segments": [{"graph": f"G{g + 1}", "dwell": 1.0} for g in sequence]},
        "initial_state": rng.uniform(0.0, 1.0, size=n * d).tolist(),
        "windows": {"type": "uniform", "segments": window},
        "solver": {"method": "exact", "sample_dt": 1.0},
    }


def bridge_doc(s: float, n: int = 40, d: int = 3, seed: int = 0) -> dict:
    """Scenario document of a weak bridge: two definite components joined by one PD edge.

    ``G1`` is two halves of ``n / 2`` agents, each connected by a random
    spanning path and ``n / 2`` random edges more, all positive definite;
    ``G2`` is the one edge, weighted by the identity, between the halves'
    first agents.  The schedule is one window, ``G1`` for a dwell of 1 and
    then ``G2`` for 1 at scale ``s``.  The same arguments give the same document.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = []
    for base in (0, half):
        order = (base + rng.permutation(half)).tolist()
        keys = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
        while len(keys) < 2 * half - 1:
            a, b = sorted((base + rng.choice(half, size=2, replace=False)).tolist())
            keys.add((a, b))
        for i, j in sorted(keys):
            R = rng.normal(size=(d, d))
            edges.append({"i": i + 1, "j": j + 1, "weight": (R @ R.T + 0.3 * np.eye(d)).tolist()})
    bridge = [{"i": 1, "j": half + 1, "weight": np.eye(d).tolist()}]
    return {
        "dimension": d,
        "num_agents": n,
        "graphs": [{"id": "G1", "edges": edges}, {"id": "G2", "edges": bridge}],
        "schedule": {"type": "explicit", "alpha": 1.0,
                     "segments": [{"graph": "G1", "dwell": 1.0},
                                  {"graph": "G2", "dwell": 1.0, "scale": s}]},
        "initial_state": rng.uniform(-1.0, 1.0, size=n * d).tolist(),
        "windows": "whole",
    }


def not_psd_star_doc(segments: str) -> dict:
    """Scenario document with a star whose Laplacian is not PSD, though each of its edges is.

    n = 5, d = 3.  ``P`` is a path weighted by the identity; ``S`` and ``T``
    are both the star from agent 1, its leaf weights alternating ``diag(1, 0,
    -0.9e-9)`` and ``diag(0, 1, -0.9e-9)``.  At the default ``eig_tol`` of
    1e-9 every edge classifies as PSD, so the file loads and passes ``check``,
    but the star's Laplacian has ``lam_min = -4.5e-9``, below ``-3e-9``, the
    threshold at its ``lam_max = 3``.  ``segments`` names the graph of each
    unit segment in turn; the catalog order is P, S, T.
    """
    leaves = [np.diag([1.0, 0.0, -0.9e-9]), np.diag([0.0, 1.0, -0.9e-9])]
    star = [{"i": 1, "j": j, "weight": leaves[j % 2].tolist()} for j in range(2, 6)]
    path = [{"i": i, "j": i + 1, "weight": np.eye(3).tolist()} for i in range(1, 5)]
    return {
        "dimension": 3,
        "num_agents": 5,
        "graphs": [{"id": "P", "edges": path}, {"id": "S", "edges": star},
                   {"id": "T", "edges": star}],
        "schedule": {"type": "explicit", "alpha": 1.0,
                     "segments": [{"graph": g, "dwell": 1.0} for g in segments]},
        "initial_state": np.linspace(-1.0, 1.0, 15).tolist(),
        "windows": "whole",
        "solver": {"method": "exact", "sample_dt": 1.0},
    }
