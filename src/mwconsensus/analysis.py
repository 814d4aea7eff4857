"""Steady-state prediction and contraction-based certification.

The asymptotic state of the switched protocol lives in the common null space
of the active Laplacians.  This module computes that space (via the window
integral network), projects initial conditions onto it, classifies the
resulting agreement pattern (full / bipartite / clustered / decay to zero),
and certifies geometric convergence by bounding the relevant singular value
of each window's flow map, taken in the catalog eigenbases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPSDError,
    WindowsNotContiguousError,
)
from .graph import Bipartition, has_positive_negative_spanning_tree
from .matalg import EIG_TOL, NullSpaceBasis, null_space, projector, psd_eigh
from .switching import (
    IntegralNetwork,
    SwitchingSchedule,
    Window,
    _check_window,
    flow_core,
    integral_network,
    simultaneous_structural_balance,
)

NS_EQ_TOL = 1e-8
CLUSTER_TOL = 1e-6
Q_MARGIN = 1e-6
NECESSARY_TOL = 1e-6


class ConsensusKind(Enum):
    """Agreement pattern of a steady state."""

    ASYMPTOTIC_STABILITY = "asymptotic_stability"
    CONSENSUS = "consensus"
    BIPARTITE_CONSENSUS = "bipartite_consensus"
    CLUSTER_CONSENSUS = "cluster_consensus"


@dataclass(frozen=True)
class ConsensusPrediction:
    """Predicted limit ``x* = sum_i (eta_i . x0) eta_i`` and its agreement pattern."""

    steady_state: np.ndarray = field(repr=False)
    kind: ConsensusKind
    clusters: tuple[tuple[int, ...], ...]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def null_intersection(
    laplacians: Sequence[np.ndarray], eig_tol: float = EIG_TOL
) -> NullSpaceBasis:
    """Orthonormal basis of the intersection of the Laplacians' null spaces.

    For PSD matrices the intersection of null spaces equals the null space of
    the sum, so one eigendecomposition of ``sum L_i`` suffices.  Each summand
    is checked to be PSD first by :func:`psd_eigh` (the identity fails for
    sign-indefinite input).
    """
    if not laplacians:
        raise DimensionMismatchError("need at least one Laplacian")
    order = laplacians[0].shape[0]
    total = np.zeros((order, order))
    for L in laplacians:
        if L.shape != (order, order):
            raise DimensionMismatchError("Laplacians differ in order")
        psd_eigh(L, eig_tol)
        total += L
    return null_space(total, eig_tol)


def group_clusters(x: np.ndarray, n: int, d: int, cluster_tol: float = CLUSTER_TOL) -> tuple[tuple[int, ...], ...]:
    """Greedy grouping of agents whose d-blocks agree within tolerance.

    Agents are scanned in index order and attached to the first existing
    cluster whose representative block is within
    ``cluster_tol * max(1, max|x|)`` in the max norm.
    """
    blocks = np.asarray(x, dtype=float).reshape(n, d)
    thr = cluster_tol * max(1.0, float(np.abs(blocks).max(initial=0.0)))
    reps: list[np.ndarray] = []
    members: list[list[int]] = []
    for i in range(n):
        for c, rep in enumerate(reps):
            if np.abs(blocks[i] - rep).max(initial=0.0) <= thr:
                members[c].append(i)
                break
        else:
            reps.append(blocks[i])
            members.append([i])
    return tuple(tuple(m) for m in members)


def predict_steady_state(
    basis: NullSpaceBasis,
    x0: np.ndarray,
    n: int,
    d: int,
    cluster_tol: float = CLUSTER_TOL,
) -> ConsensusPrediction:
    """Project x0 onto the common null space and classify the agreement pattern.

    An empty basis predicts decay to the origin.  Otherwise agents are
    clustered by their predicted blocks: one cluster is full consensus, two
    clusters with opposite block values is bipartite consensus, anything else
    is cluster consensus.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != n * d:
        raise DimensionMismatchError(f"state length {x0.size} != n*d = {n * d}")
    V = basis.vectors
    if V.shape[0] != n * d:
        raise DimensionMismatchError(f"basis ambient dim {V.shape[0]} != n*d = {n * d}")
    x_star = V @ (V.T @ x0)
    if basis.dim == 0:
        return ConsensusPrediction(
            steady_state=x_star,
            kind=ConsensusKind.ASYMPTOTIC_STABILITY,
            clusters=(tuple(range(n)),),
        )
    clusters = group_clusters(x_star, n, d, cluster_tol)
    if len(clusters) == 1:
        kind = ConsensusKind.CONSENSUS
    elif len(clusters) == 2:
        blocks = x_star.reshape(n, d)
        a = blocks[clusters[0][0]]
        b = blocks[clusters[1][0]]
        thr = cluster_tol * max(1.0, float(np.abs(blocks).max(initial=0.0)))
        mirrored = bool(np.abs(a + b).max(initial=0.0) <= thr)
        kind = ConsensusKind.BIPARTITE_CONSENSUS if mirrored else ConsensusKind.CLUSTER_CONSENSUS
    else:
        kind = ConsensusKind.CLUSTER_CONSENSUS
    return ConsensusPrediction(steady_state=x_star, kind=kind, clusters=clusters)


def mu_m_plus_1(Phi: np.ndarray, m: int) -> float:
    """(m+1)-th largest eigenvalue of ``Phi^T Phi`` (squared singular value).

    ``m`` is the dimension of the subspace the flow map preserves; the
    returned value bounds the squared contraction factor on its orthogonal
    complement.  A flow core ``K`` with ``Phi = V K U^T``, ``V`` and ``U``
    orthogonal, gives the same value.
    """
    if m < 0:
        raise IndexError(f"m must be >= 0, got {m}")
    if m >= Phi.shape[0]:
        raise IndexError(f"mu_{m + 1} undefined: order is {Phi.shape[0]}")
    sv = np.linalg.svd(Phi, compute_uv=False)
    return float(sv[m] ** 2)


@dataclass(frozen=True)
class CertificationReport:
    """Everything :func:`certify_cluster_consensus` established about a schedule.

    ``certified`` means: window null spaces, taken with the schedule's
    ``eig_tol``, all agree (projector distance at most ``ns_eq_tol``) and
    every window's flow map contracts the complement with
    ``mu <= q_estimate <= 1 - Q_MARGIN``.  ``lam_max`` is each window's
    largest integral-Laplacian eigenvalue, its spectral norm, from the same
    eigendecomposition as its null space.  ``basis`` is the first window's
    null space.  ``balance`` and ``pn_spanning_tree`` describe the window
    integral graphs and are informational (they upgrade the interpretation to
    bipartite consensus when present, but do not gate certification).

    ``integral_networks``, ``mu`` and ``lam_max`` hold one entry per window.
    Windows with the same segment content share one integral graph and
    Laplacian; each entry still carries its own ``window``.
    """

    integral_networks: tuple[IntegralNetwork, ...] = field(repr=False)
    window_nullspaces_equal: bool
    max_projector_distance: float
    m: int
    mu: tuple[float, ...]
    lam_max: tuple[float, ...]
    q_estimate: float
    certified: bool
    basis: NullSpaceBasis = field(repr=False)
    balance: Bipartition | None
    pn_spanning_tree: bool


def certify_cluster_consensus(
    s: SwitchingSchedule, windows: Sequence[Window], *, ns_eq_tol: float = NS_EQ_TOL
) -> CertificationReport:
    """Certify geometric convergence to the common null space over the given windows.

    The windows must tile the schedule prefix contiguously.  For each window
    the integral-network null space (with ``s.eig_tol``, the tolerance that
    classified the window averages) and the singular values of its
    :func:`flow_core` are computed; certification requires all null spaces
    equal (as projectors) and ``max_l mu_{m+1}(Phi_l^T Phi_l) <= 1 - Q_MARGIN``.

    Windows whose ``graph``, ``dwell`` and ``scale`` slices are equal bit for
    bit have equal operators, so each distinct window is computed once and the
    structural diagnostics range over distinct windows only.  Only windows
    whose length another window shares are compared.
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
    lengths = Counter(w.end - w.start for w in ws)
    first: dict[object, int] = {}  # window content -> index of its first window
    src: list[int] = []  # index of the first window with window k's content
    nets: list[IntegralNetwork] = []
    for k, w in enumerate(ws):
        span = _check_window(s, w)
        key = k  # a window whose length no other window has is unique; skip its bytes
        if lengths[w.end - w.start] > 1:
            key = (s.graph[span].tobytes(), s.dwell[span].tobytes(), s.scale[span].tobytes())
        j = first.setdefault(key, k)
        src.append(j)
        nets.append(integral_network(s, w) if j == k else replace(nets[j], window=w))
    distinct = list(first.values())
    graphs = [nets[k].graph for k in distinct]
    bases, lam_max_of = [], {}
    # keep each window's null space and top eigenvalue, not all of its eigenvectors
    for k in distinct:
        try:
            lam, V, thr = psd_eigh(nets[k].laplacian, s.eig_tol)
        except NotPSDError as exc:
            # a Laplacian is PSD by construction: a too small eig_tol exposes eigh's roundoff
            w = ws[k]
            raise NotPSDError(f"window [{w.start}, {w.end}): integral Laplacian {exc}") from None
        bases.append(NullSpaceBasis(vectors=V[:, lam <= thr], tol_used=thr))
        lam_max_of[k] = float(lam[-1])
    projs = [projector(b) for b in bases]
    max_dist = 0.0
    for P in projs[1:]:
        max_dist = max(max_dist, float(np.linalg.norm(P - projs[0], "fro")))
    equal = max_dist <= ns_eq_tol and len({b.dim for b in bases}) == 1
    m = bases[0].dim
    mu_of = {k: mu_m_plus_1(flow_core(s, ws[k]), b.dim) for k, b in zip(distinct, bases)}
    q = max(mu_of.values())
    certified = bool(equal and q <= 1.0 - Q_MARGIN)
    balance = simultaneous_structural_balance(graphs)
    pn = all(has_positive_negative_spanning_tree(g) for g in graphs)
    return CertificationReport(
        integral_networks=tuple(nets),
        window_nullspaces_equal=equal,
        max_projector_distance=max_dist,
        m=m,
        mu=tuple(mu_of[j] for j in src),
        lam_max=tuple(lam_max_of[j] for j in src),
        q_estimate=float(q),
        certified=certified,
        basis=bases[0],
        balance=balance,
        pn_spanning_tree=pn,
    )


def verify_necessary_condition(
    x_star: np.ndarray, laplacians: Sequence[np.ndarray], lam_max: Sequence[float]
) -> bool:
    """Check that x* is annihilated by every Laplacian in the collection.

    ``lam_max`` holds each Laplacian's largest eigenvalue, its spectral norm
    (the Laplacians are PSD), as certification already computed it.  Uses the
    scale-aware criterion ``||L x*|| <= NECESSARY_TOL * (1 + ||L||) * ||x*||``
    so the answer does not depend on the overall magnitude of either factor.
    """
    v = np.asarray(x_star, dtype=float).ravel()
    nv = float(np.linalg.norm(v))
    for L, top in zip(laplacians, lam_max, strict=True):
        if v.size != L.shape[0]:
            raise DimensionMismatchError(f"state length {v.size} != order {L.shape[0]}")
        if float(np.linalg.norm(L @ v)) > NECESSARY_TOL * (1.0 + top) * nv:
            return False
    return True
