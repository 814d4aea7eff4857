"""Steady-state prediction and contraction-based certification.

The asymptotic state of the switched protocol lives in the common null space
of the active Laplacians.  This module computes that space (via the window
integral network), projects initial conditions onto it, classifies the
resulting agreement pattern (full / bipartite / clustered / decay to zero),
and certifies geometric convergence by bounding the relevant singular value
of each window's flow map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonOrthonormalPsiError,
    NotPSDError,
    WindowsNotContiguousError,
)
from .graph import Bipartition, BlockLaplacian, has_positive_negative_spanning_tree
from .matalg import NullSpaceBasis, null_space, projector
from .switching import (
    IntegralNetwork,
    StateTransition,
    SwitchingSchedule,
    Window,
    integral_network,
    simultaneous_structural_balance,
    state_transition,
)

NS_EQ_TOL = 1e-8
CLUSTER_TOL = 1e-6
Q_MARGIN = 1e-6


class ConsensusKind(Enum):
    """Agreement pattern of a steady state."""

    ASYMPTOTIC_STABILITY = "asymptotic_stability"
    CONSENSUS = "consensus"
    BIPARTITE_CONSENSUS = "bipartite_consensus"
    CLUSTER_CONSENSUS = "cluster_consensus"


@dataclass(frozen=True)
class ConsensusPrediction:
    """Predicted limit ``x* = sum_i (eta_i . x0) eta_i`` and its agreement pattern."""

    basis: NullSpaceBasis
    steady_state: np.ndarray = field(repr=False)
    kind: ConsensusKind
    clusters: tuple[tuple[int, ...], ...]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def null_intersection(
    laplacians: Sequence[BlockLaplacian], eig_tol: float = 1e-9
) -> NullSpaceBasis:
    """Orthonormal basis of the intersection of the Laplacians' null spaces.

    For PSD matrices the intersection of null spaces equals the null space of
    the sum, so one eigendecomposition of ``sum L_i`` suffices.  Each summand
    is checked to be PSD first (the identity fails for sign-indefinite input).
    """
    if not laplacians:
        raise DimensionMismatchError("need at least one Laplacian")
    order = laplacians[0].order
    total = np.zeros((order, order))
    for L in laplacians:
        if L.order != order:
            raise DimensionMismatchError("Laplacians differ in order")
        lam = np.linalg.eigvalsh(L.matrix)
        if lam[0] < -eig_tol * max(1.0, abs(lam[0]), abs(lam[-1])):
            raise NotPSDError(f"summand has eigenvalue {lam[0]:.3e} < 0")
        total += L.matrix
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
    if basis.ambient_dim != n * d:
        raise DimensionMismatchError(
            f"basis ambient dim {basis.ambient_dim} != n*d = {n * d}"
        )
    V = basis.vectors
    x_star = V @ (V.T @ x0)
    if basis.dim == 0:
        return ConsensusPrediction(
            basis=basis,
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
    return ConsensusPrediction(basis=basis, steady_state=x_star, kind=kind, clusters=clusters)


def mu_m_plus_1(phi: StateTransition, m: int) -> float:
    """(m+1)-th largest eigenvalue of ``Phi^T Phi`` (squared singular value).

    ``m`` is the dimension of the subspace the flow map preserves; the
    returned value bounds the squared contraction factor on its orthogonal
    complement.
    """
    if m < 0:
        raise IndexError(f"m must be >= 0, got {m}")
    if m >= phi.order:
        raise IndexError(f"mu_{m + 1} undefined: order is {phi.order}")
    sv = np.linalg.svd(phi.matrix, compute_uv=False)
    return float(sv[m] ** 2)


@dataclass(frozen=True)
class CertificationReport:
    """Everything :func:`certify_cluster_consensus` established about a schedule.

    ``certified`` means: window null spaces all agree (projector distance at
    most ``ns_eq_tol``) and every window's flow map contracts the complement
    with ``mu <= q_estimate <= 1 - q_margin``.  ``balance`` and
    ``pn_spanning_tree`` describe the window integral graphs and are
    informational (they upgrade the interpretation to bipartite consensus when
    present, but do not gate certification).
    """

    windows: tuple[Window, ...]
    integral_networks: tuple[IntegralNetwork, ...] = field(repr=False)
    window_nullspaces_equal: bool
    max_projector_distance: float
    m: int
    mu: tuple[float, ...]
    q_estimate: float
    certified: bool
    basis: NullSpaceBasis = field(repr=False)
    balance: Bipartition | None
    pn_spanning_tree: bool


def certify_cluster_consensus(
    s: SwitchingSchedule,
    windows: Sequence[Window],
    eig_tol: float = 1e-9,
    ns_eq_tol: float = NS_EQ_TOL,
    q_margin: float = Q_MARGIN,
) -> CertificationReport:
    """Certify geometric convergence to the common null space over the given windows.

    The windows must tile the schedule prefix contiguously.  For each window
    the integral-network null space and the flow-map singular values are
    computed; certification requires all null spaces equal (as projectors)
    and ``max_l mu_{m+1}(Phi_l^T Phi_l) <= 1 - q_margin``.
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
    bases = [null_space(net.laplacian.matrix, eig_tol) for net in nets]
    projs = [projector(b) for b in bases]
    max_dist = 0.0
    for P in projs[1:]:
        max_dist = max(max_dist, float(np.linalg.norm(P - projs[0], "fro")))
    equal = max_dist <= ns_eq_tol and len({b.dim for b in bases}) == 1
    m = bases[0].dim
    mus = tuple(mu_m_plus_1(state_transition(s, w), b.dim) for w, b in zip(ws, bases))
    q = max(mus)
    certified = bool(equal and q <= 1.0 - q_margin)
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
    if np.abs(gram - np.eye(r)).max(initial=0.0) > 1e-10:
        raise NonOrthonormalPsiError("psi columns are not orthonormal")
    x0 = np.asarray(x0, dtype=float).ravel()
    n = b.n
    if x0.size != n * d:
        raise DimensionMismatchError(f"state length {x0.size} != n*d = {n * d}")
    sigma = np.asarray(b.sigma, dtype=float)
    gauged = x0.reshape(n, d) * sigma[:, None]
    avg = gauged.mean(axis=0)
    common = psi @ (psi.T @ avg)
    return (sigma[:, None] * common[None, :]).ravel()


def verify_necessary_condition(
    x_star: np.ndarray, laplacians: Sequence[BlockLaplacian], tol: float = 1e-6
) -> bool:
    """Check that x* is annihilated by every Laplacian in the collection.

    Uses the scale-aware criterion ``||L x*|| <= tol * (1 + ||L||) * ||x*||``
    so the answer does not depend on the overall magnitude of either factor.
    """
    v = np.asarray(x_star, dtype=float).ravel()
    nv = float(np.linalg.norm(v))
    for L in laplacians:
        if v.size != L.order:
            raise DimensionMismatchError(f"state length {v.size} != order {L.order}")
        bound = tol * (1.0 + L.spectral_norm()) * nv
        if float(np.linalg.norm(L.matrix @ v)) > bound:
            return False
    return True
