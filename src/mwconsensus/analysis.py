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
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPSDError,
    WindowsNotContiguousError,
)
from .graph import Bipartition, _edge_structure, has_positive_negative_spanning_tree
from .matalg import (
    EIG_TOL,
    NullSpaceBasis,
    Tolerances,
    _map_lapack,
    check_symmetric,
    null_space,
    null_space_of_sum,
    projector_distance,
    psd_eigh,
)
from .switching import (
    IntegralNetwork,
    SwitchingSchedule,
    Window,
    _check_window,
    flow_core,
    integral_network,
    simultaneous_structural_balance,
)

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
    the sum, which :func:`null_space_of_sum` solves from the summands.  Each
    summand is checked to be symmetric by :func:`check_symmetric` and PSD by
    :func:`psd_eigh` first (the identity fails for sign-indefinite input).
    """
    if not laplacians:
        raise DimensionMismatchError("need at least one Laplacian")
    if len({np.shape(L) for L in laplacians}) > 1:
        raise DimensionMismatchError("Laplacians differ in order")
    parts = [(1.0, L, *psd_eigh(L, eig_tol)[:2]) for L in map(check_symmetric, laplacians)]
    return null_space_of_sum(parts, eig_tol)


def group_clusters(
    x: np.ndarray, n: int, d: int, *, tol: Tolerances = Tolerances()
) -> tuple[tuple[int, ...], ...]:
    """Greedy grouping of agents whose d-blocks agree within tolerance.

    Agents are scanned in index order and attached to the first existing
    cluster whose representative block is within
    ``tol.cluster_tol * max(1, max|x|)`` in the max norm.
    """
    blocks = np.asarray(x, dtype=float).reshape(n, d)
    thr = tol.cluster_tol * max(1.0, float(np.abs(blocks).max(initial=0.0)))
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
    *,
    tol: Tolerances = Tolerances(),
) -> ConsensusPrediction:
    """Project x0 onto the common null space and classify the agreement pattern.

    An empty basis predicts decay to the origin.  Otherwise agents are
    clustered by their predicted blocks: one cluster is full consensus, two
    clusters with opposite block values is bipartite consensus, anything else
    is cluster consensus.  Blocks agree, or mirror each other, within
    ``tol.cluster_tol``, as :func:`group_clusters` takes it.
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
    clusters = group_clusters(x_star, n, d, tol=tol)
    kind = ConsensusKind.CONSENSUS if len(clusters) == 1 else ConsensusKind.CLUSTER_CONSENSUS
    if len(clusters) == 2:
        blocks = x_star.reshape(n, d)
        thr = tol.cluster_tol * max(1.0, float(np.abs(blocks).max(initial=0.0)))
        if np.abs(blocks[clusters[0][0]] + blocks[clusters[1][0]]).max(initial=0.0) <= thr:
            kind = ConsensusKind.BIPARTITE_CONSENSUS
    return ConsensusPrediction(steady_state=x_star, kind=kind, clusters=clusters)


def _trim(K: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """A core's rows and columns in ascending norm, and how many of each its budget keeps."""
    if m < 0:
        raise IndexError(f"m must be >= 0, got {m}")
    order = K.shape[0]
    if m >= order:
        raise IndexError(f"mu_{m + 1} undefined: order is {order}")
    rows = np.einsum("ij,ij->i", K, K)
    cols = np.einsum("ij,ij->j", K, K)
    ro, co = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
    free = order - m - 1  # how many rows, or columns, may go
    lb = np.linalg.svd(K[:, co[free:]], compute_uv=False)[-1]
    half_beta = order * np.finfo(float).eps * np.sqrt(max(rows[ro[-1]], cols[co[-1]])) * lb
    dr = min(np.count_nonzero(rows[ro].cumsum() <= half_beta), free)
    dc = min(np.count_nonzero(cols[co].cumsum() <= half_beta), free)
    return ro, co, order - dr, order - dc


def mu_m_plus_1(Phi, m):
    """(m+1)-th largest eigenvalue of ``Phi^T Phi`` (squared singular value).

    ``m`` is the dimension of the subspace the flow map preserves; the
    returned value bounds the squared contraction factor on its orthogonal
    complement.  A flow core ``K`` with ``Phi = V K U^T``, ``V`` and ``U``
    orthogonal, gives the same value.  ``Phi`` may also be a stack, or any
    iterable, of cores of one order with one ``m`` each; then a list of
    values comes back, in that order.  A core that only the iterable held is
    let go before the ``svd``.

    The SVD is of ``Phi`` without its smallest rows, then columns, whose
    squared norms sum to at most ``beta / 2``, keeping the ``m + 1`` largest
    of each.  Deletion only lowers singular values and Weyl's inequality
    bounds the loss, so the result ``mu'`` has ``mu' <= mu <= mu' + beta``,
    with ``beta = 2 N eps s1 lb <= 2 N eps sigma_1 sigma_{m+1}``, the full
    SVD's own forward error on ``mu``: ``N`` is the order, ``s1`` the largest
    row or column norm and ``lb`` the smallest singular value of the ``m + 1``
    columns of largest norm.  A diagonal ``Phi`` keeps its ``m + 1`` largest
    entries, so its ``mu`` is exact.  The cores of a stack keep the most rows,
    and the most columns, that any of them keeps: each its own largest,
    which deletes less than its budget, so one ``svd`` call takes them all.
    """
    single = isinstance(Phi, np.ndarray) and Phi.ndim == 2
    cores, ms = ([Phi], [m]) if single else (list(Phi), list(m))
    kept = [_trim(K, mk) for K, mk in zip(cores, ms, strict=True)]
    R, C = max(k[2] for k in kept), max(k[3] for k in kept)
    trimmed = np.empty((len(kept), R, C))
    for out, (ro, co, _, _) in zip(trimmed, kept):
        cores.pop(0).take(np.sort(ro[-R:]), 0).take(np.sort(co[-C:]), 1, out=out)
    sv = np.linalg.svd(trimmed, compute_uv=False)
    mus = [float(s[mk] ** 2) for s, mk in zip(sv, ms)]
    return mus[0] if single else mus


@dataclass(frozen=True)
class CertificationReport:
    """Everything :func:`certify_cluster_consensus` established about a schedule.

    ``certified`` means: window null spaces, taken with the schedule's
    ``eig_tol``, all agree (projector distance at most ``tol.ns_eq_tol``) and
    every window's flow map contracts the complement with
    ``mu <= q_estimate <= 1 - Q_MARGIN``.  ``basis`` is the first window's
    null space.  ``balance`` and ``pn_spanning_tree`` describe the window
    integral graphs and are informational (they upgrade the interpretation to
    bipartite consensus when present, but do not gate certification).

    ``integral_networks`` and ``mu`` hold one entry per window.
    Windows with the same segment content share one :class:`IntegralNetwork`
    object.
    """

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


def _window_null_space(s: SwitchingSchedule, net: IntegralNetwork) -> NullSpaceBasis:
    """Null space of a window's integral Laplacian ``L_w = sum_g dose_g L_g / T``.

    :func:`null_space_of_sum` solves it from the cached catalog Laplacians
    and their eigendecompositions.
    """
    parts = [(dose / net.duration, s.laplacian_of(g), *s.eig_of(g))
             for g, dose in zip(s.ids, net.doses.tolist()) if dose]
    if not parts:  # every scale * dwell underflowed, so L_w = 0
        return null_space(np.zeros((s.n * s.d,) * 2), s.eig_tol)
    try:
        return null_space_of_sum(parts, s.eig_tol)
    except NotPSDError as exc:
        raise NotPSDError(f"integral Laplacian {exc}") from None


def certify_cluster_consensus(
    s: SwitchingSchedule, windows: Sequence[Window], *, tol: Tolerances = Tolerances()
) -> CertificationReport:
    """Certify geometric convergence to the common null space over the given windows.

    The windows must tile the schedule prefix contiguously.  For each window
    the integral-network null space (with ``s.eig_tol``, the tolerance that
    classified the window averages, solved inside a catalog null space) and
    the singular values of its :func:`flow_core` are computed; certification
    requires all null spaces equal (as projectors, within ``tol.ns_eq_tol``) and
    ``max_l mu_{m+1}(Phi_l^T Phi_l) <= 1 - Q_MARGIN``.  A window whose null
    space is the whole space has no complement to contract and records ``mu = 0``.

    Windows whose ``graph``, ``dwell`` and ``scale`` slices are equal bit for
    bit have equal operators, so each distinct window is computed once and
    its windows share one :class:`IntegralNetwork` object.  One dict finds
    them: a window whose length no other window has is keyed by its position,
    any other by the bytes of its three slices.  The structural
    diagnostics read only an integral graph's edges and their classes, so
    they range over distinct edge structures only: windows that dose the
    same graphs for different times count once.

    The graphs the windows run are decomposed together, by
    :meth:`SwitchingSchedule.decompose`.  Then every null space is solved,
    window by window, and then every ``mu``: the distinct windows that need
    one go in pairs, consecutive in order, whose two cores
    :func:`mu_m_plus_1` trims alike and takes in one stacked ``svd``, and the
    pairs run at the same time through :func:`matalg._map_lapack`, each with
    its own dict of :func:`flow_core` couplings.  An error is that of the
    first window, in that order, to raise it.
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
    # a window is keyed by its position when no other window has its length, else by its
    # content: positive dwells and scales are equal exactly when their bits are
    lengths = Counter(w.end - w.start for w in ws)
    first: dict[object, int] = {}  # a key's first window
    src: list[int] = []  # index of the first window with window k's content
    nets: list[IntegralNetwork] = []
    for k, w in enumerate(ws):
        span = _check_window(s, w)
        key = k if lengths[w.end - w.start] == 1 else tuple(
            a[span].tobytes() for a in (s.graph, s.dwell, s.scale))
        j = first.setdefault(key, k)
        src.append(j)
        nets.append(integral_network(s, w) if j == k else nets[j])
    distinct = list(first.values())
    order = s.n * s.d
    # every graph the windows run, a dose that underflowed to 0 too: the pool's workers only read
    s.decompose([s.ids[g] for g in np.flatnonzero(np.bincount(s.graph[:ws[-1].end])).tolist()])
    bases = []
    for k in distinct:
        try:
            bases.append(_window_null_space(s, nets[k]))
        except NotPSDError as exc:
            w = ws[k]
            raise NotPSDError(f"window [{w.start}, {w.end}): {exc}") from None
    max_dist = max((projector_distance(bases[0], b) for b in bases[1:]), default=0.0)
    equal = max_dist <= tol.ns_eq_tol and len({b.dim for b in bases}) == 1
    m = bases[0].dim
    need = [(k, b.dim) for k, b in zip(distinct, bases) if b.dim < order]
    # consecutive windows in pairs: one stacked svd of two cores releases the interpreter
    # lock where one of a single core's few hundred values keeps it
    pairs = [need[i:i + 2] for i in range(0, len(need), 2)]

    def pair_mu(pair):  # the two windows form each coupling they both cross once
        couplings = {}
        cores = (flow_core(s, ws[k], couplings=couplings) for k, _ in pair)
        return mu_m_plus_1(cores, [dim for _, dim in pair])
    mus = _map_lapack(pair_mu, pairs, order)
    # a window whose null space is the whole space contracts nothing, so vacuously
    mu_of = dict.fromkeys(distinct, 0.0) | dict(zip((k for k, _ in need), sum(mus, [])))
    q = max(mu_of.values())
    certified = bool(equal and q <= 1.0 - Q_MARGIN)
    # the structural diagnostics read only the edges and their classes
    graphs = list({_edge_structure(nets[k].graph): nets[k].graph for k in distinct}.values())
    balance = simultaneous_structural_balance(graphs)
    pn = all(has_positive_negative_spanning_tree(g) for g in graphs)
    return CertificationReport(
        integral_networks=tuple(nets),
        window_nullspaces_equal=equal,
        max_projector_distance=max_dist,
        m=m,
        mu=tuple(mu_of[j] for j in src),
        q_estimate=float(q),
        certified=certified,
        basis=bases[0],
        balance=balance,
        pn_spanning_tree=pn,
    )


def verify_necessary_condition(
    x_star: np.ndarray, s: SwitchingSchedule, nets: Sequence[IntegralNetwork]
) -> bool:
    """Check that x* is annihilated by the catalog Laplacian of every graph the windows dose.

    ``nets`` are the windows' integral networks, as certification returns them.
    This is the paper's necessary condition: a limit lies in the null space
    of every switching Laplacian.  Uses the scale-aware criterion
    ``||L x*|| <= NECESSARY_TOL * (1 + ||L||) * ||x*||``, so the answer does
    not depend on the overall magnitude of either factor; ``||L||`` is the
    largest eigenvalue of the schedule's cached eigendecomposition.
    """
    v = np.asarray(x_star, dtype=float).ravel()
    if v.size != s.n * s.d:
        raise DimensionMismatchError(f"state length {v.size} != order {s.n * s.d}")
    nv = float(np.linalg.norm(v))
    used = np.zeros(len(s.ids), dtype=bool)
    for doses in {id(net): net.doses for net in nets}.values():  # windows share networks
        used |= doses > 0
    for k in np.flatnonzero(used).tolist():
        top = float(s.eig_of(s.ids[k])[0][-1])
        if float(np.linalg.norm(s.laplacian_of(s.ids[k]) @ v)) > NECESSARY_TOL * (1.0 + top) * nv:
            return False
    return True
