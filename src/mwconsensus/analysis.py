"""Steady-state prediction and contraction-based certification.

The asymptotic state of the switched protocol lives in the common null space
of the active Laplacians.  This module computes that space (via the window
integral network), projects initial conditions onto it, classifies the
resulting agreement pattern (full / bipartite / clustered / decay to zero),
and certifies geometric convergence by bounding the relevant singular value
of each window's flow map, taken in the catalog eigenbases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .config import _check_matrices
from .errors import DimensionMismatchError, WindowsNotContiguousError
from .graph import Bipartition, MatrixWeightedGraph, _edge_structure, has_positive_negative_spanning_tree
from .matalg import (
    EIG_TOL,
    NullSpaceBasis,
    Tolerances,
    _map_lapack,
    _pool_size,
    _zero_threshold,
    check_symmetric,
    null_space,
    projector_distance,
    psd_eigh,
)
from .switching import (
    IntegralNetwork,
    SwitchingSchedule,
    Window,
    _crossings,
    _window_sources,
    flow_core,
    integral_network,
    simultaneous_structural_balance,
    spectra,
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

    For PSD matrices it is the :func:`null_space` of their sum, each divided by its own
    ``lam_max``: no summand's scale hides another's directions, and ``tol_used`` is
    dimensionless.  Each summand is checked symmetric by :func:`check_symmetric` and PSD by
    :func:`psd_eigh` first (the identity fails for sign-indefinite input); a zero one adds nothing.
    """
    if not laplacians:
        raise DimensionMismatchError("need at least one Laplacian")
    if len({np.shape(L) for L in laplacians}) > 1:
        raise DimensionMismatchError("Laplacians differ in order")
    mats = [check_symmetric(L) for L in laplacians]
    lam_max = [float(psd_eigh(L, eig_tol)[0].max(initial=0.0)) for L in mats]
    return null_space(sum((L / c for L, c in zip(mats, lam_max) if c), 0.0 * mats[0]), eig_tol)


def _cluster_thr(blocks: np.ndarray, tol: Tolerances) -> float:
    """Within what max-norm distance two blocks agree: ``tol.cluster_tol * max|x|``."""
    return tol.cluster_tol * float(np.abs(blocks).max(initial=0.0))


def group_clusters(
    x: np.ndarray, n: int, d: int, *, tol: Tolerances = Tolerances()
) -> tuple[tuple[int, ...], ...]:
    """Greedy grouping of agents whose d-blocks agree within tolerance.

    Agents are scanned in index order and attached to the first existing
    cluster whose representative block is within :func:`_cluster_thr` in the
    max norm, so ``x`` and its positive multiples group alike.
    """
    blocks = np.asarray(x, dtype=float).reshape(n, d)
    thr = _cluster_thr(blocks, tol)
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
    ``tol.cluster_tol * max|x*|``, as :func:`group_clusters` takes it.
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
        if np.abs(blocks[clusters[0][0]] + blocks[clusters[1][0]]).max() <= _cluster_thr(blocks, tol):
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

    ``integral_networks``, ``mu`` and ``edge_list`` hold one entry per window.
    Windows with the same segment content share one :class:`IntegralNetwork`
    object.  ``edge_structures`` holds one integral graph per distinct edge
    structure, in order of first use, and ``edge_list`` each window's position
    in it.  ``spectra`` holds the :func:`switching.spectra` of every graph the
    windows run, by catalog position, for as long as the report is kept.
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
    edge_structures: tuple[MatrixWeightedGraph, ...] = field(repr=False)
    edge_list: tuple[int, ...]
    spectra: dict[int, tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False)


def _window_null_space(s: SwitchingSchedule, net: IntegralNetwork, skeleton) -> NullSpaceBasis:
    """Null space of a window's integral Laplacian ``L_w``, that of ``net.graph``.

    ``x^T L_w x`` sums ``(x_i - s_e x_j)^T |A_e| (x_i - s_e x_j)``, so ``x`` is null
    exactly when every ``x_i - s_e x_j`` is orthogonal to ``range(A_e)``, whatever the
    doses.  A definite edge forces ``x_i = s_e x_j``: a component of the definite-edge
    ``skeleton``, the ``_skeleton`` of any graph with ``net.graph``'s edge structure, with
    an odd negative cycle to 0, any other ``C`` to ``x_i = sigma_i y_C / sqrt(|C|)``, ``x
    = S y``.  The null space is ``S null(Q)``, the PSD quotient ``Q`` of order ``c d``
    assembled from the range projectors of the edges it holds, each ranked by
    ``matalg``'s edge-rank rule, and each cross term into both of its blocks in edge
    order, so that it is exactly symmetric; zero is :func:`psd_eigh`'s on ``Q`` itself.
    """
    g = net.graph
    root, sigma, odd = skeleton
    root = np.array(root)
    kept = root == np.arange(g.n)  # the roots of the components kept
    kept[list(odd)] = False
    c, held = int(kept.sum()), kept[root]
    comp = np.where(held, np.cumsum(kept)[root] - 1, -1)  # each node's kept component
    coef = np.where(held, np.array(sigma) / np.sqrt(np.bincount(root)[root]), 0.0)
    # x_i - s_e x_j = a y_p + b y_q; in one component a takes a + b, 0 if the edge agrees
    i, j = g.keys.T
    a, b, p, q = coef[i], -g.signs * coef[j], comp[i], comp[j]
    a, b = np.where(p == q, a + b, a), np.where(p == q, 0.0, b)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    factor = np.concatenate((a * a, b * b, a * b, a * b))
    on = np.flatnonzero(factor)
    e = on % len(a)
    row, col = np.concatenate((p, q, lo, hi)), np.concatenate((p, q, hi, lo))
    Q = np.zeros((c, c, g.d, g.d))
    if on.size:  # each edge Q holds, by its range projector
        live, at = np.unique(e, return_inverse=True)
        lam, V = np.linalg.eigh(g.signs[live, None, None] * g.weights[live])
        V *= (lam > _zero_threshold(lam, s.eig_tol))[:, None, :]
        P = np.einsum("eik,ejk->eij", V, V)  # entry (i, j) summed as (j, i) is
        np.add.at(Q, (row[on], col[on]), factor[on, None, None] * P[at])
    lam, V, thr = psd_eigh(Q.swapaxes(1, 2).reshape(c * g.d, c * g.d), s.eig_tol)
    dim = int(np.count_nonzero(lam <= thr))
    U, X = V[:, lam <= thr].reshape(c, g.d, dim), np.zeros((g.n, g.d, dim))
    X[held] = coef[held, None, None] * U[comp[held]]
    return NullSpaceBasis(vectors=X.reshape(g.n * g.d, dim), tol_used=thr)


def certify_cluster_consensus(
    s: SwitchingSchedule, windows: Sequence[Window], *, tol: Tolerances = Tolerances()
) -> CertificationReport:
    """Certify geometric convergence to the common null space over the given windows.

    The windows must tile the schedule prefix contiguously.  For each window
    the integral-network null space and the singular values of its
    :func:`flow_core` are computed; certification requires all null spaces
    equal (as projectors, within ``tol.ns_eq_tol``) and ``max_l
    mu_{m+1}(Phi_l^T Phi_l) <= 1 - Q_MARGIN``.  A window whose null space is
    the whole space has no complement to contract and records ``mu = 0``.
    An integral edge, however weakly dosed, ties its two agents in its range
    (:func:`_window_null_space`): so ``pn_spanning_tree`` with ``balance`` gives
    ``m = d`` (0 if the definite edges are unbalanced), and a weak bridge is
    not certified, where an eigenvalue threshold alone counted it as null.

    Windows whose ``graph``, ``dwell`` and ``scale`` slices are equal bit for
    bit have equal operators, so each distinct window, as
    :func:`switching._window_sources` finds them, is computed once and its
    windows share one :class:`IntegralNetwork` object.  The definite-edge
    skeleton and the structural diagnostics read only an integral graph's
    edges and their classes, so they are found once per distinct edge
    structure, and the report returns that grouping.

    The distinct windows go in pairs, consecutive in order, before any graph
    is decomposed; each pair is one ``mu`` task, holding its two cores, their
    trimmed stack and the :func:`flow_core` couplings its windows cross.  So
    the memory of the tasks that cross the most, as many as run at once, is
    checked before the first ``eigh``, with the message of
    :func:`config.check_laplacian_memory`.  The graphs the windows run are
    then decomposed in order of first run by :func:`switching.spectra`, every
    null space is solved, window by window, and then every ``mu``:
    :func:`mu_m_plus_1` trims a pair's cores alike, a whole-space window
    left out, and takes them in one stacked ``svd``, the pairs at the same
    time through :func:`matalg._map_lapack`.  An error is that of the first
    window, in that order, to raise it.
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
    src: list[int] = []  # index of the first window with window k's content
    nets: list[IntegralNetwork] = []
    for k, (w, j) in enumerate(zip(ws, _window_sources(s, ws))):  # window by window
        src.append(j)
        nets.append(integral_network(s, w) if j == k else nets[j])
    distinct = list(dict.fromkeys(src))
    order = s.n * s.d
    # consecutive distinct windows in pairs: one stacked svd of two cores releases the
    # interpreter lock where one of a single core's few hundred values keeps it
    pairs = [distinct[i:i + 2] for i in range(0, len(distinct), 2)]
    # every graph the windows run, a dose that underflowed to 0 too, in order of first run
    used = list(dict.fromkeys(s.runs(0, ws[-1].end)[1].tolist()))
    tasks = _pool_size(len(pairs), order)
    crossed = sorted((len(set().union(*(_crossings(s, ws[k]) for k in pair))) for pair in pairs),
                     reverse=True)
    held = sum(crossed[:tasks])
    _check_matrices(s, len(used), 4 * tasks + held,
                    f"{tasks} pair(s) of window flow maps at a time with {held} coupling(s)")
    eigs = spectra(s, used)
    # one integral graph per edge structure, in order of first use, and each distinct
    # window's position among them (slot): the windows of one structure share its skeleton
    slot, where, structures, bases = {}, {}, [], []
    for k in distinct:
        slot[k] = where.setdefault(_edge_structure(nets[k].graph), len(structures))
        if slot[k] == len(structures):
            structures.append(nets[k].graph)
        bases.append(_window_null_space(s, nets[k], structures[slot[k]]._skeleton))
    max_dist = max((projector_distance(bases[0], b) for b in bases[1:]), default=0.0)
    equal = max_dist <= tol.ns_eq_tol and len({b.dim for b in bases}) == 1
    m = bases[0].dim
    dim = dict(zip(distinct, (b.dim for b in bases)))

    def pair_mu(pair):  # the two windows form each coupling they both cross once
        # a window whose null space is the whole space contracts nothing, so vacuously
        need = [k for k in pair if dim[k] < order]
        couplings = {}
        cores = (flow_core(s, ws[k], eigs, couplings=couplings) for k in need)
        return dict(zip(need, mu_m_plus_1(cores, [dim[k] for k in need]) if need else []))
    mu_of = dict.fromkeys(distinct, 0.0)
    for got in _map_lapack(pair_mu, pairs, order):
        mu_of.update(got)
    q = max(mu_of.values())
    certified = bool(equal and q <= 1.0 - Q_MARGIN)
    balance = simultaneous_structural_balance(structures)
    pn = all(has_positive_negative_spanning_tree(g) for g in structures)
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
        edge_structures=tuple(structures),
        edge_list=tuple(slot[j] for j in src),
        spectra=eigs,
    )


def verify_necessary_condition(x_star: np.ndarray, report: CertificationReport) -> bool:
    """Check that x* is annihilated by the catalog Laplacian of every graph the windows dose.

    ``report`` is certification's: its integral networks name the dosed
    graphs and its spectra give their Laplacians.  This is the paper's
    necessary condition: a limit lies in the null space of every switching
    Laplacian.  Uses the scale-aware criterion ``||L x*|| <= NECESSARY_TOL *
    ||L|| * ||x*||``, so the answer does not depend on the overall magnitude
    of either factor; ``||L||`` and ``||L x*|| = ||lam * (V^T x*)||`` come
    from the graph's spectrum.
    """
    v = np.asarray(x_star, dtype=float).ravel()
    if v.size != (order := report.basis.vectors.shape[0]):
        raise DimensionMismatchError(f"state length {v.size} != order {order}")
    nv = float(np.linalg.norm(v))
    dosed = np.any([net.doses > 0 for net in report.integral_networks], axis=0)
    for k in np.flatnonzero(dosed).tolist():
        lam, V = report.spectra[k]
        if float(np.linalg.norm(lam * (V.T @ v))) > NECESSARY_TOL * float(lam[-1]) * nv:
            return False
    return True
