"""Switching schedules over a finite graph catalog, plus window-level operators.

A schedule is a sequence of segments ``(graph_id, dwell, scale)``: the network
``scale * A(graph_id)`` is active for ``dwell`` time units.  Scales are
strictly positive, so definiteness classes of the weights are preserved; they
exist to express protocols whose coupling strength changes from one interval
to the next (for example an inverse-square decay or a linear ramp).

Window-level operators:

* :func:`integral_network` - the time-averaged network ``sum_g dose_g A_g / T``
  over a span of segments, where ``dose_g`` sums ``scale * dwell`` over the
  span's segments on graph ``g``, with sign-consistency enforcement and
  dropping of edges whose average vanishes numerically.
* :func:`flow_core` - the window flow map ``Phi``, the product of
  ``exp(-dose_r L_r)`` over maximal runs ``r`` of one graph (their flows
  commute), latest leftmost, written in the catalog eigenbases: with
  ``L_r = V_r diag(lam_r) V_r^T`` it is ``Phi = V_R K V_1^T`` and ``K`` has
  the singular values of ``Phi``.
* :func:`simultaneous_structural_balance` - one bipartition that balances
  every graph in a collection at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DwellTooShortError,
    EmptyScheduleError,
    EmptyWindowError,
    NotPSDError,
    ScheduleError,
    SignInconsistentEdgeError,
    WeightOverflowError,
)
from .graph import Bipartition, MatrixWeightedGraph, _first_false, laplacian, signed_components
from .matalg import Definiteness, _map_lapack, classify_stack, psd_eigh


@dataclass(frozen=True)
class Segment:
    """Plain input record: graph ``graph_id`` active for ``dwell``, weights scaled."""

    graph_id: str
    dwell: float
    scale: float = 1.0


@dataclass(frozen=True)
class Window:
    """Half-open span of segment indices ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise EmptyWindowError(f"invalid window [{self.start}, {self.end})")


# numpy refuses an array of more bytes than intp holds; a dwell takes 8
_MAX_SEGMENTS = np.iinfo(np.intp).max // 8
# a generated schedule's scale on each 1-based interval k, by generator name
_GENERATORS = {"inverse_square_decay": lambda k: 1 / (k * k),
               "linear_ramp": lambda k: k.astype(float)}


def _check_count(count: int, what: str) -> None:
    if count > _MAX_SEGMENTS:
        raise ScheduleError(f"{count} segments from {what} are more than an array can hold", input="count")


def _segment_arrays(catalog: Mapping[str, object], segments: Sequence[Segment]) -> tuple[list, list, list]:
    """Graph positions, dwells and scales of ``segments``; an unknown graph id becomes -1."""
    pos = {gid: k for k, gid in enumerate(catalog)}
    graph = [pos.get(seg.graph_id, -1) for seg in segments]
    return graph, [seg.dwell for seg in segments], [seg.scale for seg in segments]


class SwitchingSchedule:
    """A validated switching signal over a shared-format graph catalog.

    Catalog graphs must agree on ``(n, d)`` and on the ``eig_tol`` that
    classified their edges; ``ids`` lists them in catalog order.  The segments
    are three read-only arrays: ``graph`` (a position in ``ids``), ``dwell``
    (at least ``alpha``) and ``scale`` (positive).  Periodic schedules also
    keep their generating pattern.  The total dwell and the total dose
    ``sum(scale * dwell)`` are finite.
    """

    def __init__(
        self,
        catalog: Mapping[str, MatrixWeightedGraph],
        graph,
        dwell,
        scale,
        alpha: float,
        mode: str = "explicit",
        pattern: Sequence[Segment] | None = None,
    ):
        if not catalog:
            raise EmptyScheduleError("graph catalog is empty")
        formats = {(g.n, g.d, g.eig_tol) for g in catalog.values()}
        if len(formats) != 1:
            raise DimensionMismatchError(f"catalog graphs disagree on (n, d, eig_tol): {sorted(formats)}")
        if not alpha > 0:
            raise DwellTooShortError(f"alpha must be positive, got {alpha}", input="alpha")
        self.graph, self.dwell, self.scale = g, w, c = (
            np.array(graph, dtype=np.intp), np.array(dwell, dtype=float), np.array(scale, dtype=float)
        )
        if g.ndim != 1 or not g.shape == w.shape == c.shape:
            raise DimensionMismatchError(f"graph, dwell, scale shapes differ: {g.shape}, {w.shape}, {c.shape}")
        if not g.size:
            raise EmptyScheduleError("schedule has no segments")
        self.catalog = dict(catalog)
        self.ids = tuple(self.catalog)
        self.alpha = float(alpha)
        if (k := _first_false((g >= 0) & (g < len(self.ids)))) is not None:
            raise ScheduleError(f"segment {k} references no graph of the catalog")
        if (k := _first_false(w > 0)) is not None:
            raise DwellTooShortError(f"segment {k} dwell must be positive, got {w[k]}", segment=k)
        if (k := _first_false(c > 0)) is not None:
            raise ScheduleError(f"segment {k} scale must be positive, got {c[k]}", input="scale")
        if (k := _first_false(w + 1e-12 >= self.alpha)) is not None:
            raise DwellTooShortError(f"segment {k} dwells {w[k]} < alpha = {self.alpha}", segment=k)
        with np.errstate(over="ignore"):  # reported below, with the segment named
            ends, doses = np.cumsum(w), np.cumsum(c * w)
        # the terms are positive, so finite totals bound every partial dose of every window
        if (k := _first_false(np.isfinite(ends) & np.isfinite(doses))) is not None:
            raise ScheduleError(
                f"segment {k} takes the total dwell or dose (scale * dwell) past the float range",
                input="totals",
            )
        self._switch_times = np.concatenate(([0.0], ends))
        for a in (g, w, c, self._switch_times):
            a.setflags(write=False)
        self.mode = mode
        self.pattern = tuple(pattern) if pattern is not None else None
        (self.n, self.d, self.eig_tol) = next(iter(formats))
        self._laplacians: dict[str, np.ndarray] = {}
        self._eigs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(
        cls,
        catalog: Mapping[str, MatrixWeightedGraph],
        segments: Sequence[Segment],
        alpha: float,
    ) -> "SwitchingSchedule":
        return cls(catalog, *_segment_arrays(catalog, segments), alpha, mode="explicit")

    @classmethod
    def periodic(
        cls,
        catalog: Mapping[str, MatrixWeightedGraph],
        pattern: Sequence[Segment],
        repetitions: int,
        alpha: float,
    ) -> "SwitchingSchedule":
        if repetitions < 1:
            raise EmptyScheduleError(f"repetitions must be >= 1, got {repetitions}", input="count")
        _check_count(len(pattern) * repetitions, f"{repetitions} repetitions of the pattern")
        arrays = [np.tile(a, repetitions) for a in _segment_arrays(catalog, pattern)]
        return cls(catalog, *arrays, alpha, mode="periodic", pattern=pattern)

    @classmethod
    def generated(
        cls,
        catalog: Mapping[str, MatrixWeightedGraph],
        name: str,
        params: Mapping[str, object],
        alpha: float = 1.0,
    ) -> "SwitchingSchedule":
        """Expand a named generator rule into unit-dwell scaled segments.

        ``inverse_square_decay``: interval k (1-based) runs the base graph
        scaled by 1/k^2.  ``linear_ramp``: interval k scaled by k.  Both take
        params ``graph`` (catalog id) and ``intervals`` (count K, an integer
        >= 1); neither is coerced.
        """
        gid, K = params["graph"], params["intervals"]
        if not isinstance(gid, str) or gid not in catalog:
            raise ScheduleError(f"generator param 'graph' names no catalog graph: {gid!r}")
        if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 1:
            raise EmptyScheduleError(
                f"generator param 'intervals' must be an integer >= 1, got {K!r}"
            )
        _check_count(K, f"generator param 'intervals' = {K}")
        if not isinstance(name, str) or name not in _GENERATORS:
            raise ScheduleError(f"unknown schedule generator {name!r}", input="name")
        scales = _GENERATORS[name](np.arange(1, K + 1))
        graph = np.full(K, list(catalog).index(gid))
        return cls(catalog, graph, np.ones(K), scales, alpha, mode="generated")

    # -- basic accessors ----------------------------------------------------

    @property
    def num_segments(self) -> int:
        return self.graph.size

    def switch_times(self) -> np.ndarray:
        """Instants t_0 = 0 < t_1 < ... < t_K (length num_segments + 1), read-only."""
        return self._switch_times

    @property
    def total_duration(self) -> float:
        return float(self.switch_times()[-1])

    def runs(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal runs of one graph in segments ``[start, end)``: first segments, graphs, doses."""
        g = self.graph[start:end]
        first = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
        dose = np.add.reduceat(self.scale[start:end] * self.dwell[start:end], first)
        return start + first, g[first], dose

    def laplacian_of(self, graph_id: str) -> np.ndarray:
        if graph_id not in self._laplacians:
            self._laplacians[graph_id] = laplacian(self.catalog[graph_id])
        return self._laplacians[graph_id]

    def eig_of(self, graph_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Cached PSD eigendecomposition of the unscaled catalog Laplacian, at ``eig_tol``.

        Eigenvalues within ``eigh``'s roundoff, ``order * eps * lam_max``, of
        zero are held as exact zeros, so no dose, however large, decays a
        null-space component.
        """
        if graph_id not in self._eigs:
            try:
                self._eigs[graph_id] = _held_eigh(self.laplacian_of(graph_id), self.eig_tol)
            except NotPSDError as exc:
                raise NotPSDError(f"graph {graph_id!r}: Laplacian {exc}") from None
        return self._eigs[graph_id]

    def decompose(self, graph_ids) -> None:
        """Fill the :meth:`eig_of` cache for several graphs at once.

        The Laplacians are assembled here and their ``eigh`` calls run on
        :func:`matalg._map_lapack`'s pool.  This only warms the cache: a
        graph whose Laplacian is not PSD is left out, so that :meth:`eig_of`
        raises for it, naming the graph, where the graph is first asked for.
        """
        todo = [g for g in dict.fromkeys(graph_ids) if g not in self._eigs]
        laplacians = [self.laplacian_of(g) for g in todo]

        def attempt(L):
            try:
                return _held_eigh(L, self.eig_tol)
            except NotPSDError:
                return None

        for g, eig in zip(todo, _map_lapack(attempt, laplacians, self.n * self.d)):
            if eig is not None:
                self._eigs[g] = eig


def _held_eigh(L: np.ndarray, eig_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`psd_eigh` of a Laplacian, its roundoff zeros held as exact zeros as in :meth:`eig_of`."""
    lam, V, _ = psd_eigh(L, eig_tol)
    if lam.size:
        lam[lam <= lam.size * np.finfo(float).eps * lam[-1]] = 0.0
    return lam, V


@dataclass(frozen=True)
class ScheduleReport:
    """Outcome of :func:`validate_schedule`: the soft hypotheses, flagged."""

    finite_recurring_catalog: bool
    notes: tuple[str, ...]


def validate_schedule(s: SwitchingSchedule) -> ScheduleReport:
    """Report on the recurring-catalog hypothesis and the set of dwells.

    Hard violations (empty schedule, dwell below alpha, mixed catalog formats)
    raise at construction, so a schedule always has its minimum dwell and a
    finite dwell set; this classifies the softer hypotheses that the long-run
    convergence statements rely on.
    """
    notes: list[str] = []
    never = np.bincount(s.graph, minlength=len(s.ids)) == 0
    unused = sorted(s.ids[k] for k in np.flatnonzero(never).tolist())
    uniform_scale = bool((s.scale == 1.0).all())
    recurring = uniform_scale and not unused
    if unused:
        notes.append(f"catalog graphs never scheduled: {', '.join(unused)}")
    if not uniform_scale:
        notes.append(
            "segment scales vary, so the effective networks form an infinite family; "
            "long-run recurrence of a finite catalog does not hold"
        )
    if recurring and s.mode == "periodic":
        notes.append("every catalog graph recurs once per period")
    elif recurring:
        notes.append("recurrence verified within the finite schedule only")
    notes.append(f"{np.unique(s.dwell).size} distinct dwell value(s)")
    return ScheduleReport(finite_recurring_catalog=recurring, notes=tuple(notes))


def _check_window(s: SwitchingSchedule, w: Window) -> slice:
    if w.end > s.num_segments:
        raise EmptyWindowError(
            f"window [{w.start}, {w.end}) exceeds schedule length {s.num_segments}"
        )
    return slice(w.start, w.end)


def _edge_union(graphs: Sequence[MatrixWeightedGraph]):
    """The graphs' edges one after another, matched to the sorted union of their keys.

    Returns ``(keys, signs, first, inv, clash)``: the concatenated keys and
    signs, the position of each union key's first entry, each entry's
    position in the union, and the entries whose sign differs from their
    key's first entry.
    """
    keys = np.concatenate([g.keys for g in graphs])
    signs = np.concatenate([g.signs for g in graphs])
    _, first, inv = np.unique(
        keys[:, 0] * graphs[0].n + keys[:, 1], return_index=True, return_inverse=True
    )
    return keys, signs, first, inv, np.flatnonzero(signs != signs[first][inv])


@dataclass(frozen=True)
class IntegralNetwork:
    """Time-averaged network over a window: its duration, graph and per-graph doses.

    ``doses[k]`` sums ``scale * dwell`` over the window's segments on catalog
    graph ``k``, so the graph's Laplacian is ``sum_k doses[k] L_k / duration``
    less the edges whose average classified as zero.
    """

    duration: float
    graph: MatrixWeightedGraph
    doses: np.ndarray = field(repr=False)


def integral_network(s: SwitchingSchedule, w: Window) -> IntegralNetwork:
    """Average the active weights over a window of segments.

    Each edge accumulates ``dose_g * A_ij`` over the window's graphs ``g`` in
    order of first appearance, divided by the window duration.  An edge that
    appears with both signs inside the window is rejected (its average could
    cancel); an edge whose average classifies as numerically zero is dropped.
    Averages are classified with the catalog's ``eig_tol``.  An average, or an
    averaged Laplacian block, beyond the float range raises
    WeightOverflowError naming the window.
    """
    span = _check_window(s, w)
    g = s.graph[span]
    # summed left to right, as a difference of prefix sums would round differently
    duration = float(np.cumsum(s.dwell[span])[-1])
    dose = np.bincount(g, weights=s.scale[span] * s.dwell[span], minlength=len(s.ids))
    dose.setflags(write=False)  # shared by every window with this content
    present, first_seen = np.unique(g, return_index=True)
    order = present[np.argsort(first_seen)].tolist()
    graphs = [s.catalog[s.ids[k]] for k in order]
    keys, _, first, inv, clash = _edge_union(graphs)
    if clash.size:
        raise SignInconsistentEdgeError(
            f"switches weight sign inside window [{w.start}, {w.end})", *keys[clash[0]].tolist()
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, with the edge named
        contrib = np.concatenate([dose[k] * gk.weights for k, gk in zip(order, graphs)])
        # a key's first contribution is taken as it is and the later ones added in turn
        total = contrib[first]
        later = np.ones(len(inv), dtype=bool)
        later[first] = False
        np.add.at(total, inv[later], contrib[later])
        avg = total / duration
    where = f"in the average over window [{w.start}, {w.end})"
    # the catalog weights are finite, so a non-finite average is a dosed sum that overflowed
    if (k := _first_false(np.isfinite(avg).all(axis=(1, 2)))) is not None:
        raise WeightOverflowError(f"weight overflows {where}", *keys[first][k].tolist())
    try:
        classes = classify_stack(avg, s.eig_tol)
        keep = classes != Definiteness.ZERO
        g_avg = MatrixWeightedGraph._from_arrays(
            s.n, s.d, keys[first][keep], avg[keep], classes[keep],
            label=f"integral[{w.start}:{w.end}]", eig_tol=s.eig_tol,
        )
    except WeightOverflowError as exc:
        edge = () if exc.index is None else keys[first][exc.index].tolist()
        raise WeightOverflowError(f"{exc.problem} {where}", *edge, node=exc.node) from None
    return IntegralNetwork(duration=duration, graph=g_avg, doses=dose)


def flow_core(s: SwitchingSchedule, w: Window, *, couplings: dict | None = None) -> np.ndarray:
    """Window flow map in the catalog eigenbases: ``K = E_R C_{R,R-1} ... C_{2,1} E_1``.

    Over the window's maximal runs ``r`` of one graph, ``E_r = diag(exp(-dose_r
    lam_r))`` and ``C_{a,b} = V_a^T V_b``, kept in ``couplings`` under ``(a, b)``,
    so windows given one dict form a coupling they share once.  The flow map
    is ``Phi = V_R K V_1^T``.  The ``V`` are orthogonal, so ``K`` and ``Phi``
    share their singular values: a window of one run costs no matrix product
    and one of two runs only two diagonal scalings.
    """
    _check_window(s, w)
    _, graphs, doses = s.runs(w.start, w.end)
    ids, doses = [s.ids[k] for k in graphs.tolist()], doses.tolist()
    K = np.exp(-doses[0] * s.eig_of(ids[0])[0])  # the diagonal of E_1
    couplings = {} if couplings is None else couplings
    for prev, gid, dose in zip(ids, ids[1:], doses[1:]):
        if (gid, prev) not in couplings:
            couplings[gid, prev] = s.eig_of(gid)[1].T @ s.eig_of(prev)[1]
        C = couplings[gid, prev]
        K = C * K if K.ndim == 1 else C @ K
        K *= np.exp(-dose * s.eig_of(gid)[0])[:, None]
    return np.diag(K) if K.ndim == 1 else K


def simultaneous_structural_balance(
    graphs: Sequence[MatrixWeightedGraph],
) -> Bipartition | None:
    """One bipartition balancing every graph in the collection at once.

    Overlays all edge sign patterns (an edge present with both signs in two
    different graphs is an immediate failure) and 2-colors the union skeleton.
    Returns None when no common balancing bipartition exists.
    """
    if not graphs:
        raise EmptyScheduleError("no graphs given")
    dims = {(g.n, g.d) for g in graphs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"graphs disagree on (n, d): {sorted(dims)}")
    keys, signs, first, _, clash = _edge_union(graphs)
    if clash.size:
        return None
    return signed_components(graphs[0].n, keys[first], signs[first])[1]
