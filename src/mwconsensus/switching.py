"""Switching schedules over a finite graph catalog, plus window-level operators.

A schedule is a sequence of segments ``(graph_id, dwell, scale)``: the network
``scale * A(graph_id)`` is active for ``dwell`` time units.  Scales are
strictly positive, so definiteness classes of the weights are preserved; they
exist to express protocols whose coupling strength changes from one interval
to the next (for example an inverse-square decay or a linear ramp).

Window-level operators:

* :func:`integral_network` - the time-averaged network over a span of
  segments, with sign-consistency enforcement and dropping of edges whose
  average vanishes numerically.
* :func:`state_transition` - the product of segment flow maps
  ``exp(-scale_k L_k dwell_k)``, latest segment leftmost.
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
    SignInconsistentEdgeError,
)
from .graph import (
    Bipartition,
    BlockLaplacian,
    EdgeKey,
    MatrixWeightedGraph,
    laplacian,
    two_color_signs,
)
from .matalg import Definiteness, classify_definiteness, psd_eigh


@dataclass(frozen=True)
class Segment:
    """One schedule entry: graph ``graph_id`` active for ``dwell``, weights scaled."""

    graph_id: str
    dwell: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.dwell > 0:
            raise DwellTooShortError(f"segment dwell must be positive, got {self.dwell}")
        if not self.scale > 0:
            raise ValueError(f"segment scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class Window:
    """Half-open span of segment indices ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise EmptyWindowError(f"invalid window [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


class SwitchingSchedule:
    """A validated switching signal over a shared-format graph catalog.

    Catalog graphs must agree on ``(n, d)`` and on the ``eig_tol`` that
    classified their edges.  Every segment must reference a catalog graph and
    dwell at least ``alpha``.  Segments are expanded at construction time;
    periodic schedules also keep their generating pattern, generated
    schedules their named rule.
    """

    def __init__(
        self,
        catalog: Mapping[str, MatrixWeightedGraph],
        segments: Sequence[Segment],
        alpha: float,
        mode: str = "explicit",
        pattern: Sequence[Segment] | None = None,
        repetitions: int | None = None,
        generator: tuple[str, dict] | None = None,
    ):
        if not catalog:
            raise EmptyScheduleError("graph catalog is empty")
        if not segments:
            raise EmptyScheduleError("schedule has no segments")
        if not alpha > 0:
            raise DwellTooShortError(f"alpha must be positive, got {alpha}")
        formats = {(g.n, g.d, g.eig_tol) for g in catalog.values()}
        if len(formats) != 1:
            raise DimensionMismatchError(f"catalog graphs disagree on (n, d, eig_tol): {sorted(formats)}")
        self.catalog = dict(catalog)
        self.alpha = float(alpha)
        self.mode = mode
        self.pattern = tuple(pattern) if pattern is not None else None
        self.repetitions = repetitions
        self.generator = generator
        segs = tuple(segments)
        for k, seg in enumerate(segs):
            if seg.graph_id not in self.catalog:
                raise KeyError(f"segment {k} references unknown graph {seg.graph_id!r}")
            if seg.dwell + 1e-12 < self.alpha:
                raise DwellTooShortError(
                    f"segment {k} dwells {seg.dwell} < alpha = {self.alpha}", segment=k
                )
        self._segments = segs
        (self.n, self.d, self.eig_tol) = next(iter(formats))
        self._laplacians: dict[str, BlockLaplacian] = {}
        self._eigs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(
        cls,
        catalog: Mapping[str, MatrixWeightedGraph],
        segments: Sequence[Segment],
        alpha: float,
    ) -> "SwitchingSchedule":
        return cls(catalog, segments, alpha, mode="explicit")

    @classmethod
    def periodic(
        cls,
        catalog: Mapping[str, MatrixWeightedGraph],
        pattern: Sequence[Segment],
        repetitions: int,
        alpha: float,
    ) -> "SwitchingSchedule":
        if repetitions < 1:
            raise EmptyScheduleError(f"repetitions must be >= 1, got {repetitions}")
        segs = tuple(pattern) * repetitions
        return cls(
            catalog, segs, alpha, mode="periodic", pattern=pattern, repetitions=repetitions
        )

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
        params ``graph`` (catalog id) and ``intervals`` (count K).
        """
        gid = str(params["graph"])
        K = int(params["intervals"])
        if K < 1:
            raise EmptyScheduleError(f"generator needs intervals >= 1, got {K}")
        if name == "inverse_square_decay":
            scales = [1.0 / k**2 for k in range(1, K + 1)]
        elif name == "linear_ramp":
            scales = [float(k) for k in range(1, K + 1)]
        else:
            raise KeyError(f"unknown schedule generator {name!r}")
        segs = tuple(Segment(gid, 1.0, s) for s in scales)
        return cls(
            catalog, segs, alpha, mode="generated", generator=(name, dict(params))
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    def switch_times(self) -> np.ndarray:
        """Instants t_0 = 0 < t_1 < ... < t_K (length num_segments + 1)."""
        dwells = np.array([s.dwell for s in self._segments])
        return np.concatenate(([0.0], np.cumsum(dwells)))

    @property
    def total_duration(self) -> float:
        return float(sum(s.dwell for s in self._segments))

    def laplacian_of(self, graph_id: str) -> BlockLaplacian:
        if graph_id not in self._laplacians:
            self._laplacians[graph_id] = laplacian(self.catalog[graph_id])
        return self._laplacians[graph_id]

    def eig_of(self, graph_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Cached PSD eigendecomposition of the unscaled catalog Laplacian."""
        if graph_id not in self._eigs:
            self._eigs[graph_id] = psd_eigh(self.laplacian_of(graph_id).matrix)[:2]
        return self._eigs[graph_id]


@dataclass(frozen=True)
class ScheduleReport:
    """Outcome of :func:`validate_schedule`: the soft hypotheses, flagged."""

    finite_recurring_catalog: bool
    distinct_dwells: tuple[float, ...]
    notes: tuple[str, ...]


def validate_schedule(s: SwitchingSchedule) -> ScheduleReport:
    """Report on the recurring-catalog hypothesis and the set of dwells.

    Hard violations (empty schedule, dwell below alpha, mixed catalog formats)
    raise at construction, so a schedule always has its minimum dwell and a
    finite dwell set; this classifies the softer hypotheses that the long-run
    convergence statements rely on.
    """
    notes: list[str] = []
    used = {seg.graph_id for seg in s.segments()}
    unused = sorted(set(s.catalog) - used)
    uniform_scale = all(seg.scale == 1.0 for seg in s.segments())
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
    dwells = tuple(sorted({seg.dwell for seg in s.segments()}))
    notes.append(f"{len(dwells)} distinct dwell value(s)")
    return ScheduleReport(
        finite_recurring_catalog=recurring,
        distinct_dwells=dwells,
        notes=tuple(notes),
    )


def _check_window(s: SwitchingSchedule, w: Window) -> tuple[Segment, ...]:
    if w.end > s.num_segments:
        raise EmptyWindowError(
            f"window [{w.start}, {w.end}) exceeds schedule length {s.num_segments}"
        )
    return s.segments()[w.start : w.end]


@dataclass(frozen=True)
class IntegralNetwork:
    """Time-averaged network over a window: graph, its Laplacian, and the span."""

    window: Window
    duration: float
    graph: MatrixWeightedGraph
    laplacian: BlockLaplacian


def integral_network(s: SwitchingSchedule, w: Window) -> IntegralNetwork:
    """Average the active weights over a window of segments.

    Each edge accumulates ``scale_k * dwell_k * A_ij`` over the segments where
    it is present, divided by the window duration.  An edge that appears with
    both signs inside the window is rejected (its average could cancel); an
    edge whose average classifies as numerically zero is dropped.  Averages
    are classified with the catalog's ``eig_tol``.
    """
    segs = _check_window(s, w)
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


@dataclass(frozen=True)
class StateTransition:
    """Flow map of the switched system across a window (latest segment leftmost)."""

    window: Window
    matrix: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def state_transition(s: SwitchingSchedule, w: Window) -> StateTransition:
    """Product ``exp(-scale L dwell)`` over the window's segments, newest first.

    Catalog Laplacians are eigendecomposed once and reused; each factor is a
    spectral exponential, so the product has spectral norm at most 1.
    """
    segs = _check_window(s, w)
    Phi = np.eye(s.n * s.d)
    for seg in segs:
        lam, V = s.eig_of(seg.graph_id)
        factor = (V * np.exp(-seg.scale * seg.dwell * lam)) @ V.T
        Phi = factor @ Phi
    return StateTransition(window=w, matrix=Phi)


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
    n = graphs[0].n
    union: dict[EdgeKey, int] = {}
    for g in graphs:
        for e in g.edges:
            prev = union.get(e.key)
            if prev is None:
                union[e.key] = e.sign
            elif prev != e.sign:
                return None
    return two_color_signs(n, union)
