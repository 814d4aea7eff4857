"""Scenario files: JSON schema and validation.

A scenario file fully describes one experiment: state dimension, agent count,
graph catalog, switching schedule, initial condition, solver settings,
tolerances, and the window length used by certification.  Node ids are
1-based in files and errors, 0-based in memory.  Every number read must be
finite, every tolerance positive, and every key of ``tolerances`` and
``solver`` one of their fields.  A ``dimension``, ``repetitions`` or
``intervals`` whose arrays would take more than the host's physical memory
is rejected, and named, before those arrays are allocated;
:func:`check_laplacian_memory` does the same for ``num_agents`` and the
Laplacians that the commands build.  A graph's edges are read as two arrays
and checked by the graph as a whole; only a list that the graph rejects is
scanned edge by edge, to name its first malformed edge in file order.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from . import matalg, sim
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    ConsensusToolError,
)
from .graph import MatrixWeightedGraph
from .matalg import Tolerances
from .sim import _check_horizon
from .switching import _MAX_SEGMENTS, Segment, SwitchingSchedule, Window

_SCHEDULE_TYPES = ("periodic", "explicit", "generated")
_SOLVER_METHODS = ("exact", "rk4")
# the field of each input that a schedule constructor rejects, by schedule type; a
# generated schedule's dwells are all 1, so a dwell below alpha is alpha's
_SCHEDULE_FIELDS = {
    "periodic": {"dwell": "schedule.pattern.dwell", "scale": "schedule.pattern.scale",
                 "totals": "schedule.pattern", "count": "schedule.repetitions"},
    "explicit": {"dwell": "schedule.segments.dwell", "scale": "schedule.segments.scale",
                 "totals": "schedule.segments"},
    "generated": {"dwell": "schedule.alpha", "count": "schedule.generator.params.intervals",
                  "name": "schedule.generator.name"},
}
# a schedule holds six floats or indices per segment: graph, dwell, scale, the
# prefix sums of dwell and of dose, and the switch times
_SEGMENT_BYTES = 6 * 8


@dataclass(frozen=True)
class SolverConfig:
    method: str = "exact"
    sample_dt: float = 1.0
    step_h: float = 1e-3
    horizon: float | None = None


@dataclass(eq=False)
class ScenarioConfig:
    """In-memory form of a scenario file."""

    dimension: int
    num_agents: int
    graphs: dict[str, MatrixWeightedGraph]
    schedule: SwitchingSchedule
    initial_state: np.ndarray = field(repr=False)
    window_length: int  # segments per certification window
    solver: SolverConfig = SolverConfig()
    tolerances: Tolerances = Tolerances()

    @property
    def horizon(self) -> float:
        return self.solver.horizon if self.solver.horizon is not None else self.schedule.total_duration

    def windows(self) -> list[Window]:
        """The schedule cut into windows of ``window_length`` segments; the last may be shorter."""
        N, size = self.schedule.num_segments, self.window_length
        return [Window(a, min(a + size, N)) for a in range(0, N, size)]


def _need(raw: Mapping, key: str, where: str, dotted: bool = False):
    """``raw[key]``; a missing key's field is ``where.key`` if ``dotted``, else ``key`` alone."""
    if key not in raw:
        raise ConfigValidationError(f"missing required key {key!r} in {where}",
                                    field=f"{where}.{key}" if dotted else key)
    return raw[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigValidationError(f"{where} must be an integer, got {value!r}", field=where)
    return value


def _as_num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigValidationError(f"{where} must be a number, got {value!r}", field=where)
    # an integer beyond the float range is no more usable than an infinity
    if isinstance(value, int) and abs(value) > sys.float_info.max or not math.isfinite(value):
        raise ConfigValidationError(f"{where} must be finite, got {value!r}", field=where)
    return float(value)


def _as_object(value, where: str, field: str | None = None) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigValidationError(
            f"{where} must be an object, got {value!r}", field=field or where
        )
    return value


def _parse_record(raw, cls, where: str, **parse):
    """The dataclass ``cls`` from the object ``raw``, each of whose keys must name a field.

    Values are checked in field order, by their ``parse`` entry or else :func:`_as_positive`.
    """
    raw = _as_object(raw, where)
    names = [f.name for f in fields(cls)]
    for key in raw:
        if key not in names:
            raise ConfigValidationError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(names)}",
                field=f"{where}.{key}",
            )
    return cls(**{name: parse.get(name, _as_positive)(raw[name], f"{where}.{name}")
                  for name in names if name in raw})


def _check_memory(size: int, field: str, value, what: str) -> None:
    """Reject a ``field`` whose ``value`` makes ``what`` take ``size`` bytes, more than the host has.

    The bound is the host's physical memory, as for a simulation's samples,
    and the check runs before anything of that size is allocated.
    """
    memory = sim._physical_memory()
    if size > memory:
        raise ConfigValidationError(
            f"{field} = {value}: {what} would take more than the host's {memory:.3g} bytes "
            "of physical memory", field=field,
        )


def _check_segments(count: int, field: str, value) -> None:
    """Reject a ``field`` whose ``value`` makes ``count`` segments, more than the host's memory holds.

    A count that no array can hold is left to the schedule's constructor,
    which names it.
    """
    if count <= _MAX_SEGMENTS:
        _check_memory(_SEGMENT_BYTES * count, field, value,
                      f"the schedule's arrays for {count} segments, {_SEGMENT_BYTES} bytes each,")


def check_laplacian_memory(cfg: ScenarioConfig) -> None:
    """Reject a scenario whose order-``n d`` Laplacians could not be decomposed in the host's memory.

    A dense ``(n d) x (n d)`` Laplacian is not bounded by the file's size: a
    path of 30,000 agents takes 1.5 MB to write and 7.2 GB as a Laplacian.
    The schedule keeps one, and its eigenvectors, for each graph it uses, and
    each ``eigh`` running (:func:`matalg._map_lapack` runs some at once) holds
    LAPACK's copy and a workspace of two more.  :func:`load_config` bounds
    only what loading allocates, so every command, ``check`` too, calls this
    before any Laplacian is built.
    """
    n, d = cfg.num_agents, cfg.dimension
    order = n * d
    graphs = np.count_nonzero(np.bincount(cfg.schedule.graph))
    at_once = min(graphs, matalg._lapack_workers()) if order >= matalg.POOL_MIN_ORDER else 1
    count = 2 * graphs + 3 * at_once
    _check_memory(count * 8 * order ** 2, "num_agents", n,
                  f"{count} dense {order} x {order} matrices, for the Laplacians and "
                  f"eigenvectors of the {graphs} scheduled graph(s) of {n} agents of dimension "
                  f"{d} and {at_once} eigendecomposition(s) at a time,")


def _as_positive(value, where: str) -> float:
    x = _as_num(value, where)
    if not x > 0:
        raise ConfigValidationError(f"{where} must be > 0, got {x!r}", field=where)
    return x


def _as_method(value, where: str) -> str:
    if value not in _SOLVER_METHODS:
        raise ConfigValidationError(
            f"{where} must be one of {_SOLVER_METHODS}, got {value!r}", field=where
        )
    return value


def _as_array(value, where: str, field: str) -> np.ndarray:
    """A finite float array; a non-numeric, ragged or oversized entry counts as not finite."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = np.array(np.nan)
    if not np.isfinite(a).all():
        raise ConfigValidationError(f"{where} must be an array of finite numbers", field=field)
    return a


_ENDS = itemgetter("i", "j")
_WEIGHT = itemgetter("weight")


def _edge_arrays(edges: list) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based ``(E, 2)`` keys and the weights of an edge list, each converted in one call.

    An end that is not an integer raises TypeError; the graph checks the rest.
    """
    ends = list(map(_ENDS, edges))
    if not set(map(type, chain.from_iterable(ends))) <= {int}:
        raise TypeError("edge ends must be integers")
    keys = np.array(ends, dtype=np.intp).reshape(-1, 2)
    return keys - 1, np.array(list(map(_WEIGHT, edges)), dtype=float)


def _raise_edge_fault(gid: str, edges: list, n: int, d: int) -> None:
    """Raise the error of the first edge, in file order, that is malformed on its own, if any."""
    seen = set()
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
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ConfigValidationError(f"graph {gid!r}: duplicate edge ({i},{j})", field="edges")
        seen.add(key)


def _parse_graph(entry, n: int, d: int, eig_tol: float) -> tuple[str, MatrixWeightedGraph]:
    entry = _as_object(entry, "graphs[]")
    gid = _need(entry, "id", "graphs[]", dotted=True)
    if not isinstance(gid, str) or not gid:
        raise ConfigValidationError(f"graph id must be a nonempty string, got {gid!r}", field="graphs[].id")
    edges = _need(entry, "edges", f"graph {gid!r}")
    if not isinstance(edges, list):
        raise ConfigValidationError(f"graph {gid!r}: edges must be a list", field="edges")
    try:
        return gid, MatrixWeightedGraph.from_edges(n, d, *_edge_arrays(edges), label=gid,
                                                   eig_tol=eig_tol)
    except (ConsensusToolError, KeyError, TypeError, ValueError, OverflowError) as exc:
        # an edge malformed on its own is named first, in file order, whatever the graph found
        _raise_edge_fault(gid, edges, n, d)
        if not isinstance(exc, ConsensusToolError):
            raise
        raise ConfigValidationError(f"graph {gid!r}: {exc.describe(1)}", field="graphs") from exc


def _parse_schedule(raw, graphs: dict[str, MatrixWeightedGraph]) -> SwitchingSchedule:
    raw = _as_object(raw, "schedule")
    stype = _need(raw, "type", "schedule", dotted=True)
    if stype not in _SCHEDULE_TYPES:
        raise ConfigValidationError(
            f"schedule type must be one of {_SCHEDULE_TYPES}, got {stype!r}", field="schedule.type"
        )
    alpha = _as_num(raw.get("alpha", 1.0), "schedule.alpha")

    def seg_list(entries, where) -> list[Segment]:
        if not isinstance(entries, list) or not entries:
            raise ConfigValidationError(f"{where} must be a nonempty list", field=where)
        out = []
        for e in entries:
            e = _as_object(e, f"{where}[]", where)
            gid = _need(e, "graph", where, dotted=True)
            if not isinstance(gid, str) or gid not in graphs:
                raise ConfigValidationError(
                    f"{where} references unknown graph {gid!r}", field=f"{where}.graph"
                )
            dwell = _as_num(_need(e, "dwell", where, dotted=True), f"{where}.dwell")
            scale = _as_num(e.get("scale", 1.0), f"{where}.scale")
            out.append(Segment(gid, dwell, scale))
        return out

    try:
        if stype == "periodic":
            pattern = seg_list(_need(raw, "pattern", "schedule", dotted=True), "schedule.pattern")
            reps = _as_int(_need(raw, "repetitions", "schedule", dotted=True), "schedule.repetitions")
            _check_segments(len(pattern) * reps, "schedule.repetitions", reps)
            return SwitchingSchedule.periodic(graphs, pattern, reps, alpha)
        if stype == "explicit":
            segs = seg_list(_need(raw, "segments", "schedule", dotted=True), "schedule.segments")
            return SwitchingSchedule.explicit(graphs, segs, alpha)
        gen = _as_object(_need(raw, "generator", "schedule", dotted=True), "schedule.generator")
        name = _need(gen, "name", "schedule.generator", dotted=True)
        where = "schedule.generator.params"
        params = _as_object(_need(gen, "params", "schedule.generator", dotted=True), where)
        gid = _need(params, "graph", where, dotted=True)
        if not isinstance(gid, str) or gid not in graphs:
            raise ConfigValidationError(
                f"{where}.graph must name a catalog graph, got {gid!r}", field=f"{where}.graph"
            )
        intervals = _as_int(_need(params, "intervals", where, dotted=True), f"{where}.intervals")
        if intervals < 1:
            raise ConfigValidationError(
                f"{where}.intervals must be >= 1, got {intervals}", field=f"{where}.intervals"
            )
        _check_segments(intervals, f"{where}.intervals", intervals)
        return SwitchingSchedule.generated(graphs, name, params, alpha)
    except ConsensusToolError as exc:
        if isinstance(exc, ConfigValidationError):
            raise
        field = {"alpha": "schedule.alpha", **_SCHEDULE_FIELDS[stype]}.get(exc.input, "schedule")
        raise ConfigValidationError(f"schedule: {exc}", field=field) from exc


def _window_length(spec, schedule: SwitchingSchedule) -> int:
    """The segments per window of a ``windows`` spec: all of them, a period, or ``segments``."""
    if spec == "whole":
        return schedule.num_segments
    if spec == "period":
        if schedule.mode != "periodic":
            raise ConfigValidationError(
                'windows "period" requires a periodic schedule', field="windows"
            )
        return len(schedule.pattern)
    if not isinstance(spec, Mapping) or spec.get("type") != "uniform":
        raise ConfigValidationError(f"unknown windows spec {spec!r}", field="windows")
    size = _as_int(_need(spec, "segments", "windows", dotted=True), "windows.segments")
    if size < 1:
        raise ConfigValidationError("windows.segments must be >= 1", field="windows.segments")
    return size


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file.

    Raises ConfigParseError (naming the path) for a file that cannot be read
    or decoded and (with a line number) for malformed JSON, and
    ConfigValidationError (naming the offending field) for schema problems,
    including weight-matrix violations surfaced by graph construction.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"{path}: cannot read the file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not a text file: {exc.reason} at byte {exc.start}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: {exc.msg} (line {exc.lineno})", line=exc.lineno) from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise ConfigParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigValidationError("top level must be a JSON object")

    d = _as_int(_need(raw, "dimension", "scenario"), "dimension")
    n = _as_int(_need(raw, "num_agents", "scenario"), "num_agents")
    if d < 1:
        raise ConfigValidationError(f"dimension must be >= 1, got {d}", field="dimension")
    if n < 2:
        raise ConfigValidationError(f"num_agents must be >= 2, got {n}", field="num_agents")

    tol = _parse_record(raw.get("tolerances", {}), Tolerances, "tolerances")

    # before any graph: a file that must hold all n*d entries bounds n by its own size
    x0 = _as_array(_need(raw, "initial_state", "scenario"), "initial_state", "initial_state").ravel()
    if x0.size != n * d:
        raise ConfigValidationError(
            f"initial_state has {x0.size} entries, expected n*d = {n * d}",
            field="initial_state",
        )
    # n*d is bounded by the file, d*d is not: each graph sums an (n, d, d) stack of
    # Laplacian node blocks and takes its absolute value
    _check_memory(2 * 8 * n * d * d, "dimension", d,
                  f"the Laplacian node blocks of {n} agents, {d} x {d} floats each, and their copy,")

    graph_entries = _need(raw, "graphs", "scenario")
    if not isinstance(graph_entries, list) or not graph_entries:
        raise ConfigValidationError("graphs must be a nonempty list", field="graphs")
    graphs: dict[str, MatrixWeightedGraph] = {}
    for entry in graph_entries:
        gid, g = _parse_graph(entry, n, d, tol.eig_tol)
        if gid in graphs:
            raise ConfigValidationError(f"duplicate graph id {gid!r}", field="graphs")
        graphs[gid] = g

    schedule = _parse_schedule(_need(raw, "schedule", "scenario"), graphs)

    solver = _parse_record(raw.get("solver", {}), SolverConfig, "solver", method=_as_method)
    if solver.horizon is not None:
        try:
            _check_horizon(schedule, solver.horizon)
        except ConsensusToolError as exc:
            raise ConfigValidationError(f"solver.horizon: {exc}", field="solver.horizon") from exc

    default_windows = "period" if schedule.mode == "periodic" else "whole"
    return ScenarioConfig(
        dimension=d,
        num_agents=n,
        graphs=graphs,
        schedule=schedule,
        initial_state=x0,
        window_length=_window_length(raw.get("windows", default_windows), schedule),
        solver=solver,
        tolerances=tol,
    )
