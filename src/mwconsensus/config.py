"""Scenario files: JSON schema and validation.

A scenario file fully describes one experiment: state dimension, agent count,
graph catalog, switching schedule, initial condition, solver settings,
tolerances, and the windowing rule used by certification.  Node ids are
1-based in files and errors, 0-based in memory.  Every number read must be
finite, every tolerance positive, and every key of ``tolerances`` and
``solver`` one of their fields.  A ``dimension``, ``repetitions`` or
``intervals`` whose arrays would take more than the host's physical memory
is rejected, and named, before those arrays are allocated;
:func:`check_laplacian_memory` does the same for ``num_agents`` and the
Laplacians that the commands build.  A graph's edges are read as two arrays
and checked as a whole; only a list that fails those checks is scanned edge
by edge, to name its first offending edge.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping, NoReturn

import numpy as np

from . import sim
from .analysis import CLUSTER_TOL, NS_EQ_TOL
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    ConsensusToolError,
)
from .graph import MatrixWeightedGraph
from .matalg import EIG_TOL
from .sim import _check_horizon
from .switching import _MAX_SEGMENTS, Segment, SwitchingSchedule, Window

_SCHEDULE_TYPES = ("periodic", "explicit", "generated")
_SOLVER_METHODS = ("exact", "rk4")
CONV_TOL = 1e-6
# a schedule holds six floats or indices per segment: graph, dwell, scale, the
# prefix sums of dwell and of dose, and the switch times
_SEGMENT_BYTES = 6 * 8
# a Laplacian, and LAPACK's copy, workspace (two) and eigenvectors in its eigh
_LAPLACIAN_COPIES = 5


@dataclass(frozen=True)
class SolverConfig:
    method: str = "exact"
    sample_dt: float = 1.0
    step_h: float = 1e-3
    horizon: float | None = None


@dataclass(frozen=True)
class Tolerances:
    eig_tol: float = EIG_TOL
    ns_eq_tol: float = NS_EQ_TOL
    cluster_tol: float = CLUSTER_TOL
    conv_tol: float = CONV_TOL


@dataclass(eq=False)
class ScenarioConfig:
    """In-memory form of a scenario file."""

    dimension: int
    num_agents: int
    graphs: dict[str, MatrixWeightedGraph]
    schedule: SwitchingSchedule
    initial_state: np.ndarray = field(repr=False)
    solver: SolverConfig = SolverConfig()
    tolerances: Tolerances = Tolerances()
    windows_spec: Any = "whole"

    @property
    def horizon(self) -> float:
        return self.solver.horizon if self.solver.horizon is not None else self.schedule.total_duration

    def windows(self) -> list[Window]:
        """Resolve the windowing rule against the schedule."""
        spec = self.windows_spec
        N = self.schedule.num_segments
        if spec == "whole":
            return [Window(0, N)]
        if spec == "period":
            plen = len(self.schedule.pattern)
            return [Window(k * plen, (k + 1) * plen) for k in range(N // plen)]
        size = int(spec["segments"])
        return [Window(a, min(a + size, N)) for a in range(0, N, size)]


def _need(raw: Mapping, key: str, where: str):
    if key not in raw:
        raise ConfigValidationError(f"missing required key {key!r} in {where}", field=key)
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


def _only_fields(raw: Mapping, cls, where: str) -> Mapping:
    """``raw``, after checking that each of its keys names a field of the dataclass ``cls``."""
    names = [f.name for f in fields(cls)]
    for key in raw:
        if key not in names:
            raise ConfigValidationError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(names)}",
                field=f"{where}.{key}",
            )
    return raw


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
    """Reject a scenario whose order-``n d`` Laplacian could not be decomposed in the host's memory.

    ``analyze`` and ``simulate`` assemble a graph's Laplacian as one dense
    ``(n d) x (n d)`` float matrix, which the file's size does not bound: a
    path of 30,000 agents takes 1.5 MB to write and 7.2 GB as a Laplacian.
    Its ``eigh`` then holds LAPACK's copy of it, a workspace of two more and
    the eigenvectors, so five such matrices are counted.  :func:`load_config`
    bounds only what loading allocates, so every command, ``check`` too,
    calls this before any Laplacian is built.
    """
    n, d = cfg.num_agents, cfg.dimension
    _check_memory(_LAPLACIAN_COPIES * 8 * (n * d) ** 2, "num_agents", n,
                  f"{_LAPLACIAN_COPIES} dense {n * d} x {n * d} matrices, for the Laplacian "
                  f"of {n} agents of dimension {d} and its eigendecomposition,")


def _as_positive(value, where: str) -> float:
    x = _as_num(value, where)
    if not x > 0:
        raise ConfigValidationError(f"{where} must be > 0, got {x!r}", field=where)
    return x


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


def _edge_arrays(edges: list, n: int, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The 0-based ``(E, 2)`` keys and ``(E, d, d)`` weights of a valid edge list, else None.

    Each array is converted in one call and checked as a whole: every edge an
    object with integer (not bool) ends in ``1..n``, a finite ``(d, d)``
    weight, and no node pair given twice.  Self loops are left to the graph.
    """
    try:
        ends = list(map(_ENDS, edges))
        if not set(map(type, chain.from_iterable(ends))) <= {int}:
            return None
        keys = np.array(ends, dtype=np.intp).reshape(-1, 2)
        W = np.array(list(map(_WEIGHT, edges)), dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if edges and W.shape != (len(edges), d, d) or not np.isfinite(W).all():
        return None
    if not ((keys >= 1) & (keys <= n)).all():
        return None
    pairs = np.sort(keys, axis=1)
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    if (pairs[1:] == pairs[:-1]).all(axis=1).any():
        return None
    return keys - 1, W.reshape(-1, d, d)


def _raise_edge_fault(gid: str, edges: list, n: int, d: int) -> NoReturn:
    """Raise the error of the first edge, in file order, that ``_edge_arrays`` rejects."""
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
    raise AssertionError(f"graph {gid!r}: the edge checks disagree on a valid edge list")


def _parse_graph(entry, n: int, d: int, eig_tol: float) -> tuple[str, MatrixWeightedGraph]:
    entry = _as_object(entry, "graphs[]")
    gid = _need(entry, "id", "graphs[]")
    if not isinstance(gid, str) or not gid:
        raise ConfigValidationError(f"graph id must be a nonempty string, got {gid!r}", field="graphs[].id")
    edges = _need(entry, "edges", f"graph {gid!r}")
    if not isinstance(edges, list):
        raise ConfigValidationError(f"graph {gid!r}: edges must be a list", field="edges")
    arrays = _edge_arrays(edges, n, d)
    if arrays is None:
        _raise_edge_fault(gid, edges, n, d)
    try:
        return gid, MatrixWeightedGraph.from_edges(n, d, *arrays, label=gid, eig_tol=eig_tol)
    except ConsensusToolError as exc:
        raise ConfigValidationError(f"graph {gid!r}: {exc.describe(1)}", field="graphs") from exc


def _parse_schedule(raw, graphs: dict[str, MatrixWeightedGraph]) -> SwitchingSchedule:
    raw = _as_object(raw, "schedule")
    stype = _need(raw, "type", "schedule")
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
            gid = _need(e, "graph", where)
            if not isinstance(gid, str) or gid not in graphs:
                raise ConfigValidationError(
                    f"{where} references unknown graph {gid!r}", field=where
                )
            dwell = _as_num(_need(e, "dwell", where), f"{where}.dwell")
            scale = _as_num(e.get("scale", 1.0), f"{where}.scale")
            out.append(Segment(gid, dwell, scale))
        return out

    try:
        if stype == "periodic":
            pattern = seg_list(_need(raw, "pattern", "schedule"), "schedule.pattern")
            reps = _as_int(_need(raw, "repetitions", "schedule"), "schedule.repetitions")
            _check_segments(len(pattern) * reps, "schedule.repetitions", reps)
            return SwitchingSchedule.periodic(graphs, pattern, reps, alpha)
        if stype == "explicit":
            segs = seg_list(_need(raw, "segments", "schedule"), "schedule.segments")
            return SwitchingSchedule.explicit(graphs, segs, alpha)
        gen = _as_object(_need(raw, "generator", "schedule"), "schedule.generator")
        name = _need(gen, "name", "schedule.generator")
        where = "schedule.generator.params"
        params = _as_object(_need(gen, "params", "schedule.generator"), where)
        gid = _need(params, "graph", where)
        if not isinstance(gid, str) or gid not in graphs:
            raise ConfigValidationError(
                f"{where}.graph must name a catalog graph, got {gid!r}", field=f"{where}.graph"
            )
        intervals = _as_int(_need(params, "intervals", where), f"{where}.intervals")
        if intervals < 1:
            raise ConfigValidationError(
                f"{where}.intervals must be >= 1, got {intervals}", field=f"{where}.intervals"
            )
        _check_segments(intervals, f"{where}.intervals", intervals)
        return SwitchingSchedule.generated(graphs, name, params, alpha)
    except ConsensusToolError as exc:
        if isinstance(exc, ConfigValidationError):
            raise
        raise ConfigValidationError(f"schedule: {exc}", field="schedule") from exc


def _parse_windows(spec, schedule: SwitchingSchedule):
    if spec == "whole" or spec == "period":
        if spec == "period" and schedule.mode != "periodic":
            raise ConfigValidationError(
                'windows "period" requires a periodic schedule', field="windows"
            )
        return spec
    if isinstance(spec, Mapping):
        if spec.get("type") != "uniform":
            raise ConfigValidationError(
                f"unknown windows spec {spec!r}", field="windows"
            )
        size = _as_int(_need(spec, "segments", "windows"), "windows.segments")
        if size < 1:
            raise ConfigValidationError("windows.segments must be >= 1", field="windows")
        return {"type": "uniform", "segments": size}
    raise ConfigValidationError(f"unknown windows spec {spec!r}", field="windows")


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

    traw = _only_fields(_as_object(raw.get("tolerances", {}), "tolerances"), Tolerances, "tolerances")
    tol = Tolerances(
        **{f.name: _as_positive(traw.get(f.name, f.default), f"tolerances.{f.name}")
           for f in fields(Tolerances)}
    )

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

    sraw = _only_fields(_as_object(raw.get("solver", {}), "solver"), SolverConfig, "solver")
    default = SolverConfig()
    method = sraw.get("method", default.method)
    if method not in _SOLVER_METHODS:
        raise ConfigValidationError(
            f"solver.method must be one of {_SOLVER_METHODS}, got {method!r}",
            field="solver.method",
        )
    solver = SolverConfig(
        method=method,
        sample_dt=_as_positive(sraw.get("sample_dt", default.sample_dt), "solver.sample_dt"),
        step_h=_as_positive(sraw.get("step_h", default.step_h), "solver.step_h"),
        horizon=(
            _as_positive(sraw["horizon"], "solver.horizon") if "horizon" in sraw else None
        ),
    )
    if solver.horizon is not None:
        try:
            _check_horizon(schedule, solver.horizon)
        except ConsensusToolError as exc:
            raise ConfigValidationError(f"solver.horizon: {exc}", field="solver.horizon") from exc

    default_windows = "period" if schedule.mode == "periodic" else "whole"
    windows_spec = _parse_windows(raw.get("windows", default_windows), schedule)

    return ScenarioConfig(
        dimension=d,
        num_agents=n,
        graphs=graphs,
        schedule=schedule,
        initial_state=x0,
        solver=solver,
        tolerances=tol,
        windows_spec=windows_spec,
    )
