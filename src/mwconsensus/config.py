"""Scenario files: JSON schema and validation.

A scenario file fully describes one experiment: state dimension, agent count,
graph catalog, switching schedule, initial condition, solver settings,
tolerances, and the windowing rule used by certification.  Node ids are
1-based in files and errors, 0-based in memory.  Every number read must be
finite, and every tolerance positive.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .analysis import CLUSTER_TOL, NS_EQ_TOL
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    ConsensusToolError,
)
from .graph import MatrixWeightedGraph
from .matalg import EIG_TOL
from .sim import _check_horizon
from .switching import Segment, SwitchingSchedule, Window

_SCHEDULE_TYPES = ("periodic", "explicit", "generated")
_SOLVER_METHODS = ("exact", "rk4")
CONV_TOL = 1e-6


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


def _parse_graph(entry, n: int, d: int, eig_tol: float) -> tuple[str, MatrixWeightedGraph]:
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
        if _as_int(_need(params, "intervals", where), f"{where}.intervals") < 1:
            raise ConfigValidationError(
                f"{where}.intervals must be >= 1, got {params['intervals']}",
                field=f"{where}.intervals",
            )
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

    traw = _as_object(raw.get("tolerances", {}), "tolerances")
    tol = Tolerances(
        **{f.name: _as_positive(traw.get(f.name, f.default), f"tolerances.{f.name}")
           for f in fields(Tolerances)}
    )

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

    x0 = _as_array(_need(raw, "initial_state", "scenario"), "initial_state", "initial_state").ravel()
    if x0.size != n * d:
        raise ConfigValidationError(
            f"initial_state has {x0.size} entries, expected n*d = {n * d}",
            field="initial_state",
        )

    sraw = _as_object(raw.get("solver", {}), "solver")
    method = sraw.get("method", "exact")
    if method not in _SOLVER_METHODS:
        raise ConfigValidationError(
            f"solver.method must be one of {_SOLVER_METHODS}, got {method!r}",
            field="solver.method",
        )
    solver = SolverConfig(
        method=method,
        sample_dt=_as_positive(sraw.get("sample_dt", 1.0), "solver.sample_dt"),
        step_h=_as_positive(sraw.get("step_h", 1e-3), "solver.step_h"),
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
