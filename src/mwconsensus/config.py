"""Scenario files: JSON schema, validation, and round-trip serialization.

A scenario file fully describes one experiment: state dimension, agent count,
graph catalog, switching schedule, initial condition, solver settings,
tolerances, and the windowing rule used by certification.  Node ids are
1-based in files and errors, 0-based in memory.  Every number read must be
finite, and every tolerance positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    ConsensusToolError,
)
from .graph import MatrixWeightedGraph
from .switching import Segment, SwitchingSchedule, Window

_SCHEDULE_TYPES = ("periodic", "explicit", "generated")
_SOLVER_METHODS = ("exact", "rk4")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "exact"
    sample_dt: float = 1.0
    step_h: float = 1e-3
    horizon: float | None = None


@dataclass(frozen=True)
class Tolerances:
    eig_tol: float = 1e-9
    ns_eq_tol: float = 1e-8
    cluster_tol: float = 1e-6
    conv_tol: float = 1e-6


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
        out = []
        start = 0
        while start < N:
            out.append(Window(start, min(start + size, N)))
            start += size
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.num_agents == other.num_agents
            and self.graphs == other.graphs
            and _schedules_equal(self.schedule, other.schedule)
            and np.array_equal(self.initial_state, other.initial_state)
            and self.solver == other.solver
            and self.tolerances == other.tolerances
            and self.windows_spec == other.windows_spec
        )


def _schedules_equal(a: SwitchingSchedule, b: SwitchingSchedule) -> bool:
    return (
        a.mode == b.mode
        and a.alpha == b.alpha
        and a.pattern == b.pattern
        and a.repetitions == b.repetitions
        and a.generator == b.generator
        and a.segments() == b.segments()
        and set(a.catalog) == set(b.catalog)
        and all(a.catalog[k] == b.catalog[k] for k in a.catalog)
    )


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
    if not math.isfinite(value):
        raise ConfigValidationError(f"{where} must be finite, got {value!r}", field=where)
    return float(value)


def _as_tol(raw: Mapping, key: str, default: float) -> float:
    where = f"tolerances.{key}"
    value = _as_num(raw.get(key, default), where)
    if not value > 0:
        raise ConfigValidationError(f"{where} must be > 0, got {value!r}", field=where)
    return value


def _parse_graph(entry: Mapping, n: int, d: int, eig_tol: float) -> tuple[str, MatrixWeightedGraph]:
    gid = _need(entry, "id", "graphs[]")
    if not isinstance(gid, str) or not gid:
        raise ConfigValidationError(f"graph id must be a nonempty string, got {gid!r}", field="graphs[].id")
    edges = _need(entry, "edges", f"graph {gid!r}")
    if not isinstance(edges, list):
        raise ConfigValidationError(f"graph {gid!r}: edges must be a list", field="edges")
    weights = {}
    for e in edges:
        i = _as_int(_need(e, "i", f"graph {gid!r} edge"), "edge i")
        j = _as_int(_need(e, "j", f"graph {gid!r} edge"), "edge j")
        w = _need(e, "weight", f"graph {gid!r} edge ({i},{j})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigValidationError(
                f"graph {gid!r}: edge ({i},{j}) outside node range 1..{n}", field="edges"
            )
        W = np.asarray(w, dtype=float)
        if W.shape != (d, d):
            raise ConfigValidationError(
                f"graph {gid!r}: edge ({i},{j}) weight has shape {W.shape}, expected ({d},{d})",
                field="weight",
            )
        if not np.isfinite(W).all():
            raise ConfigValidationError(f"graph {gid!r}: edge ({i},{j}) weight is not finite", field="weight")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in weights:
            raise ConfigValidationError(f"graph {gid!r}: duplicate edge ({i},{j})", field="edges")
        weights[key] = W
    try:
        return gid, MatrixWeightedGraph(n, d, weights, label=gid, eig_tol=eig_tol)
    except ConsensusToolError as exc:
        raise ConfigValidationError(f"graph {gid!r}: {exc.describe(1)}", field="graphs") from exc


def _parse_schedule(raw: Mapping, graphs: dict[str, MatrixWeightedGraph]) -> SwitchingSchedule:
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
            gid = _need(e, "graph", where)
            if gid not in graphs:
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
        gen = _need(raw, "generator", "schedule")
        name = _need(gen, "name", "schedule.generator")
        params = _need(gen, "params", "schedule.generator")
        return SwitchingSchedule.generated(graphs, name, params, alpha)
    except (ConsensusToolError, KeyError, ValueError) as exc:
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

    Raises ConfigParseError (with a line number) for malformed JSON and
    ConfigValidationError (naming the offending field) for schema problems,
    including weight-matrix violations surfaced by graph construction.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: {exc.msg} (line {exc.lineno})", line=exc.lineno) from exc
    if not isinstance(raw, Mapping):
        raise ConfigValidationError("top level must be a JSON object")

    d = _as_int(_need(raw, "dimension", "scenario"), "dimension")
    n = _as_int(_need(raw, "num_agents", "scenario"), "num_agents")
    if d < 1:
        raise ConfigValidationError(f"dimension must be >= 1, got {d}", field="dimension")
    if n < 2:
        raise ConfigValidationError(f"num_agents must be >= 2, got {n}", field="num_agents")

    traw = raw.get("tolerances", {})
    tol = Tolerances(**{f.name: _as_tol(traw, f.name, f.default) for f in fields(Tolerances)})

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

    x0_raw = _need(raw, "initial_state", "scenario")
    x0 = np.asarray(x0_raw, dtype=float).ravel()
    if x0.size != n * d:
        raise ConfigValidationError(
            f"initial_state has {x0.size} entries, expected n*d = {n * d}",
            field="initial_state",
        )
    if not np.isfinite(x0).all():
        raise ConfigValidationError("initial_state must be finite", field="initial_state")

    sraw = raw.get("solver", {})
    method = sraw.get("method", "exact")
    if method not in _SOLVER_METHODS:
        raise ConfigValidationError(
            f"solver.method must be one of {_SOLVER_METHODS}, got {method!r}",
            field="solver.method",
        )
    solver = SolverConfig(
        method=method,
        sample_dt=_as_num(sraw.get("sample_dt", 1.0), "solver.sample_dt"),
        step_h=_as_num(sraw.get("step_h", 1e-3), "solver.step_h"),
        horizon=(
            _as_num(sraw["horizon"], "solver.horizon") if "horizon" in sraw else None
        ),
    )

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


def dump_config(config: ScenarioConfig) -> dict:
    """Plain-JSON form of a scenario, inverse of :func:`load_config`."""
    graphs = []
    for gid in sorted(config.graphs):
        g = config.graphs[gid]
        edges = [
            {"i": e.i + 1, "j": e.j + 1, "weight": e.weight.tolist()} for e in g.edges
        ]
        graphs.append({"id": gid, "edges": edges})

    s = config.schedule
    sched: dict[str, Any] = {"type": s.mode, "alpha": s.alpha}
    if s.mode == "periodic":
        sched["pattern"] = [_seg_dict(seg) for seg in s.pattern]
        sched["repetitions"] = s.repetitions
    elif s.mode == "explicit":
        sched["segments"] = [_seg_dict(seg) for seg in s.segments()]
    else:
        name, params = s.generator
        sched["generator"] = {"name": name, "params": params}

    solver = {k: v for k, v in asdict(config.solver).items() if v is not None}
    return {
        "dimension": config.dimension,
        "num_agents": config.num_agents,
        "graphs": graphs,
        "schedule": sched,
        "initial_state": config.initial_state.tolist(),
        "solver": solver,
        "tolerances": asdict(config.tolerances),
        "windows": config.windows_spec,
    }


def _seg_dict(seg: Segment) -> dict:
    out = {"graph": seg.graph_id, "dwell": seg.dwell}
    if seg.scale != 1.0:
        out["scale"] = seg.scale
    return out


def write_config(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dump_config(config), indent=2, sort_keys=True) + "\n")
