"""Tests for scenario files and the command-line interface."""

import json
import re
import sys
import warnings
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus import cli, matalg, scenarios
from mwconsensus.cli import (
    _CSV_BLOCK_VALUES,
    _format_17g,
    cmd_analyze,
    main,
    write_trajectory_csv,
)
from mwconsensus.config import check_laplacian_memory, load_config
from mwconsensus.errors import ConfigParseError, ConfigValidationError
from mwconsensus.graph import MatrixWeightedGraph
from mwconsensus.sim import Trajectory, simulate_exact
from mwconsensus.matalg import Definiteness
from mwconsensus.switching import SwitchingSchedule, Window, integral_network

from oracles import (
    is_connected,
    windows_by_spec,
    write_trajectory_csv_rows,
    write_trajectory_csv_savetxt,
)
from randgen import random_connected_pd_graph
from test_run_bundled_scenarios import run_bundled

MAX = sys.float_info.max
TOO_LARGE = ("Laplacian block too large: a row's absolute sum exceeds half the float range, "
             "so the Laplacian's eigenvalues could overflow")


def minimal_config_dict():
    return {
        "dimension": 1,
        "num_agents": 2,
        "graphs": [
            {"id": "g", "edges": [{"i": 1, "j": 2, "weight": [[1.0]]}]}
        ],
        "schedule": {
            "type": "explicit",
            "alpha": 1.0,
            "segments": [{"graph": "g", "dwell": 2.0}],
        },
        "initial_state": [1.0, 3.0],
    }


def overflow_config(weights):
    """A d = 2 scenario on graph ``G`` with the given 1-based edge weights, run for one unit."""
    n = max(max(key) for key in weights)
    edges = [{"i": i, "j": j, "weight": W} for (i, j), W in weights.items()]
    return {
        "dimension": 2,
        "num_agents": n,
        "graphs": [{"id": "G", "edges": edges}],
        "schedule": {"type": "explicit", "segments": [{"graph": "G", "dwell": 1.0}]},
        "initial_state": [float(k) for k in range(2 * n)],
    }


def duplicate_first_edge(doc):
    """Append graph 0's first edge again, with its ends swapped."""
    e = doc["graphs"][0]["edges"][0]
    doc["graphs"][0]["edges"].append({**e, "i": e["j"], "j": e["i"]})


def assert_formats_like_percent(values):
    """``cli._format_17g`` spells each value as ``'%.17g' %`` does, with its separator."""
    line_end = np.arange(values.size) % 3 == 2
    expected = b"".join(b"%.17g" % v + (b"\n" if e else b",")
                        for v, e in zip(values.tolist(), line_end.tolist()))
    assert _format_17g(values, line_end) == expected


def with_digits(e, nd):
    """A float that ``'%.17g' %`` spells with ``nd`` significant digits and exponent ``e``, or None.

    The nearest double to ``m 10**(e - nd + 1)`` is tried for the first few
    ``nd``-digit ``m`` that end in a nonzero digit; for some ``(e, 1)``, such
    as ``(99, 1)``, no double exists.
    """
    for j in range(1000):
        m = 10 ** (nd - 1) + 1 + 7 * j if nd > 1 else 1 + j
        if m >= 10**nd:
            return None
        if nd > 1 and m % 10 == 0:
            continue
        x = float(f"{m}e{e - nd + 1}")
        digits, _, exp = ("%.16e" % x).partition("e")
        if int(exp) == e and len(digits.replace(".", "").rstrip("0")) == nd:
            return x
    return None


# fixed notation -4..16, exponent notation with 2 and 3 exponent digits, the fast range's edges
GRID_EXPONENTS = [-300, -100, -99, -5, *range(-4, 17), 17, 99, 100, 289]


def format_grid():
    """``(value, e, nd)`` for every exponent of ``GRID_EXPONENTS`` and digit count 1..17 that exists."""
    return [(x, e, nd) for e in GRID_EXPONENTS for nd in range(1, 18)
            if (x := with_digits(e, nd)) is not None]


def count_fallback(monkeypatch):
    """A one-item list that counts the values ``cli._format_17g`` sends to ``%``."""
    sent = [0]

    def counted(values):
        sent[0] += values.size
        return slow(values)

    slow = cli._format_17g_slow
    monkeypatch.setattr(cli, "_format_17g_slow", counted)
    return sent


def write_json(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def assert_too_small_eig_tol_named(tmp_path, capsys, name):
    """At eig_tol 1e-16 analyze names the window and the graph, simulate the graph."""
    # the roundoff of a catalog Laplacian's zero eigenvalues counts as negative at 1e-16
    doc = json.loads(scenarios.builtin_path(name).read_text())
    doc["tolerances"] = {**doc.get("tolerances", {}), "eig_tol": 1e-16}
    path = str(write_json(tmp_path, doc))
    assert main(["check", "--config", path]) == 0
    capsys.readouterr()
    graph = "|".join(re.escape(g["id"]) for g in doc["graphs"])
    culprit = (rf"graph '({graph})': Laplacian matrix is not PSD at "
               r"eig_tol = 1e-16: min eigenvalue -\S+ < -\S+\n")
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    window = "[0, 3)" if name != "integral_static" else "[0, 1)"
    assert re.fullmatch(rf"error: window {re.escape(window)}: {culprit}", err), err
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {culprit}", err), err


class TestLoad:
    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_builtin_fixtures_load(self, name):
        cfg = scenarios.load_builtin(name)
        assert cfg.initial_state.size == cfg.num_agents * cfg.dimension

    def test_defaults_applied(self, tmp_path):
        cfg = load_config(write_json(tmp_path, minimal_config_dict()))
        assert cfg.solver.method == "exact"
        assert cfg.solver.sample_dt == 1.0
        assert cfg.tolerances.eig_tol == 1e-9
        assert cfg.window_length == 1  # "whole": the schedule's one segment
        assert cfg.horizon == 2.0  # falls back to schedule duration

    def test_node_ids_one_based_in_files(self, tmp_path):
        cfg = load_config(write_json(tmp_path, minimal_config_dict()))
        assert cfg.graphs["g"].keys.tolist() == [[0, 1]]

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "dimension": 1,\n  oops\n}')
        with pytest.raises(ConfigParseError) as exc:
            load_config(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.pop("num_agents"), "num_agents"),
            (lambda d: d.update(dimension=0), "dimension"),
            (lambda d: d.update(initial_state=[1.0]), "initial_state"),
            (lambda d: d["schedule"].update(type="sometimes"), "schedule"),
            (lambda d: d["schedule"]["segments"].append({"graph": "zz", "dwell": 1.0}), "zz"),
            (lambda d: d.update(windows="period"), "period"),
            (lambda d: d["graphs"].append({"id": "g", "edges": []}), "duplicate"),
            (lambda d: d.update(solver={"method": "euler"}), "euler"),
        ],
    )
    def test_validation_errors(self, tmp_path, mutate, needle):
        doc = minimal_config_dict()
        mutate(doc)
        with pytest.raises(ConfigValidationError) as exc:
            load_config(write_json(tmp_path, doc))
        assert needle in str(exc.value)

    def test_indefinite_weight_reported_one_based(self, tmp_path):
        doc = minimal_config_dict()
        doc["dimension"] = 2
        doc["initial_state"] = [0.0] * 4
        doc["graphs"][0]["edges"][0]["weight"] = [[1.0, 0.0], [0.0, -1.0]]
        with pytest.raises(ConfigValidationError) as exc:
            load_config(write_json(tmp_path, doc))
        assert "(1,2)" in str(exc.value)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.update(initial_state=[float("nan"), 3.0]), "initial_state"),
            (lambda d: d["graphs"][0]["edges"][0].update(weight=[[float("nan")]]), "weight"),
            (lambda d: d["graphs"][0]["edges"][0].update(weight=[[float("inf")]]), "weight"),
            (lambda d: d["schedule"].update(alpha=float("inf")), "schedule.alpha"),
            (lambda d: d["schedule"]["segments"][0].update(dwell=float("nan")),
             "schedule.segments.dwell"),
            (lambda d: d["schedule"]["segments"][0].update(scale=float("inf")),
             "schedule.segments.scale"),
            (lambda d: d.update(solver={"sample_dt": float("nan")}), "solver.sample_dt"),
            (lambda d: d.update(solver={"step_h": float("-inf")}), "solver.step_h"),
            (lambda d: d.update(solver={"horizon": float("inf")}), "solver.horizon"),
            (lambda d: d.update(tolerances={"eig_tol": float("nan")}), "tolerances.eig_tol"),
            (lambda d: d.update(initial_state=[1.0, "a"]), "initial_state"),
            (lambda d: d.update(initial_state=[[1.0], [2.0, 3.0]]), "initial_state"),
            (lambda d: d["graphs"][0]["edges"][0].update(weight=[["a"]]), "weight"),
            (lambda d: d["schedule"].update(alpha=10**400), "schedule.alpha"),
            (lambda d: d["schedule"]["segments"][0].update(dwell=10**400),
             "schedule.segments.dwell"),
            (lambda d: d.update(tolerances={"eig_tol": 10**400}), "tolerances.eig_tol"),
        ],
        ids=["x0", "weight-nan", "weight-inf", "alpha", "dwell", "scale", "sample_dt",
             "step_h", "horizon", "eig_tol", "x0-string", "x0-ragged", "weight-string",
             "alpha-huge-int", "dwell-huge-int", "eig_tol-huge-int"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, mutate, field):
        doc = minimal_config_dict()
        mutate(doc)
        with pytest.raises(ConfigValidationError) as exc:
            load_config(write_json(tmp_path, doc))
        assert exc.value.field == field
        assert "finite" in str(exc.value)

    def test_integer_literal_past_digit_limit_is_a_parse_error(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(minimal_config_dict()).replace('"alpha": 1.0', '"alpha": ' + "9" * 5000))
        with pytest.raises(ConfigParseError, match="digits"):
            load_config(p)

    @pytest.mark.parametrize(
        "solver, needle",
        [
            ({"sample_dt": -1}, "must be > 0"),
            ({"step_h": -1}, "must be > 0"),
            ({"horizon": -5}, "must be > 0"),
            ({"horizon": 1e9}, "exceeds schedule duration"),
        ],
        ids=["sample_dt", "step_h", "horizon-negative", "horizon-past-end"],
    )
    def test_solver_numbers_checked_at_load(self, tmp_path, capsys, solver, needle):
        doc = minimal_config_dict()
        doc["solver"] = solver
        path = write_json(tmp_path, doc)
        with pytest.raises(ConfigValidationError, match=needle) as exc:
            load_config(path)
        assert exc.value.field == "solver." + next(iter(solver))
        assert main(["check", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["eig_tol", "ns_eq_tol", "cluster_tol", "conv_tol"])
    @pytest.mark.parametrize("value", [-1, 0.0])
    def test_tolerances_must_be_positive(self, tmp_path, key, value):
        doc = minimal_config_dict()
        doc["tolerances"] = {key: value}
        with pytest.raises(ConfigValidationError, match="must be > 0") as exc:
            load_config(write_json(tmp_path, doc))
        assert exc.value.field == f"tolerances.{key}"

    @pytest.mark.parametrize("section, key, fields_", [
        ("tolerances", "eig_tl", "eig_tol, ns_eq_tol, cluster_tol, conv_tol"),
        ("solver", "sample_DT", "method, sample_dt, step_h, horizon"),
    ])
    def test_unknown_tolerance_or_solver_key_is_named(self, tmp_path, capsys, section, key,
                                                      fields_):
        doc = minimal_config_dict()
        doc[section] = {key: 0.5}
        path = write_json(tmp_path, doc)
        message = f"unknown key {key!r} in {section}; expected one of {fields_}"
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert str(exc.value) == message
        assert exc.value.field == f"{section}.{key}"
        assert main(["check", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", [10**12, 2**62])
    def test_initial_state_size_checked_before_any_graph_is_built(self, tmp_path, capsys, n):
        doc = minimal_config_dict()
        doc["num_agents"] = n
        path = write_json(tmp_path, doc)
        message = f"initial_state has 2 entries, expected n*d = {n}"
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert str(exc.value) == message
        assert exc.value.field == "initial_state"
        assert main(["check", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def generated_config_dict():
        doc = minimal_config_dict()
        doc["schedule"] = {
            "type": "generated",
            "generator": {"name": "linear_ramp", "params": {"graph": "g", "intervals": 3}},
        }
        return doc

    def test_generated_schedule_loads(self, tmp_path):
        cfg = load_config(write_json(tmp_path, self.generated_config_dict()))
        assert cfg.schedule.num_segments == 3
        assert cfg.schedule.scale.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "mutate, field, needle",
        [
            (lambda g: g["params"].update(intervals=2.9), "params.intervals", "must be an integer"),
            (lambda g: g["params"].update(intervals="7"), "params.intervals", "must be an integer"),
            (lambda g: g["params"].update(intervals=True), "params.intervals", "must be an integer"),
            (lambda g: g["params"].update(intervals=0), "params.intervals", "must be >= 1"),
            (lambda g: g["params"].update(intervals=-3), "params.intervals", "must be >= 1"),
            (lambda g: g.update(params=[1, 2]), "params", "must be an object"),
            (lambda g: g.update(params="x"), "params", "must be an object"),
            (lambda g: g["params"].update(graph=5), "params.graph", "must name a catalog graph"),
            (lambda g: g["params"].update(graph="zz"), "params.graph", "must name a catalog graph"),
            (lambda g: g["params"].pop("intervals"), "params", "missing required key 'intervals'"),
            (lambda g: g["params"].pop("graph"), "params", "missing required key 'graph'"),
        ],
        ids=["intervals-float", "intervals-string", "intervals-bool", "intervals-zero",
             "intervals-negative", "params-list", "params-string", "graph-number",
             "graph-unknown", "intervals-missing", "graph-missing"],
    )
    def test_generator_params_checked_at_load(self, tmp_path, capsys, mutate, field, needle):
        doc = self.generated_config_dict()
        mutate(doc["schedule"]["generator"])
        path = write_json(tmp_path, doc)
        with pytest.raises(ConfigValidationError, match=needle) as exc:
            load_config(path)
        assert "schedule.generator." + field in str(exc.value)
        assert main(["check", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_generator_must_be_an_object(self, tmp_path):
        doc = self.generated_config_dict()
        doc["schedule"]["generator"] = "linear_ramp"
        with pytest.raises(ConfigValidationError, match="must be an object") as exc:
            load_config(write_json(tmp_path, doc))
        assert exc.value.field == "schedule.generator"

    def test_unknown_generator_is_named(self, tmp_path, capsys):
        doc = json.loads(scenarios.builtin_path("time_scaled_growth").read_text())
        doc["schedule"]["generator"]["name"] = "cubic"
        path = str(write_json(tmp_path, doc))
        assert main(["check", "--config", path]) == 1
        assert capsys.readouterr().err == "error: schedule: unknown schedule generator 'cubic'\n"

    @pytest.mark.parametrize("count", [2**62, 10**20])
    def test_segment_count_past_array_range_names_its_key(self, tmp_path, capsys, count):
        for name, where in (("cluster_switching", "repetitions"), ("time_scaled_growth", "intervals")):
            doc = json.loads(scenarios.builtin_path(name).read_text())
            sched = doc["schedule"]
            (sched if where == "repetitions" else sched["generator"]["params"])[where] = count
            path = str(write_json(tmp_path, doc))
            with pytest.raises(ConfigValidationError) as exc:
                load_config(path)
            assert exc.value.field == "schedule." + (
                "repetitions" if where == "repetitions" else "generator.params.intervals")
            assert str(exc.value).startswith("schedule: ")
            assert str(exc.value).endswith("segments from " + (
                f"{count} repetitions of the pattern" if where == "repetitions"
                else f"generator param 'intervals' = {count}") + " are more than an array can hold")
            assert main(["check", "--config", path]) == 1
            assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("name, change, field, message", [
        ("cluster_switching", lambda s: s.update(alpha=0), "schedule.alpha",
         "alpha must be positive, got 0.0"),
        ("cluster_switching", lambda s: s["pattern"][1].update(dwell=-1), "schedule.pattern.dwell",
         "segment 1 dwell must be positive, got -1.0"),
        ("cluster_switching", lambda s: s["pattern"][0].update(scale=0), "schedule.pattern.scale",
         "segment 0 scale must be positive, got 0.0"),
        ("integral_static", lambda s: s["segments"][0].update(dwell=0.5),
         "schedule.segments.dwell", "segment 0 dwells 0.5 < alpha = 1.0"),
        ("integral_static", lambda s: s["segments"][0].update(scale=-2), "schedule.segments.scale",
         "segment 0 scale must be positive, got -2.0"),
        ("time_scaled_growth", lambda s: s.update(alpha=-1), "schedule.alpha",
         "alpha must be positive, got -1.0"),
        ("time_scaled_growth", lambda s: s.update(alpha=2), "schedule.alpha",
         "segment 0 dwells 1.0 < alpha = 2.0"),
    ], ids=["alpha-zero", "pattern-dwell-negative", "pattern-scale-zero", "segments-dwell-short",
            "segments-scale-negative", "generated-alpha-negative", "generated-alpha-above-dwell"])
    def test_value_the_schedule_rejects_names_its_key(self, tmp_path, capsys, name, change, field,
                                                      message):
        doc = json.loads(scenarios.builtin_path(name).read_text())
        change(doc["schedule"])
        path = str(write_json(tmp_path, doc))
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert (exc.value.field, str(exc.value)) == (field, f"schedule: {message}")
        assert main(["check", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: schedule: {message}\n"

    @pytest.mark.parametrize("name, where", [("cluster_switching", "repetitions"),
                                             ("time_scaled_growth", "intervals")])
    def test_segments_past_physical_memory_name_their_field_before_any_allocation(
            self, tmp_path, capsys, monkeypatch, name, where):
        doc = json.loads(scenarios.builtin_path(name).read_text())
        doc.pop("solver", None)  # its horizon needs the file's own count
        sched = doc["schedule"]
        holder = sched if where == "repetitions" else sched["generator"]["params"]
        per = len(sched["pattern"]) if where == "repetitions" else 1  # segments per unit
        field = "schedule." + ("repetitions" if where == "repetitions" else "generator.params.intervals")
        # six 8-byte arrays per segment: graph, dwell, scale, two prefix sums, the switch times
        holder[where] = 10
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: 48.0 * per * 10)
        assert load_config(write_json(tmp_path, doc)).schedule.num_segments == per * 10

        def never(*args, **kwargs):
            raise AssertionError("the schedule was built")

        monkeypatch.setattr(SwitchingSchedule, "periodic", never)
        monkeypatch.setattr(SwitchingSchedule, "generated", never)
        for count, memory in ((11, 48.0 * per * 10), (10**9, 2.0**33)):
            monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: memory)
            holder[where] = count
            path = str(write_json(tmp_path, doc))
            with pytest.raises(ConfigValidationError) as exc:
                load_config(path)
            assert exc.value.field == field
            assert str(exc.value) == (
                f"{field} = {count}: the schedule's arrays for {per * count} segments, 48 bytes "
                f"each, would take more than the host's {memory:.3g} bytes of physical memory")
            assert main(["check", "--config", path]) == 1
            assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_dimension_past_physical_memory_is_named_before_any_graph_is_built(
            self, tmp_path, capsys, monkeypatch):
        doc = minimal_config_dict()
        doc["graphs"][0]["edges"] = []
        # 2 agents' node blocks of d x d floats and their copy: 32 d^2 bytes
        memory = 32.0 * 100**2
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: memory)
        doc["dimension"], doc["initial_state"] = 100, [1.0] * 200
        assert load_config(write_json(tmp_path, doc)).dimension == 100

        def never(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(MatrixWeightedGraph, "from_edges", never)
        doc["dimension"], doc["initial_state"] = 101, [1.0] * 202
        path = str(write_json(tmp_path, doc))
        message = ("dimension = 101: the Laplacian node blocks of 2 agents, 101 x 101 floats "
                   "each, and their copy, would take more than the host's 3.2e+05 bytes of "
                   "physical memory")
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert str(exc.value) == message
        assert exc.value.field == "dimension"
        assert main(["check", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("pooled", [False, True])
    def test_laplacian_memory_counts_each_scheduled_graph_and_each_eigh_at_once(
            self, tmp_path, capsys, monkeypatch, pooled):
        # cluster_switching schedules 3 graphs of order 7 * 3 = 21: each holds its Laplacian and
        # eigenvectors, and each eigh at a time LAPACK's copy and workspace of two more
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        doc["schedule"]["repetitions"] = 1  # so that loading fits in the memory below
        doc.pop("solver")
        path = str(write_json(tmp_path, doc))
        if pooled:
            monkeypatch.setattr(matalg, "POOL_MIN_ORDER", 1)
            monkeypatch.setattr(matalg, "_lapack_workers", lambda: 2)
        count = 2 * 3 + 3 * (2 if pooled else 1)
        size = count * 8 * 21 ** 2
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: float(size))
        check_laplacian_memory(load_config(path))
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: size - 1.0)
        message = (f"num_agents = 7: {count} dense 21 x 21 matrices, for the Laplacians and "
                   f"eigenvectors of the 3 scheduled graph(s) of 7 agents of dimension 3 and "
                   f"{2 if pooled else 1} eigendecomposition(s) at a time, would take more than "
                   f"the host's {size - 1.0:.3g} bytes of physical memory")
        with pytest.raises(ConfigValidationError) as exc:
            check_laplacian_memory(load_config(path))
        assert (exc.value.field, str(exc.value)) == ("num_agents", message)
        assert main(["check", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_laplacian_past_physical_memory_names_num_agents_before_any_is_built(
            self, tmp_path, capsys, monkeypatch):
        doc = minimal_config_dict()
        doc["num_agents"], doc["dimension"], doc["initial_state"] = 3, 2, [1.0] * 6
        doc["graphs"][0]["edges"] = [{"i": 1, "j": 2, "weight": [[1.0, 0.0], [0.0, 1.0]]}]
        path = str(write_json(tmp_path, doc))
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: 1440.0)
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
        (tmp_path / "r.json").unlink()
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("a Laplacian was built")

        monkeypatch.setattr("mwconsensus.graph.laplacian", never)
        monkeypatch.setattr("mwconsensus.switching.laplacian", never)
        # an order-6 Laplacian and its eigendecomposition take five times 288 bytes
        monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: 1439.0)
        message = ("num_agents = 3: 5 dense 6 x 6 matrices, for the Laplacians and eigenvectors "
                   "of the 1 scheduled graph(s) of 3 agents of dimension 2 and 1 "
                   "eigendecomposition(s) at a time, would take more than the host's "
                   "1.44e+03 bytes of physical memory")
        assert load_config(path).num_agents == 3
        for argv in (["check"], ["analyze", "--out", str(tmp_path / "r.json")],
                     ["simulate", "--out", str(tmp_path / "t.csv")]):
            assert main([*argv, "--config", path]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "mutate, field, shown",
        [
            (lambda d: d.update(graphs=[5]), "graphs[]", "graphs[]"),
            (lambda d: d["graphs"][0]["edges"].__setitem__(0, 5), "edges", "edges"),
            (lambda d: d.update(schedule=5), "schedule", "schedule"),
            (lambda d: d["schedule"]["pattern"].__setitem__(0, 5), "schedule.pattern",
             "schedule.pattern"),
            (lambda d: d.update(solver=5), "solver", "solver"),
            (lambda d: d.update(tolerances=[]), "tolerances", "tolerances"),
            (lambda d: d["schedule"]["pattern"][0].update(graph=[1]), "schedule.pattern.graph",
             "schedule.pattern"),
            (lambda d: d.update(schedule={"type": "explicit",
                                          "segments": [{"graph": "G1", "dwell": "1"}]}),
             "schedule.segments.dwell", "schedule.segments.dwell must be a number"),
            (lambda d: d["graphs"][0].update(id=5), "graphs[].id", "graph id"),
            (lambda d: d["graphs"][0].update(edges={}), "edges", "edges must be a list"),
            (lambda d: d["graphs"][0]["edges"][0].update(j=8), "edges",
             "edge (1,8) outside node range 1..7"),
            (lambda d: d["graphs"][0]["edges"][0].update(weight=np.eye(2).tolist()), "weight",
             "weight has shape (2, 2), expected (3,3)"),
            (duplicate_first_edge, "edges", "duplicate edge (2,1)"),
            (lambda d: d.update(schedule={"type": "explicit", "segments": []}),
             "schedule.segments", "schedule.segments must be a nonempty list"),
            (lambda d: d["schedule"].update(alpha=2.0), "schedule.pattern.dwell", "< alpha = 2.0"),
            (lambda d: d["schedule"].update(repetitions=0), "schedule.repetitions",
             "repetitions must be >= 1"),
            (lambda d: d.update(windows={"type": "sliding"}), "windows", "unknown windows spec"),
            (lambda d: d.update(windows={"type": "uniform", "segments": 0}), "windows.segments",
             "windows.segments must be >= 1"),
            (lambda d: d.update(windows="all"), "windows", "unknown windows spec 'all'"),
            (lambda d: d.update(num_agents=1), "num_agents", "num_agents must be >= 2"),
            (lambda d: d.update(graphs=[]), "graphs", "graphs must be a nonempty list"),
            (lambda d: [1, 2], None, "top level must be a JSON object"),
        ],
        ids=["graph-entry", "edge-entry", "schedule", "pattern-entry", "solver",
             "tolerances", "pattern-graph-list", "dwell-string", "graph-id-number",
             "edges-object", "edge-out-of-range", "weight-shape", "edge-duplicate",
             "segments-empty", "alpha-above-dwell", "repetitions-zero", "windows-sliding",
             "windows-zero-segments", "windows-string", "one-agent", "graphs-empty",
             "top-level-list"],
    )
    def test_wrong_container_types_name_the_field(self, tmp_path, capsys, mutate, field, shown):
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        doc = mutate(doc) or doc  # a mutation may return a whole new document
        path = write_json(tmp_path, doc)
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert exc.value.field == field
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name, path, wrong, field", [
        ("cluster_switching", ("dimension",), "3", "dimension"),
        ("cluster_switching", ("graphs", 0, "id"), 5, "graphs[].id"),
        ("cluster_switching", ("graphs", 0, "edges", 0, "weight"), "w", "weight"),
        ("cluster_switching", ("schedule", "type"), 5, "schedule.type"),
        ("cluster_switching", ("schedule", "pattern"), 5, "schedule.pattern"),
        ("cluster_switching", ("schedule", "repetitions"), "100", "schedule.repetitions"),
        ("cluster_switching", ("schedule", "pattern", 0, "graph"), 5, "schedule.pattern.graph"),
        ("cluster_switching", ("schedule", "pattern", 0, "dwell"), "2", "schedule.pattern.dwell"),
        ("cluster_switching", ("windows", "segments"), "3", "windows.segments"),
        ("integral_static", ("schedule", "segments"), 5, "schedule.segments"),
        ("integral_static", ("schedule", "segments", 0, "graph"), 5, "schedule.segments.graph"),
        ("integral_static", ("schedule", "segments", 0, "dwell"), "1", "schedule.segments.dwell"),
        ("time_scaled_growth", ("schedule", "generator"), 5, "schedule.generator"),
        ("time_scaled_growth", ("schedule", "generator", "name"), 5, "schedule.generator.name"),
        ("time_scaled_growth", ("schedule", "generator", "params"), 5,
         "schedule.generator.params"),
        ("time_scaled_growth", ("schedule", "generator", "params", "graph"), 5,
         "schedule.generator.params.graph"),
        ("time_scaled_growth", ("schedule", "generator", "params", "intervals"), "100",
         "schedule.generator.params.intervals"),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_missing_key_names_the_field_a_wrong_value_names(self, tmp_path, name, path, wrong,
                                                             field):
        """A required key names its dotted path under ``schedule``, ``windows`` and ``graphs[]``,
        and its bare name at the top level and in an edge, whether missing or wrong."""
        def field_of(change) -> str:
            doc = json.loads(scenarios.builtin_path(name).read_text())
            if path[0] == "windows":  # the bundled files name their windows by a string
                doc["windows"] = {"type": "uniform", "segments": 3}
            *parents, key = path
            change(reduce(getitem, parents, doc), key)
            with pytest.raises(ConfigValidationError) as exc:
                load_config(write_json(tmp_path, doc))
            return exc.value.field

        dropped = field_of(lambda node, key: node.pop(key))
        assert dropped == field_of(lambda node, key: node.__setitem__(key, wrong)) == field

    def test_asymmetric_weight_names_its_edge(self, tmp_path, capsys):
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        g1 = next(g for g in doc["graphs"] if g["id"] == "G1")
        edge = next(e for e in g1["edges"] if (e["i"], e["j"]) == (1, 3))
        edge["weight"][0][1] += 0.5
        path = write_json(tmp_path, doc)
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert "graph 'G1': edge (1,3) weight is not symmetric" in str(exc.value)
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: graph 'G1': edge (1,3) weight is not symmetric: ")
        assert err.count("(1,3)") == 1 and "Traceback" not in err

    def test_asymmetry_within_tolerance_runs_every_command(self, tmp_path, capsys):
        # node 1's Laplacian block adds three asymmetries of 0.9e-12 each, past SYM_TOL
        W = [[2.0, 1.0 + 0.9e-12], [1.0, 2.0]]
        doc = {
            "dimension": 2,
            "num_agents": 4,
            "graphs": [{"id": "G", "edges": [{"i": 1, "j": j, "weight": W} for j in (2, 3, 4)]}],
            "schedule": {
                "type": "explicit", "alpha": 1.0, "segments": [{"graph": "G", "dwell": 2.0}]
            },
            "initial_state": [1.0, 3.0, 0.5, -1.0, 2.0, 0.0, -0.5, 1.5],
        }
        path = str(write_json(tmp_path, doc))
        assert main(["check", "--config", path]) == 0
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 0
        assert "error" not in capsys.readouterr().err
        # past SYM_TOL a single weight is still rejected, its edge named
        doc["graphs"][0]["edges"][1]["weight"] = [[2.0, 1.0 + 2e-12], [1.0, 2.0]]
        with pytest.raises(ConfigValidationError, match=r"edge \(1,3\) weight is not symmetric"):
            load_config(write_json(tmp_path, doc))

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, capsys, kind):
        if kind == "directory":
            path = tmp_path
        else:
            path = tmp_path / "scenario.json"
            path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigParseError, match=str(path)):
            load_config(path)
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_zero_edge_graph_is_valid(self, tmp_path):
        doc = minimal_config_dict()
        doc["graphs"][0]["edges"] = []
        cfg = load_config(write_json(tmp_path, doc))
        assert cfg.graphs["g"].keys.shape == (0, 2)


def assert_same_graph(a, b):
    assert (a.n, a.d) == (b.n, b.d)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.weights, b.weights)


class TestBundledScenarios:
    """Facts about the shipped scenario files, which are the scenarios' one source."""

    def test_integral_static_is_first_period_average(self, cluster_cfg, integral_cfg):
        net = integral_network(cluster_cfg.schedule, Window(0, 3))
        assert_same_graph(integral_cfg.graphs["Gavg"], net.graph)

    @pytest.mark.parametrize("name", ["time_scaled_decay", "time_scaled_growth"])
    def test_time_scaled_base_is_connected_and_positive_definite(self, name):
        cfg = scenarios.load_builtin(name)
        base = cfg.graphs["base"]
        assert is_connected(base)
        assert all(c is Definiteness.POSITIVE_DEFINITE for c in base.classes)
        assert_same_graph(base, random_connected_pd_graph(4, 2, seed=1))
        x0 = np.random.default_rng(1001).uniform(0.0, 1.0, size=8)
        assert np.array_equal(cfg.initial_state, x0)


class TestWindowsSpec:
    def test_period_windows(self, cluster_cfg):
        ws = cluster_cfg.windows()
        assert len(ws) == 100
        assert ws[0] == Window(0, 3) and ws[-1] == Window(297, 300)

    def test_uniform_windows(self, tmp_path):
        doc = minimal_config_dict()
        doc["schedule"]["segments"] = [{"graph": "g", "dwell": 1.0}] * 5
        doc["windows"] = {"type": "uniform", "segments": 2}
        cfg = load_config(write_json(tmp_path, doc))
        assert cfg.windows() == [Window(0, 2), Window(2, 4), Window(4, 5)]

    def test_whole_window(self, tmp_path):
        cfg = load_config(write_json(tmp_path, minimal_config_dict()))
        assert cfg.windows() == [Window(0, 1)]

    @staticmethod
    def assert_windows_by_spec(path):
        """The loader's one window length cuts the schedule as the file's spec does."""
        doc = json.loads(path.read_text())
        cfg = load_config(path)
        spec = doc.get("windows", "period" if cfg.schedule.mode == "periodic" else "whole")
        assert cfg.windows() == windows_by_spec(spec, cfg.schedule)

    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_bundled_windows_match_their_spec(self, name):
        self.assert_windows_by_spec(scenarios.builtin_path(name))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_workload_windows_match_their_spec(self, tmp_path, seed):
        for workload, build in run_bundled.load_gen().BUILDERS.items():
            path = tmp_path / f"{workload}.json"
            build(seed).write(path)
            self.assert_windows_by_spec(path)

    def test_uniform_windows_of_every_length_match_their_spec(self, tmp_path):
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        N = doc["schedule"]["repetitions"] * len(doc["schedule"]["pattern"])
        for k in range(1, N + 2):
            doc["windows"] = {"type": "uniform", "segments": k}
            self.assert_windows_by_spec(write_json(tmp_path, doc))


class TestTrajectoryCsv:
    def test_header_and_roundtrip_precision(self, tmp_path, cluster_cfg):
        traj = simulate_exact(cluster_cfg.schedule, cluster_cfg.initial_state, 6.0, 1.0)
        p = tmp_path / "traj.csv"
        write_trajectory_csv(traj, p)
        lines = p.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[1] == "x_1_1" and header[-1] == "x_7_3"
        assert len(header) == 22
        row0 = np.array([float(v) for v in lines[1].split(",")])
        assert row0[0] == 0.0
        assert np.array_equal(row0[1:], cluster_cfg.initial_state)


    def test_writer_matches_row_formatter(self, tmp_path):
        times = np.array([0.0, 0.1, 1e-300, 2.0 / 3.0])
        states = np.array([[-0.0, 1e-300, -1.5e300, 0.1], [1.0, -0.0, 3.0, np.pi],
                           [2.0**-1074, -1e-300, 123456789.0, 1.0 / 3.0],
                           [0.0, 7.0, -2.5, 1e16]])
        traj = Trajectory(times=times, states=states, n=2, d=2)
        write_trajectory_csv(traj, tmp_path / "new.csv")
        write_trajectory_csv_rows(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert b",-0," in (tmp_path / "new.csv").read_bytes()

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (300, 20)], ids=["t-and-one", "narrow", "wide"])
    def test_writer_matches_savetxt_across_block_edges(self, tmp_path, n, d):
        per_block = max(1, _CSV_BLOCK_VALUES // (n * d + 1))
        special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 2.0**-1074, 1.0, -7.0, 123456789.0,
                   2.0**53, 1e16]
        rng = np.random.default_rng(5)
        for samples in sorted({1, per_block - 1, per_block, per_block + 1, 2 * per_block + 3} - {0}):
            shape = (samples, n * d)
            states = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            np.put(states, rng.permutation(states.size)[: len(special)], special)
            times = np.arange(samples) / 3.0
            traj = Trajectory(times=times, states=states, n=n, d=d)
            write_trajectory_csv(traj, tmp_path / "new.csv")
            write_trajectory_csv_savetxt(traj, tmp_path / "old.csv")
            new = (tmp_path / "new.csv").read_bytes()
            assert new == (tmp_path / "old.csv").read_bytes(), samples
            assert new.count(b"\n") == samples + 1

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(deadline=None, max_examples=300)
    def test_formatter_matches_percent_on_bit_patterns(self, bits):
        assert_formats_like_percent(np.array(bits, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=64))
    @settings(deadline=None, max_examples=300)
    def test_formatter_matches_percent_on_floats(self, values):
        assert_formats_like_percent(np.array(values, dtype=np.float64))

    def test_formatter_matches_percent_on_edge_cases(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        below = above = powers
        near = [powers]
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near += [below, above]
        special = [1e16, 1e17, 1e-4, 1e-5, 1e99, 1e100, 1e-100, 1000000000000000.25,
                   5e-324, MAX, 0.0, -0.0, np.inf, -np.inf, np.nan]
        values = np.concatenate([*near, special])
        assert_formats_like_percent(np.concatenate([values, -values]))

    def test_formatter_matches_percent_on_every_notation_and_digit_count(self):
        grid = format_grid()
        # every (notation, digit count) row of the mask table, as E -4..16, 2- or 3-digit exponent
        rows = {(e if -4 <= e <= 16 else 17 + (abs(e) >= 100), nd) for _, e, nd in grid
                if abs(e) < 300}
        assert rows == {(e, nd) for e in range(-4, 19) for nd in range(1, 18)}
        values = np.array([x for x, _, _ in grid] + [0.0])
        assert_formats_like_percent(np.concatenate([values, -values]))

    @pytest.mark.parametrize("shifted", [True, False], ids=["only-shifted", "none-shifted"])
    def test_formatter_matches_percent_with_and_without_a_moved_point(self, shifted):
        """A fixed-notation value has its point moved when a fraction follows 2 to 16 digits."""
        grid = format_grid()
        chosen = [x for x, e, nd in grid if (1 <= e <= 15 and nd > e + 1) == shifted]
        if shifted:
            assert {e for _, e, nd in grid if 1 <= e <= 15 and nd > e + 1} == set(range(1, 16))
        assert_formats_like_percent(np.array(chosen + [-x for x in chosen]))

    def test_formatter_sends_ties_and_out_of_range_values_to_percent(self, monkeypatch):
        sent = count_fallback(monkeypatch)
        ties = [1000000000000000.25, 0.5, 5e-324, 1e-300, 1e300, np.nan, 0.0, -0.0, 1.0]
        assert_formats_like_percent(np.array(ties))
        assert sent == [5]

    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_bundled_trajectories_need_no_fallback(self, tmp_path, capsys, monkeypatch, name):
        sent = count_fallback(monkeypatch)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(scenarios.builtin_path(name)), "--out", str(out)]) == 0
        assert out.stat().st_size > 0
        assert sent == [0]


class TestCli:
    def test_check_ok(self, capsys):
        rc = main(["check", "--config", str(scenarios.builtin_path("cluster_switching"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out and "finite recurring catalog: holds" in out

    def test_check_flags_generated_schedule(self, capsys):
        rc = main(["check", "--config", str(scenarios.builtin_path("time_scaled_growth"))])
        assert rc == 0
        assert "finite recurring catalog: violated" in capsys.readouterr().out

    def test_check_invalid_config(self, tmp_path, capsys):
        doc = minimal_config_dict()
        doc.pop("graphs")
        rc = main(["check", "--config", str(write_json(tmp_path, doc))])
        assert rc == 1
        assert "graphs" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["check", "--config", "/nonexistent/nope.json"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_writes_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "simulate",
                "--config", str(scenarios.builtin_path("cluster_switching")),
                "--out", "run.csv",
                "--horizon", "12",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "run.csv").read_text().strip().split("\n")
        assert lines[0].startswith("t,x_1_1")
        # grid {0..12} union switch instants {2,5,6,8,11} (all grid points here)
        times = [float(r.split(",")[0]) for r in lines[1:]]
        assert times == sorted(set([float(k) for k in range(13)] + [2.0, 5.0, 6.0, 8.0, 11.0]))

    def test_simulate_zero_edge_graph_constant_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = minimal_config_dict()
        doc["graphs"][0]["edges"] = []
        rc = main(["simulate", "--config", str(write_json(tmp_path, doc)), "--out", "flat.csv"])
        assert rc == 0
        rows = (tmp_path / "flat.csv").read_text().strip().split("\n")[1:]
        vals = {tuple(r.split(",")[1:]) for r in rows}
        assert len(vals) == 1

    def test_simulate_horizon_beyond_schedule_fails(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--config", str(scenarios.builtin_path("cluster_switching")),
                "--out", str(tmp_path / "x.csv"),
                "--horizon", "1e6",
            ]
        )
        assert rc == 1
        assert "exceeds schedule duration" in capsys.readouterr().err

    def test_simulate_infinite_sample_dt_fails_and_writes_nothing(self, tmp_path, capsys):
        # 0 * inf is NaN, so the t = 0 sample was lost and 300 samples started at t = 2
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--config", str(scenarios.builtin_path("cluster_switching")),
                   "--out", str(out), "--sample-dt", "inf"])
        assert rc == 1
        assert capsys.readouterr().err == "error: sample_dt must be positive and finite, got inf\n"
        assert not out.exists()

    def test_simulate_rk4_step_not_dividing_a_segment_fails_in_one_line(self, tmp_path, capsys):
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        doc["solver"] = {"method": "rk4", "step_h": 0.3}
        path = str(write_json(tmp_path, doc))
        assert main(["check", "--config", path]) == 1
        capsys.readouterr()
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: step_h = 0.3 does not divide segment 0 span 2.0\n"

    def test_simulate_rk4_past_stability_limit_fails_in_one_line(self, tmp_path, capsys):
        doc = json.loads(scenarios.builtin_path("time_scaled_growth").read_text())
        doc["solver"] = {"method": "rk4", "step_h": 0.5, "horizon": 100.0}
        path = str(write_json(tmp_path, doc))
        # check cannot foresee the divergence: it depends on the dynamics
        assert main(["check", "--config", path]) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: step_h = 0.5 makes RK4 diverge: the state is not finite "
                       "in segment 36 (start t = 36); use a smaller step_h\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "memory, solver, message",
        [
            (None, {"method": "rk4", "step_h": 0.3},
             "step_h = 0.3 does not divide segment 0 span 2.0"),
            # 60 floats a sample at n = 2, d = 1
            (2.0**34, {}, "sample_dt = 1.0 gives 1e+10 samples over horizon 10000000000.0: "
                          "4.8e+12 bytes, more than the host's 1.72e+10 bytes of physical memory"),
        ],
        ids=["rk4-step", "1e10-samples"],
    )
    def test_check_rejects_the_run_simulate_rejects(self, tmp_path, capsys, monkeypatch,
                                                    memory, solver, message):
        if memory is not None:
            monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: memory)
        doc = minimal_config_dict()
        doc["schedule"]["segments"] = [{"graph": "g", "dwell": 2.0 if memory is None else 1e10}]
        doc["solver"] = solver
        path = str(write_json(tmp_path, doc))
        errors = []
        for argv in (["check"], ["simulate", "--out", str(tmp_path / "x.csv")]):
            assert main([*argv, "--config", path]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {message}\n"] * 2
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize(
        "memory, solver, extra, message",
        [
            # 1e10 samples of the default sample_dt, 72 floats each
            (2.0**34, {}, [], "sample_dt = 1.0 gives 1e+10 samples over horizon 10000000000.0: "
                              "5.76e+12 bytes, more than the host's 1.72e+10 bytes of physical memory"),
            # the host's own memory against 1e19 samples, 5.76e21 bytes
            (None, {}, ["--sample-dt", "1e-9"], "sample_dt = 1e-09 gives 1e+19 samples over "
                                                "horizon 10000000000.0: 5.76e+21 bytes, more than "
                                                "the host's "),
            # 1e10 RK4 steps, 10 floats each
            (2.0**34, {"method": "rk4", "step_h": 1.0}, [],
             "step_h = 1.0 gives 1e+10 samples over horizon 10000000000.0: "
             "8e+11 bytes, more than the host's 1.72e+10 bytes of physical memory"),
            # horizon / sample_dt overflows, with memory the OS does not report
            (float("inf"), {}, ["--sample-dt", "1e-320"],
             "sample_dt = 1e-320 is too small for horizon 10000000000.0: "
             "the sample count overflows"),
        ],
        ids=["1e10-samples", "host-memory", "1e10-rk4-steps", "overflowing-count"],
    )
    def test_simulate_rejects_more_samples_than_memory_holds(self, tmp_path, capsys, monkeypatch,
                                                             memory, solver, extra, message):
        if memory is not None:
            monkeypatch.setattr("mwconsensus.sim._physical_memory", lambda: memory)
        doc = minimal_config_dict()
        doc["num_agents"] = 4
        doc["graphs"][0]["edges"] = [{"i": i, "j": i + 1, "weight": [[1.0]]} for i in (1, 2, 3)]
        doc["schedule"]["segments"] = [{"graph": "g", "dwell": 1e10}]
        doc["initial_state"] = [1.0, 2.0, 3.0, 4.0]
        doc["solver"] = solver
        path = str(write_json(tmp_path, doc))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", path, "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not out.exists()

    def test_analyze_report_content_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfgp = str(scenarios.builtin_path("bipartite_switching"))
        assert main(["analyze", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["analyze", "--config", cfgp, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["certified"] is True
        assert doc["m"] == 3
        assert doc["kind"] == "bipartite_consensus"
        assert doc["clusters"] == [[1, 2, 3], [4, 5, 6, 7]]
        assert doc["balance"] == {"positive": [1, 2, 3], "negative": [4, 5, 6, 7]}
        assert doc["pn_spanning_tree"] is True
        assert doc["necessary_condition_ok"] is True
        assert len(doc["basis"]) == 3 and len(doc["basis"][0]) == 21
        assert len(doc["windows"]) == 100
        edges = doc["edge_lists"][doc["windows"][0]["edge_list"]]
        edge_pairs = {(e["i"], e["j"]) for e in edges}
        assert edge_pairs == {(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 7)}

    def test_file_cluster_tol_reaches_analyze_and_simulate(self, tmp_path, capsys):
        """At cluster_tol 10 every agent of cluster_switching falls in one cluster."""
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        for cluster_tol, clusters in ((1e-6, [[1, 2, 3], [4, 6], [5, 7]]),
                                      (10.0, [[1, 2, 3, 4, 5, 6, 7]])):
            doc["tolerances"]["cluster_tol"] = cluster_tol
            path = str(write_json(tmp_path, doc))
            out = tmp_path / "r.json"
            assert main(["analyze", "--config", path, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["clusters"] == clusters
            capsys.readouterr()
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 0
            assert capsys.readouterr().out.endswith(f"final clusters: {clusters}\n")

    def test_file_ns_eq_tol_reaches_certification(self, tmp_path, capsys):
        """Two windows whose null spaces lie 1e-3 rad apart are equal only at a loose ns_eq_tol."""
        doc = minimal_config_dict()
        doc["dimension"] = 2
        doc["initial_state"] = [1.0, 0.0, 0.0, 1.0]
        theta = 1e-3
        v = [np.cos(theta), np.sin(theta)]
        doc["graphs"] = [
            {"id": "a", "edges": [{"i": 1, "j": 2, "weight": [[1.0, 0.0], [0.0, 0.0]]}]},
            {"id": "b", "edges": [{"i": 1, "j": 2, "weight": np.outer(v, v).tolist()}]},
        ]
        doc["schedule"]["segments"] = [{"graph": "a", "dwell": 1.0}, {"graph": "b", "dwell": 1.0}]
        doc["windows"] = {"type": "uniform", "segments": 1}
        out = tmp_path / "r.json"
        reports = []
        for ns_eq_tol in (1e-8, 0.1):
            doc["tolerances"] = {"ns_eq_tol": ns_eq_tol}
            assert main(["analyze", "--config", str(write_json(tmp_path, doc)),
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        distance = reports[0]["max_projector_distance"]
        assert distance == reports[1]["max_projector_distance"]
        assert 1e-8 < distance < 0.1
        assert [r["window_nullspaces_equal"] for r in reports] == [False, True]

    def test_analyze_window_with_the_whole_space_null_contracts_vacuously(self, tmp_path, capsys):
        doc = minimal_config_dict()
        doc["graphs"][0]["edges"] = []
        out = tmp_path / "r.json"
        assert main(["analyze", "--config", str(write_json(tmp_path, doc)), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["m"] == 2 and report["mu"] == [0.0] and report["q_estimate"] == 0.0
        assert report["steady_state"] == doc["initial_state"]

    def test_analyze_sign_conflict_exits_nonzero(self, tmp_path, capsys):
        doc = minimal_config_dict()
        doc["graphs"] = [
            {"id": "p", "edges": [{"i": 1, "j": 2, "weight": [[1.0]]}]},
            {"id": "n", "edges": [{"i": 1, "j": 2, "weight": [[-1.0]]}]},
        ]
        doc["schedule"] = {
            "type": "explicit",
            "alpha": 1.0,
            "segments": [{"graph": "p", "dwell": 1.0}, {"graph": "n", "dwell": 1.0}],
        }
        rc = main(["analyze", "--config", str(write_json(tmp_path, doc))])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sign" in err and "(1,2)" in err

    @pytest.mark.parametrize(
        "tolerances, cls", [({}, "positive_definite"), ({"eig_tol": 1e-3}, "positive_semidefinite")]
    )
    def test_check_classifies_edges_with_file_eig_tol(self, tmp_path, capsys, tolerances, cls):
        doc = minimal_config_dict()
        doc["dimension"] = 2
        doc["initial_state"] = [0.0] * 4
        doc["graphs"][0]["edges"][0]["weight"] = [[1.0, 0.0], [0.0, 1e-6]]
        doc["tolerances"] = tolerances
        assert main(["check", "--config", str(write_json(tmp_path, doc))]) == 0
        assert f"graph g: 1 edge(s) valid: (1,2) {cls}\n" in capsys.readouterr().out

    def test_edge_errors_name_the_one_based_edge_once(self, tmp_path, capsys):
        indefinite = minimal_config_dict()
        indefinite["dimension"] = 2
        indefinite["initial_state"] = [0.0] * 4
        indefinite["graphs"][0]["edges"][0]["weight"] = [[1.0, 0.0], [0.0, -1.0]]
        conflict = minimal_config_dict()
        conflict["graphs"].append({"id": "n", "edges": [{"i": 1, "j": 2, "weight": [[-1.0]]}]})
        conflict["schedule"]["segments"].append({"graph": "n", "dwell": 1.0})
        self_loop = minimal_config_dict()
        self_loop["graphs"][0]["edges"][0]["i"] = 2
        cases = [("check", indefinite, "(1,2)", ("(0,1)", "(0, 1)")),
                 ("analyze", conflict, "(1,2)", ("(0,1)", "(0, 1)")),
                 ("check", self_loop, "(2,2)", ("(1,1)", "node 1"))]
        for command, doc, shown, hidden in cases:
            rc = main([command, "--config", str(write_json(tmp_path, doc)),
                       *(["--out", str(tmp_path / "r.json")] if command == "analyze" else [])])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.count(shown) == 1, err
            assert not any(h in err for h in hidden), err

    @pytest.mark.parametrize(
        "weights, message",
        [
            # agent 1's Laplacian block sums three weights of half the float maximum
            ({(1, j): [[MAX / 2, 0.0], [0.0, MAX / 2]] for j in (2, 3, 4)},
             "graph 'G': node 1 Laplacian block overflows: its edge weights sum past the float range"),
            # finite entries, but the larger eigenvalue is 1.5 times the float maximum
            ({(1, 2): [[MAX, MAX / 2], [MAX / 2, MAX]]},
             "graph 'G': edge (1,2) weight overflows: its eigenvalues exceed the float range"),
            # finite weight, eigenvalues and blocks, but the Laplacian's largest eigenvalue
            # is 1.8 times the float maximum
            ({(1, 2): [[0.9 * MAX, 0.0], [0.0, 0.9 * MAX]]}, f"graph 'G': node 1 {TOO_LARGE}"),
        ],
        ids=["node-block", "eigenvalue", "laplacian-eigenvalue"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_weights_rejected_at_load(self, tmp_path, capsys, weights, message):
        path = write_json(tmp_path, overflow_config(weights))
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert str(exc.value) == message
        for command in ("check", "analyze", "simulate"):
            out = ["--out", str(tmp_path / "out")] if command != "check" else []
            assert main([command, "--config", str(path), *out]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "weights, scale, message",
        [
            # an entry of 1e10 scaled by 1e300
            ({(1, 2): (1e10 * np.eye(2)).tolist(), (2, 3): np.eye(2).tolist()}, 1e300,
             "edge (1,2) weight overflows"),
            # finite entries, eigenvalue 1.35 times the float maximum
            ({(1, 2): [[1.0, 0.5], [0.5, 1.0]]}, 0.9 * MAX,
             "edge (1,2) weight overflows: its eigenvalues exceed the float range"),
            # three finite averages that node 1's Laplacian block sums
            ({(1, j): np.eye(2).tolist() for j in (2, 3, 4)}, 0.4 * MAX,
             "node 1 Laplacian block overflows: its edge weights sum past the float range"),
            # a finite average whose Laplacian's largest eigenvalue would be 1.2 times the maximum
            ({(1, 2): np.eye(2).tolist()}, 0.6 * MAX, f"node 1 {TOO_LARGE}"),
        ],
        ids=["entry", "eigenvalue", "node-block", "laplacian-eigenvalue"],
    )
    # simulate decays an overflowing dose times eigenvalue to exp(-inf) = 0 without a warning
    @pytest.mark.filterwarnings("error")
    def test_overflowing_window_average_names_the_window(self, tmp_path, capsys, weights, scale,
                                                         message):
        doc = overflow_config(weights)
        doc["schedule"]["segments"][0]["scale"] = scale
        path = str(write_json(tmp_path, doc))
        assert main(["check", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        # each graph is connected, so the state ends at the consensus projection of x0; eigh
        # places the null vectors of the `entry` Laplacian (eigenvalues 1.5 and 2e10) within
        # about eps * 2e10 / 1.5 = 3e-6 of their direction
        x0 = np.array(doc["initial_state"]).reshape(-1, 2)
        final = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)[-1, 1:]
        assert np.allclose(final, np.tile(x0.mean(axis=0), len(x0)), rtol=0, atol=1e-4)
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message} in the average over window [0, 1)\n"

    @pytest.mark.parametrize(
        "segments, message",
        [
            # the dose scale * dwell of the one segment is 1e310
            ([{"graph": "G", "dwell": 1e10, "scale": 1e300}], "segment 0"),
            # each dwell is finite, their sum 2e308 is not
            ([{"graph": "G", "dwell": 1e308}] * 2, "segment 1"),
        ],
        ids=["dose", "duration"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_total_dwell_or_dose_rejected_at_load(self, tmp_path, capsys, segments,
                                                               message):
        doc = overflow_config({(1, 2): np.eye(2).tolist(), (2, 3): (2 * np.eye(2)).tolist()})
        doc["schedule"]["segments"] = segments
        path = str(write_json(tmp_path, doc))
        message = (f"schedule: {message} takes the total dwell or dose (scale * dwell) "
                   "past the float range")
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
        assert str(exc.value) == message and exc.value.field == "schedule.segments"
        for command, extra in (("check", []), ("analyze", ["--out", str(tmp_path / "r.json")]),
                               ("simulate", ["--out", str(tmp_path / "t.csv"), "--sample-dt", "5e9"])):
            assert main([command, "--config", path, *extra]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_simulate_rk4_records_every_step(self, tmp_path, capsys):
        doc = json.loads(scenarios.builtin_path("integral_static").read_text())
        doc["solver"]["method"] = "rk4"
        path = str(write_json(tmp_path, doc))
        out = tmp_path / "rk4.csv"
        assert main(["simulate", "--config", path, "--out", str(out), "--horizon", "2"]) == 0
        assert "simulated rk4 to t = 2 (2001 samples)" in capsys.readouterr().out
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        step_h = doc["solver"]["step_h"]
        assert len(rows) == round(2 / step_h) + 1
        assert np.allclose(rows[:, 0], step_h * np.arange(len(rows)), rtol=0, atol=1e-12)
        cfg = load_config(path)
        exact = simulate_exact(cfg.schedule, cfg.initial_state, 2.0, 1.0)
        # acceptance criterion c09's tolerance
        assert np.abs(rows[-1, 1:] - exact.final_state).max() < 1e-6

    @pytest.mark.parametrize("name", ["cluster_switching", "bipartite_switching", "integral_static"])
    def test_too_small_eig_tol_names_the_window_and_the_tolerance(self, tmp_path, capsys, name):
        assert_too_small_eig_tol_named(tmp_path, capsys, name)

    @pytest.mark.parametrize("name", ["cluster_switching", "bipartite_switching"])
    def test_too_small_eig_tol_names_the_window_with_the_pool_forced(self, tmp_path, capsys,
                                                                    pool_forced, name):
        assert_too_small_eig_tol_named(tmp_path, capsys, name)
        assert pool_forced

    def test_analyze_refuses_to_write_non_finite_report(self, tmp_path):
        cfg = load_config(write_json(tmp_path, minimal_config_dict()))
        cfg.initial_state = np.array([np.nan, 3.0])
        with pytest.raises(ValueError, match="JSON compliant"):
            cmd_analyze(cfg, "nan.json", str(tmp_path / "r.json"))
