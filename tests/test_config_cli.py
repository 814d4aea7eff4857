"""Tests for scenario files and the command-line interface."""

import json

import numpy as np
import pytest

from mwconsensus import scenarios
from mwconsensus.cli import cmd_analyze, main, write_trajectory_csv
from mwconsensus.config import dump_config, load_config, write_config
from mwconsensus.errors import ConfigParseError, ConfigValidationError
from mwconsensus.sim import simulate_exact
from mwconsensus.switching import Window


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


def write_json(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


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
        assert cfg.windows_spec == "whole"
        assert cfg.horizon == 2.0  # falls back to schedule duration

    def test_node_ids_one_based_in_files(self, tmp_path):
        cfg = load_config(write_json(tmp_path, minimal_config_dict()))
        assert cfg.graphs["g"].edge_keys == ((0, 1),)

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
        ],
        ids=["x0", "weight-nan", "weight-inf", "alpha", "dwell", "scale", "sample_dt",
             "step_h", "horizon", "eig_tol"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, mutate, field):
        doc = minimal_config_dict()
        mutate(doc)
        with pytest.raises(ConfigValidationError) as exc:
            load_config(write_json(tmp_path, doc))
        assert exc.value.field == field
        assert "finite" in str(exc.value)

    @pytest.mark.parametrize("key", ["eig_tol", "ns_eq_tol", "cluster_tol", "conv_tol"])
    @pytest.mark.parametrize("value", [-1, 0.0])
    def test_tolerances_must_be_positive(self, tmp_path, key, value):
        doc = minimal_config_dict()
        doc["tolerances"] = {key: value}
        with pytest.raises(ConfigValidationError, match="must be > 0") as exc:
            load_config(write_json(tmp_path, doc))
        assert exc.value.field == f"tolerances.{key}"

    def test_zero_edge_graph_is_valid(self, tmp_path):
        doc = minimal_config_dict()
        doc["graphs"][0]["edges"] = []
        cfg = load_config(write_json(tmp_path, doc))
        assert cfg.graphs["g"].edges == ()


class TestRoundTrip:
    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_load_write_load_is_identity(self, name, tmp_path):
        cfg = scenarios.load_builtin(name)
        out = tmp_path / "copy.json"
        write_config(cfg, out)
        again = load_config(out)
        assert again == cfg

    def test_dump_uses_one_based_ids(self):
        cfg = scenarios.load_builtin("cluster_switching")
        doc = dump_config(cfg)
        firsts = {(e["i"], e["j"]) for e in doc["graphs"][0]["edges"]}
        assert firsts == {(1, 2), (1, 3), (2, 3)}


    @pytest.mark.parametrize("name", sorted(scenarios.BUILTIN_BUILDERS))
    def test_builders_reproduce_shipped_files(self, name, tmp_path):
        out = tmp_path / f"{name}.json"
        write_config(scenarios.BUILTIN_BUILDERS[name](), out)
        assert out.read_bytes() == scenarios.builtin_path(name).read_bytes()


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
        edge_pairs = {(e["i"], e["j"]) for e in doc["windows"][0]["integral_edges"]}
        assert edge_pairs == {(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 7)}

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

    def test_analyze_refuses_to_write_non_finite_report(self, tmp_path):
        cfg = load_config(write_json(tmp_path, minimal_config_dict()))
        cfg.initial_state = np.array([np.nan, 3.0])
        with pytest.raises(ValueError, match="JSON compliant"):
            cmd_analyze(cfg, "nan.json", str(tmp_path / "r.json"))
