"""The analysis report: its table of distinct edge lists, its non-finite path, and ``--out`` checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus import analysis, cli, scenarios
from mwconsensus.analysis import certify_cluster_consensus
from mwconsensus.cli import _report_text, cmd_analyze, main
from mwconsensus.config import load_config
from mwconsensus.graph import _edge_structure, has_positive_negative_spanning_tree

from oracles import certify_per_window
from randgen import rand_graph

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
                  0.1, 1e16, 1e22, -123456.789]
SPECIAL_STRINGS = ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "日本", "😀", "\ud800", "</script>"]


def scalars():
    return (st.none() | st.booleans()
            | st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -(2**64) - 1, 10**40])
            | st.floats()  # not finite too
            | st.sampled_from(SPECIAL_FLOATS)
            | st.text(max_size=8) | st.sampled_from(SPECIAL_STRINGS))


def trees():
    return st.recursive(
        scalars(),
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(st.text(max_size=4) | st.sampled_from(SPECIAL_STRINGS),
                                            children, max_size=4)),
        max_leaves=24,
    )


def with_shared(shared, other):
    """``shared`` at depths 1, 2 (twice) and 3, beside ``other``."""
    return {"x": shared, "y": [shared, other, shared], "z": {"w": [shared]}, "o": other}


class TestMatchesTheStandardLibrary:
    @given(trees(), trees())
    @settings(deadline=None, max_examples=300)
    def test_non_finite_floats_raise_the_same_error_with_their_path(self, shared, other):
        doc = with_shared(shared, other)
        try:
            expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            with pytest.raises(ValueError) as new:
                _report_text(doc)
            assert str(new.value).startswith(f"{exc} at ")
        else:
            assert _report_text(doc) == expected

    @pytest.mark.parametrize("value, path", [
        (float("nan"), "steady_state[1]"), (float("inf"), "steady_state[1]"),
        (-float("inf"), "steady_state[1]"),
    ])
    def test_non_finite_value_names_its_key_path(self, value, path):
        doc = {"windows": [{"mu": 0.5}], "steady_state": [1.0, value, value]}
        with pytest.raises(ValueError) as exc:
            _report_text(doc)
        assert str(exc.value) == f"Out of range float values are not JSON compliant: {value!r} at {path}"
        doc = {"windows": [{"mu": 0.5}, {"mu": value}], "steady_state": [1.0]}
        with pytest.raises(ValueError, match=r"at windows\[1\]\.mu$"):
            _report_text(doc)


def capture_docs(monkeypatch):
    """The docs ``cmd_analyze`` hands to the writer, in order."""
    docs = []

    def report_text(doc):
        docs.append(doc)
        return _report_text(doc)

    monkeypatch.setattr(cli, "_report_text", report_text)
    return docs


def spy_edge_lists(monkeypatch):
    """A list that collects each integral network ``cli`` builds an edge list for."""
    built = []
    integral_edges = cli._integral_edges

    def build(net):
        built.append(net)
        return integral_edges(net)

    monkeypatch.setattr(cli, "_integral_edges", build)
    return built


def test_each_edge_list_is_built_and_encoded_once_per_distinct_network(tmp_path, capsys, monkeypatch):
    cfg = scenarios.load_builtin("cluster_switching")
    windows = cfg.windows()
    report = certify_cluster_consensus(cfg.schedule, windows)
    distinct = len({_edge_structure(net.graph) for net in report.integral_networks})
    assert len(windows) == 100 and distinct < 10
    built = spy_edge_lists(monkeypatch)
    doc = analyze(tmp_path, scenarios.builtin_path("cluster_switching"))
    assert len(built) == len(doc["edge_lists"]) == distinct
    assert len(doc["windows"]) == 100


def two_graph_doc() -> dict:
    """n = 6, d = 2: two mixed-sign graphs alternating with unequal dwells, in windows of 2.

    Every window doses both graphs, so the windows differ in their doses but
    share one integral edge structure, as the windows of ``large_network`` do.
    The edge signs follow one bipartition, so the windows are balanced.
    """
    rng = np.random.default_rng(11)
    sigma = [1, 1, -1, 1, -1, -1]
    signs = {(i, j): sigma[i] * sigma[j] for i in range(6) for j in range(i + 1, 6)}
    graphs = []
    for gid in ("G1", "G2"):
        g = rand_graph(rng, 6, 2, signs)
        graphs.append({"id": gid, "edges": [{"i": i + 1, "j": j + 1, "weight": W.tolist()}
                                            for (i, j), W in zip(g.keys.tolist(), g.weights)]})
    dwells = [1.0, 2.0, 1.5, 1.0, 3.0, 2.5, 1.25, 2.25]
    return {
        "dimension": 2,
        "num_agents": 6,
        "graphs": graphs,
        "schedule": {"type": "explicit", "segments": [{"graph": f"G{k % 2 + 1}", "dwell": w}
                                                      for k, w in enumerate(dwells)]},
        "initial_state": rng.uniform(-1, 1, size=12).tolist(),
        "windows": {"type": "uniform", "segments": 2},
    }


def test_windows_of_one_edge_structure_share_one_edge_list_and_diagnostics(tmp_path, capsys,
                                                                           monkeypatch):
    path = tmp_path / "two_graphs.json"
    path.write_text(json.dumps(two_graph_doc()))
    cfg = load_config(path)
    windows = cfg.windows()
    expected = certify_per_window(cfg.schedule, windows)
    assert len(windows) == 4 and len({net.duration for net in expected.integral_networks}) == 4
    spanning = []

    def spanning_tree(g):
        spanning.append(g)
        return has_positive_negative_spanning_tree(g)

    monkeypatch.setattr(analysis, "has_positive_negative_spanning_tree", spanning_tree)
    built = spy_edge_lists(monkeypatch)
    docs = capture_docs(monkeypatch)
    analyze(tmp_path, path)
    assert len(built) == len(spanning) == len(docs[0]["edge_lists"]) == 1
    assert [w["edge_list"] for w in docs[0]["windows"]] == [0] * 4
    report = certify_cluster_consensus(cfg.schedule, windows)
    assert len({id(net) for net in report.integral_networks}) == 4
    assert report.balance is not None
    assert (report.balance, report.pn_spanning_tree) == (expected.balance, expected.pn_spanning_tree)
    assert docs[0]["pn_spanning_tree"] == expected.pn_spanning_tree


def scenario_path(tmp_path, case: str):
    """The scenario file of ``case``: a bundled name, ``two_graphs`` for :func:`two_graph_doc`,
    or ``<bundled name>_uniform_<k>`` for that bundled file in windows of k segments."""
    if case == "two_graphs":
        doc = two_graph_doc()
    elif "_uniform_" in case:
        name, k = case.rsplit("_uniform_", 1)
        doc = json.loads(scenarios.builtin_path(name).read_text())
        doc["windows"] = {"type": "uniform", "segments": int(k)}
    else:
        return scenarios.builtin_path(case)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    return path


def analyze(tmp_path, path) -> dict:
    """The report ``mwc analyze`` writes for the scenario file at ``path``."""
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("case", [*scenarios.BUILTIN_NAMES, "two_graphs",
                                  "cluster_switching_uniform_4"])
def test_each_window_indexes_its_own_edge_list(tmp_path, capsys, case):
    path = scenario_path(tmp_path, case)
    doc = analyze(tmp_path, path)
    cfg = load_config(path)
    nets = certify_cluster_consensus(cfg.schedule, cfg.windows()).integral_networks
    assert len(doc["windows"]) == len(nets)
    for w, net in zip(doc["windows"], nets):
        assert doc["edge_lists"][w["edge_list"]] == cli._integral_edges(net)


def test_one_edge_list_per_distinct_edge_structure_in_order_of_first_use(tmp_path, capsys):
    # windows of 2 segments on a period of 3 graphs dose 3 pairs of graphs in turn
    path = scenario_path(tmp_path, "cluster_switching_uniform_2")
    doc = analyze(tmp_path, path)
    cfg = load_config(path)
    nets = certify_cluster_consensus(cfg.schedule, cfg.windows()).integral_networks
    structures = [_edge_structure(net.graph) for net in nets]
    first_use = list(dict.fromkeys(structures))
    assert len(nets) == 150 and len(first_use) == len(doc["edge_lists"]) == 3
    assert [w["edge_list"] for w in doc["windows"]] == [first_use.index(s) for s in structures]
    assert doc["edge_lists"] == [cli._integral_edges(nets[structures.index(s)]) for s in first_use]


def test_non_finite_report_names_its_field_and_writes_no_file(tmp_path, capsys):
    cfg = scenarios.load_builtin("integral_static")
    cfg.initial_state = np.where(np.arange(cfg.initial_state.size) == 4, np.nan, cfg.initial_state)
    out = tmp_path / "r.json"
    with pytest.raises(ValueError) as exc:
        cmd_analyze(cfg, "nan.json", str(out))
    assert str(exc.value) == "Out of range float values are not JSON compliant: nan at steady_state[0]"
    assert not out.exists()


@pytest.mark.parametrize("command, work", [("simulate", "simulate_exact"),
                                          ("analyze", "certify_cluster_consensus")])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_fails_in_one_line_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, work, where):
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, never)
    out = tmp_path / "no" / "dir" / "x.out" if where == "missing-directory" else tmp_path
    problem = (f"{out.parent} is not a directory" if where == "missing-directory"
               else "it is a directory")
    path = str(scenarios.builtin_path("integral_static"))
    assert main([command, "--config", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: cannot write the file: {problem}\n"
    assert captured.out == ""
    assert not (tmp_path / "no").exists()
