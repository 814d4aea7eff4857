"""Scenario-file graphs loaded as whole arrays, against the per-edge parser they replace."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus import config, scenarios
from mwconsensus.errors import ConfigValidationError

from oracles import parse_graph_per_edge

# a small catalog: one edge of each definiteness class, some ends given high to low,
# and a one-edge graph, whose weights stack to one shape even when it is wrong
SYNTHETIC = [
    (4, 2, {"id": "S", "edges": [
        {"i": 1, "j": 2, "weight": [[2.0, 1.0], [1.0, 2.0]]},
        {"i": 3, "j": 2, "weight": [[-1.0, 0.0], [0.0, -3.0]]},
        {"i": 4, "j": 1, "weight": [[1.0, 1.0], [1.0, 1.0]]},
        {"i": 3, "j": 4, "weight": [[0.0, 0.0], [0.0, -1.0]]},
    ]}),
    (3, 1, {"id": "T", "edges": [{"i": 3, "j": 1, "weight": [[2.0]]}]}),
]


def catalog_entries():
    """``(n, d, eig_tol, graph entry)`` of every bundled graph, then of ``SYNTHETIC``."""
    out = []
    for name in scenarios.BUILTIN_NAMES:
        doc = json.loads(scenarios.builtin_path(name).read_text())
        tol = doc.get("tolerances", {}).get("eig_tol", 1e-9)
        out += [(doc["num_agents"], doc["dimension"], tol, g) for g in doc["graphs"]]
    return out + [(n, d, 1e-9, g) for n, d, g in SYNTHETIC]


ENTRIES = catalog_entries()
LEAVES = [math.nan, math.inf, -math.inf, "1", "a", True, False, 1.5, 2.0, 0, -1,
          10**30, -(10**30), 10**400, None, [], {}]


def outcome(parse, entry, n, d, eig_tol):
    """The graph's arrays, bit for bit, or the error's type, text and field."""
    try:
        gid, g = parse(copy.deepcopy(entry), n, d, eig_tol)
    except ConfigValidationError as exc:
        return ("error", str(exc), exc.field)
    return ("graph", gid, g.n, g.d, g.label, g.eig_tol, g.classes.tolist(),
            *((a.dtype.str, a.shape, a.tobytes()) for a in (g.keys, g.weights, g.signs)))


def mutate(entry: dict, n: int, d: int, data) -> None:
    """Apply one drawn mutation to ``entry`` in place."""
    kind = data.draw(st.sampled_from(
        ["leaf", "weight-leaf", "drop", "weight-shape", "duplicate", "self-loop",
         "out-of-range", "swap", "asymmetric", "zero", "edge-entry", "empty", "drop-entry"]))
    if kind == "empty":
        entry["edges"] = []
        return
    if kind == "drop-entry":
        entry.pop(data.draw(st.sampled_from(["id", "edges"])), None)
        return
    edges = entry.get("edges")
    if not isinstance(edges, list) or not edges:
        return
    k = data.draw(st.integers(0, len(edges) - 1))
    if kind == "edge-entry":
        edges[k] = data.draw(st.sampled_from([5, "e", [1, 2], None]))
        return
    if kind == "duplicate":
        e = copy.deepcopy(edges[k])
        if isinstance(e, dict) and "i" in e and "j" in e:
            e["i"], e["j"] = e["j"], e["i"]
        edges.insert(data.draw(st.integers(0, len(edges))), e)
        return
    e = edges[k]
    if not isinstance(e, dict):
        return
    if kind == "leaf":
        e[data.draw(st.sampled_from(["i", "j", "weight"]))] = data.draw(
            st.sampled_from([*LEAVES, n, n + 1]))
    elif kind == "drop":
        e.pop(data.draw(st.sampled_from(["i", "j", "weight"])), None)
    elif kind == "self-loop" and "i" in e:
        e["j"] = e["i"]
    elif kind == "out-of-range":
        e[data.draw(st.sampled_from(["i", "j"]))] = data.draw(st.sampled_from([0, n + 1]))
    elif kind == "swap" and "i" in e and "j" in e:
        e["i"], e["j"] = e["j"], e["i"]
    elif kind == "weight-shape":
        e["weight"] = data.draw(st.sampled_from([
            [[1.0] * d, [1.0] * (d + 1)],  # ragged
            [1.0] * d,  # 1-D
            1.0,
            np.eye(d + 1).tolist(),
            [],
        ]))
    elif kind == "zero":
        e["weight"] = np.zeros((d, d)).tolist()
    else:
        w = e.get("weight")
        if not (isinstance(w, list) and len(w) == d and all(isinstance(r, list) and len(r) == d
                                                            for r in w)):
            return
        r, c = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        if kind == "asymmetric":
            w[r][c] = w[r][c] + 0.5 if isinstance(w[r][c], float) else w[r][c]
        else:
            w[r][c] = data.draw(st.sampled_from(LEAVES))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_array_loader_matches_per_edge_oracle(data):
    n, d, eig_tol, entry = data.draw(st.sampled_from(ENTRIES))
    entry = copy.deepcopy(entry)
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(entry, n, d, data)
    assert outcome(config._parse_graph, entry, n, d, eig_tol) == outcome(
        parse_graph_per_edge, entry, n, d, eig_tol)


@pytest.mark.parametrize("n, d, eig_tol, entry", ENTRIES)
def test_valid_graphs_need_no_per_edge_scan(monkeypatch, n, d, eig_tol, entry):
    def scan(*args):
        raise AssertionError("a valid edge list was scanned edge by edge")

    monkeypatch.setattr(config, "_raise_edge_fault", scan)
    config._parse_graph(entry, n, d, eig_tol)


def test_graph_error_mapped_after_a_scan_that_finds_no_malformed_edge():
    edges = [{"i": 2, "j": 2, "weight": [[1.0]]}, {"i": 1, "j": 3, "weight": [[1.0]]}]
    assert config._raise_edge_fault("L", edges, 3, 1) is None
    with pytest.raises(ConfigValidationError) as exc:
        config._parse_graph({"id": "L", "edges": edges}, 3, 1, 1e-9)
    assert (str(exc.value), exc.value.field) == ("graph 'L': edge (2,2) is a self loop", "graphs")
    # an edge malformed on its own is named first, though it comes after the self loop
    edges.append({"i": 3, "j": 1, "weight": [[2.0]]})
    with pytest.raises(ConfigValidationError) as exc:
        config._parse_graph({"id": "L", "edges": edges}, 3, 1, 1e-9)
    assert (str(exc.value), exc.value.field) == ("graph 'L': duplicate edge (3,1)", "edges")
