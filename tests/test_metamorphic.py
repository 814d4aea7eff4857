"""Metamorphic relations: transformations of a scenario with a known effect on its report.

A relation needs no second implementation, only the transformation and what
it must leave alone:

* a change of time unit (weights times ``c``; dwells, ``alpha``, the horizon and
  the solver's steps divided by ``c``) leaves every dose, flow map and
  trajectory as it is, so every verdict, the limit and the samples;
* ``x0`` times ``c`` sends the limit to ``c`` times it, with the same pattern;
* weights times ``c`` with the schedule unchanged leave every null space, so
  ``m``, the structural diagnostics and the limit (only ``mu`` moves);
* one graph's doses times ``c``, its segment scales, leave every window's null
  space, which only the edges a window doses and their ranges decide;
* one catalog Laplacian times ``c`` leaves the intersection of the catalog's
  null spaces, which :func:`null_intersection` reads from each Laplacian over
  its own largest eigenvalue;
* a global rotation of coordinates, ``A -> R A R^T`` and ``x0 -> (I (x) R) x0``,
  written to the file as computed, so not exactly symmetric, and scaled by
  1e4, leaves every verdict;
* relabelling the agents relabels the clusters.

Each runs the bundled ``cluster_switching``, ``bipartite_switching`` and
``integral_static`` through the loader, certification, prediction and the
exact solver, for ``c`` from 1e-12 to 1e12.
"""

import json

import numpy as np
import pytest

from mwconsensus import scenarios
from mwconsensus.analysis import (
    _window_null_space,
    certify_cluster_consensus,
    null_intersection,
    predict_steady_state,
)
from mwconsensus.config import load_config
from mwconsensus.graph import laplacian
from mwconsensus.matalg import projector_distance
from mwconsensus.sim import simulate_exact

NAMES = ("cluster_switching", "bipartite_switching", "integral_static")
FACTORS = [10.0**k for k in range(-12, 13, 3)]
DOSES = [1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12]


def bundled(name: str) -> dict:
    return json.loads(scenarios.builtin_path(name).read_text())


def run(tmp_path, doc: dict):
    """The loaded scenario, its certification report and its prediction."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    report = certify_cluster_consensus(cfg.schedule, cfg.windows(), tol=cfg.tolerances)
    pred = predict_steady_state(report.basis, cfg.initial_state, cfg.num_agents, cfg.dimension,
                                tol=cfg.tolerances)
    return cfg, report, pred


def verdicts(report, pred) -> tuple:
    return (report.m, report.certified, pred.kind, pred.clusters, report.balance,
            report.pn_spanning_tree)


def close(got, want, rel: float) -> bool:
    return float(np.abs(got - want).max()) <= rel * float(np.abs(want).max())


def map_weights(doc: dict, f) -> dict:
    for g in doc["graphs"]:
        for e in g["edges"]:
            e["weight"] = f(np.array(e["weight"])).tolist()
    return doc


def in_time_unit(doc: dict, c: float) -> dict:
    """``doc`` with weights times ``c`` and every time divided by ``c``."""
    map_weights(doc, lambda W: c * W)
    sched = doc["schedule"]
    sched["alpha"] /= c
    for seg in sched.get("pattern", sched.get("segments")):
        seg["dwell"] /= c
    for key in ("horizon", "sample_dt", "step_h"):
        doc["solver"][key] /= c
    return doc


def dosed(doc: dict, gid: str, c: float) -> dict:
    """``doc`` with the scale of every segment of graph ``gid`` times ``c``."""
    sched = doc["schedule"]
    for seg in sched.get("pattern", sched.get("segments")):
        if seg["graph"] == gid:
            seg["scale"] = c * seg.get("scale", 1.0)
    return doc


def window_null_spaces(cfg, report) -> dict:
    """The null space of each window whose content no earlier window has, by window index."""
    first = {}
    for k, net in enumerate(report.integral_networks):
        first.setdefault(id(net), k)
    nets = report.integral_networks
    return {k: _window_null_space(cfg.schedule, nets[k], nets[k].graph._skeleton)
            for k in first.values()}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Each scenario's loaded config, report, prediction and exact trajectory as bundled."""
    tmp = tmp_path_factory.mktemp("base")
    out = {}
    for name in NAMES:
        cfg, report, pred = run(tmp, bundled(name))
        traj = simulate_exact(cfg.schedule, cfg.initial_state, cfg.horizon, cfg.solver.sample_dt)
        out[name] = cfg, report, pred, traj
    return out


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("c", FACTORS)
def test_time_unit_changes_no_verdict_limit_or_trajectory(tmp_path, base, name, c):
    _, report0, pred0, traj0 = base[name]
    cfg, report, pred = run(tmp_path, in_time_unit(bundled(name), c))
    assert verdicts(report, pred) == verdicts(report0, pred0)
    assert close(pred.steady_state, pred0.steady_state, 1e-13)
    traj = simulate_exact(cfg.schedule, cfg.initial_state, cfg.horizon, cfg.solver.sample_dt)
    assert traj.num_samples == traj0.num_samples == 601
    assert close(traj.final_state, traj0.final_state, 1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_state_scale_keeps_the_pattern(base, name):
    cfg, report0, pred0, _ = base[name]
    for c in FACTORS:
        pred = predict_steady_state(report0.basis, c * cfg.initial_state, cfg.num_agents,
                                    cfg.dimension, tol=cfg.tolerances)
        assert (pred.kind, pred.clusters) == (pred0.kind, pred0.clusters), c
        assert close(pred.steady_state, c * pred0.steady_state, 1e-13), c


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("c", FACTORS)
def test_weight_scale_keeps_the_null_space(tmp_path, base, name, c):
    _, report0, pred0, _ = base[name]
    _, report, pred = run(tmp_path, map_weights(bundled(name), lambda W: c * W))
    assert (report.m, report.balance, report.pn_spanning_tree) == (
        report0.m, report0.balance, report0.pn_spanning_tree)
    assert close(pred.steady_state, pred0.steady_state, 1e-13)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotated_weights_load_unsymmetrised_and_keep_the_verdicts(tmp_path, base, name, seed):
    _, report0, pred0, _ = base[name]
    doc = bundled(name)
    d = doc["dimension"]
    R, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    map_weights(doc, lambda W: (R @ W @ R.T) * 1e4)
    doc["initial_state"] = (np.array(doc["initial_state"]).reshape(-1, d) @ R.T).ravel().tolist()
    _, report, pred = run(tmp_path, doc)
    assert verdicts(report, pred) == verdicts(report0, pred0)
    rotated = (pred0.steady_state.reshape(-1, d) @ R.T).ravel()
    assert close(pred.steady_state, rotated, 1e-12)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_relabelled_agents_relabel_the_clusters(tmp_path, base, name, seed):
    _, report0, pred0, _ = base[name]
    doc = bundled(name)
    n, d = doc["num_agents"], doc["dimension"]
    p = np.random.default_rng(seed).permutation(n)  # agent i becomes agent p[i]
    for g in doc["graphs"]:
        for e in g["edges"]:
            e["i"], e["j"] = int(p[e["i"] - 1]) + 1, int(p[e["j"] - 1]) + 1
    x0 = np.empty((n, d))
    x0[p] = np.array(doc["initial_state"]).reshape(n, d)
    doc["initial_state"] = x0.ravel().tolist()
    _, report, pred = run(tmp_path, doc)
    assert (report.m, report.certified, pred.kind, report.pn_spanning_tree) == (
        report0.m, report0.certified, pred0.kind, report0.pn_spanning_tree)
    relabel = {frozenset(p[list(c)].tolist()) for c in pred0.clusters}
    assert {frozenset(c) for c in pred.clusters} == relabel
    if report0.balance is not None:
        sides = {frozenset(p[list(s)].tolist())
                 for s in (report0.balance.positive_set, report0.balance.negative_set)}
        assert {frozenset(report.balance.positive_set),
                frozenset(report.balance.negative_set)} == sides
    x_star = np.empty((n, d))
    x_star[p] = pred0.steady_state.reshape(n, d)
    assert close(pred.steady_state, x_star.ravel(), 1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_dose_ratios_keep_every_window_null_space(tmp_path, base, name):
    cfg0, report0, _, _ = base[name]
    want = window_null_spaces(cfg0, report0)
    for gid in [g["id"] for g in bundled(name)["graphs"]]:
        for c in DOSES:
            cfg, report, _ = run(tmp_path, dosed(bundled(name), gid, c))
            got = window_null_spaces(cfg, report)
            assert got.keys() == want.keys(), (gid, c)
            for k, basis in got.items():
                assert basis.dim == want[k].dim, (gid, c, k)
                assert projector_distance(basis, want[k]) <= 1e-12, (gid, c, k)


@pytest.mark.parametrize("name, dim", zip(NAMES, (5, 3, 5)))
def test_one_laplacian_scale_keeps_the_null_intersection(base, name, dim):
    laps = [laplacian(g) for g in base[name][0].graphs.values()]
    want = null_intersection(laps)
    assert want.dim == dim
    for i in range(len(laps)):
        for c in DOSES:
            got = null_intersection(laps[:i] + [c * laps[i]] + laps[i + 1:])
            assert got.dim == dim, (i, c)
            assert projector_distance(got, want) <= 1e-12, (i, c)


@pytest.mark.parametrize("c", DOSES)
def test_one_edge_scale_keeps_a_path_connected(c):
    # a threshold on the plain sum reads the lighter edge as null, dim 2, once the two
    # edges' scales are 1e10 apart
    ends = np.array([[1.0, -1.0], [-1.0, 1.0]])
    first, second = np.zeros((3, 3)), np.zeros((3, 3))
    first[:2, :2], second[1:, 1:] = ends, c * ends
    assert null_intersection([first, second]).dim == 1


def test_a_lightly_dosed_graph_keeps_m_and_is_not_certified(tmp_path):
    # G3 at 1e-10 contracts next to nothing, so the window is not certified; a threshold on
    # the dosed sum counted G3's edges as null, and read m = 9, certified
    _, report, _ = run(tmp_path, dosed(bundled("cluster_switching"), "G3", 1e-10))
    assert (report.m, report.certified) == (5, False)


def test_a_heavily_dosed_graph_certifies_the_limit_the_solver_reaches(tmp_path):
    # G1 at 1e12 left the others' edges below a threshold on the dosed sum, which read
    # m = 9 and certified a limit 0.8 from the exact state at the horizon
    cfg, report, pred = run(tmp_path, dosed(bundled("cluster_switching"), "G1", 1e12))
    assert (report.m, report.certified) == (5, True)
    traj = simulate_exact(cfg.schedule, cfg.initial_state, cfg.horizon, cfg.solver.sample_dt)
    assert float(np.abs(traj.final_state - pred.steady_state).max()) <= 1e-10
