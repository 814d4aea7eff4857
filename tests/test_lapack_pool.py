"""Independent LAPACK work run at the same time: ``matalg._map_lapack`` and its callers.

The path that runs one item at a time is the reference: every output of a
pooled run must be byte-identical to it, and every error must be raised at
the same point with the same text.
"""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mwconsensus import matalg, scenarios
from mwconsensus.analysis import certify_cluster_consensus
from mwconsensus.cli import main
from mwconsensus.config import load_config
from mwconsensus.errors import NotPSDError
from mwconsensus.switching import SwitchingSchedule

from conftest import force_pool
from randgen import random_connected_pd_graph

ROOT = Path(__file__).resolve().parent.parent


def synthetic_doc(segments: int = 9) -> dict:
    """n = 100, d = 3: two connected PD graphs alternating over ``segments``, in windows of 3."""
    graphs = []
    for k in range(2):
        g = random_connected_pd_graph(100, 3, seed=40 + k, extra_edges=60)
        edges = [{"i": i + 1, "j": j + 1, "weight": W.tolist()}
                 for (i, j), W in zip(g.keys.tolist(), g.weights)]
        graphs.append({"id": f"G{k + 1}", "edges": edges})
    dwells = np.random.default_rng(7).uniform(0.05, 0.1, size=segments)
    return {
        "dimension": 3,
        "num_agents": 100,
        "graphs": graphs,
        "schedule": {"type": "explicit", "alpha": 0.05,
                     "segments": [{"graph": f"G{k % 2 + 1}", "dwell": float(w)}
                                  for k, w in enumerate(dwells)]},
        "initial_state": np.random.default_rng(8).uniform(size=300).tolist(),
        "windows": {"type": "uniform", "segments": 3},
        "solver": {"method": "exact", "sample_dt": 0.05},
    }


def tmp_path_doc(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def synthetic_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("synthetic") / "synthetic.json"
    path.write_text(json.dumps(synthetic_doc()))
    return path


def run_outputs(config: Path, outdir: Path, capsys) -> dict[str, bytes]:
    """Each file and standard output of ``mwc analyze`` and ``mwc simulate``."""
    outdir.mkdir()
    out = {}
    for cmd, name in (("analyze", "report.json"), ("simulate", "trajectory.csv")):
        assert main([cmd, "--config", str(config), "--out", str(outdir / name)]) == 0
        out[name] = (outdir / name).read_bytes()
        out[cmd + ".stdout"] = capsys.readouterr().out.replace(str(outdir), "OUT").encode()
    return out


class TestMapLapack:
    def test_small_orders_and_single_items_stay_on_this_thread(self, monkeypatch):
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 4)
        where = lambda x: (x, threading.current_thread() is threading.main_thread())
        assert matalg._map_lapack(where, [1, 2, 3], matalg.POOL_MIN_ORDER - 1) == [
            (1, True), (2, True), (3, True)]
        assert matalg._map_lapack(where, [5], matalg.POOL_MIN_ORDER) == [(5, True)]
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 1)
        assert matalg._map_lapack(where, [1, 2], matalg.POOL_MIN_ORDER) == [(1, True), (2, True)]

    def test_pool_returns_in_item_order_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 2)
        before = threading.active_count()
        got = matalg._map_lapack(
            lambda x: (x * x, threading.current_thread() is threading.main_thread()),
            range(6), matalg.POOL_MIN_ORDER)
        assert got == [(x * x, False) for x in range(6)]
        assert threading.active_count() == before

    def test_first_error_in_item_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 3)

        def fail_odd(x):
            if x % 2:
                raise NotPSDError(f"item {x}")
            return x

        for order in (1, matalg.POOL_MIN_ORDER):
            with pytest.raises(NotPSDError, match="^item 1$"):
                matalg._map_lapack(fail_odd, range(5), order)

    @pytest.mark.parametrize("env, cpus, workers", [
        ({}, 2, 1),  # the BLAS's default: one thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "2"}, 8, 4),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 8, 2),
        ({"MKL_NUM_THREADS": "junk", "OMP_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ])
    def test_workers_are_cpus_over_blas_threads(self, monkeypatch, env, cpus, workers):
        for var in matalg._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert matalg._lapack_workers() == workers


class TestDecompose:
    def test_fills_the_cache_as_eig_of_would(self, cluster_cfg, pool_forced):
        s = cluster_cfg.schedule
        fresh = SwitchingSchedule(s.catalog, s.graph, s.dwell, s.scale, s.alpha)
        fresh.decompose(["G2", "G1", "G2"])
        assert pool_forced and sorted(fresh._eigs) == ["G1", "G2"]
        ref = SwitchingSchedule(s.catalog, s.graph, s.dwell, s.scale, s.alpha)
        for gid in ("G1", "G2"):
            for a, b in zip(fresh.eig_of(gid), ref.eig_of(gid)):
                assert a.tobytes() == b.tobytes()
        held = fresh._eigs["G1"]
        fresh.decompose(["G1"])
        assert fresh._eigs["G1"] is held

    def test_leaves_out_a_graph_that_is_not_psd(self, tmp_path, pool_forced):
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        doc["tolerances"] = {**doc.get("tolerances", {}), "eig_tol": 1e-16}
        s = load_config(tmp_path_doc(tmp_path, doc)).schedule
        s.decompose(s.ids)
        assert pool_forced and s._eigs == {}
        with pytest.raises(NotPSDError, match=r"^graph 'G2': Laplacian matrix is not PSD"):
            s.eig_of("G2")


class TestPooledOutputsAgainstOneAtATime:
    @pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
    def test_bundled_scenarios_byte_identical(self, tmp_path, capsys, monkeypatch, name):
        path = scenarios.builtin_path(name)
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 1)
        alone = run_outputs(path, tmp_path / "alone", capsys)
        pooled = force_pool(monkeypatch)
        assert run_outputs(path, tmp_path / "pooled", capsys) == alone
        # a catalog of one graph and one window leaves nothing to run at the same time
        assert bool(pooled) == (name in ("cluster_switching", "bipartite_switching"))

    @pytest.mark.parametrize("segments", [9, 12])
    def test_synthetic_two_graph_catalog_byte_identical(self, tmp_path, capsys, monkeypatch,
                                                        segments):
        # 3 or 4 windows of order 300 make 2 pairs, each forming the couplings both cross
        path = tmp_path_doc(tmp_path, synthetic_doc(segments))
        cfg = load_config(path)
        assert cfg.schedule.n * cfg.schedule.d >= matalg.POOL_MIN_ORDER
        crossed = [{(a, b) for w in cfg.windows()[k:k + 2]
                    for a, b in zip(cfg.schedule.graph[w.start:w.end - 1],
                                    cfg.schedule.graph[w.start + 1:w.end])}
                   for k in (0, 2)]
        assert crossed[0] & crossed[1]
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 1)
        alone = run_outputs(path, tmp_path / "alone", capsys)
        pooled = force_pool(monkeypatch)
        before = threading.active_count()
        assert run_outputs(path, tmp_path / "pooled", capsys) == alone
        assert pooled and threading.active_count() == before

    def test_more_workers_than_cores_with_short_switch_interval(self, monkeypatch, synthetic_path):
        cfg = load_config(synthetic_path)
        monkeypatch.setattr(matalg, "_lapack_workers", lambda: 1)
        ref = certify_cluster_consensus(cfg.schedule, cfg.windows())
        pooled = force_pool(monkeypatch, workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                cfg = load_config(synthetic_path)
                got = certify_cluster_consensus(cfg.schedule, cfg.windows())
                assert got.mu == ref.mu and got.q_estimate == ref.q_estimate
                assert got.basis.vectors.tobytes() == ref.basis.vectors.tobytes()
                assert got.max_projector_distance == ref.max_projector_distance
        finally:
            sys.setswitchinterval(interval)
        assert len(set(pooled)) > 1


class TestPooledErrors:
    @pytest.mark.parametrize("forced", [False, True])
    def test_first_run_not_the_first_catalog_graph(self, tmp_path, capsys, monkeypatch, forced):
        # every graph of this catalog fails at eig_tol 1e-16, so the first one asked for is named
        pooled = force_pool(monkeypatch) if forced else []
        doc = json.loads(scenarios.builtin_path("cluster_switching").read_text())
        doc["tolerances"] = {**doc.get("tolerances", {}), "eig_tol": 1e-16}
        pattern = doc["schedule"]["pattern"]
        doc["schedule"]["pattern"] = pattern[1:] + pattern[:1]  # runs G2, G3, G1
        path = str(tmp_path_doc(tmp_path, doc))
        culprit = r"Laplacian matrix is not PSD at eig_tol = 1e-16: min eigenvalue -\S+ < -\S+\n"
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: graph 'G2': {culprit}", err), err
        # a window's null space asks for its graphs in catalog order
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: window \[0, 3\): graph 'G1': {culprit}", err), err
        assert bool(pooled) == forced


def _subprocess_env() -> dict:
    path = [str(ROOT / "src"), os.path.dirname(os.path.dirname(np.__file__)),
            os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_import_loads_no_thread_module():
    # -S: the interpreter's site setup may load threading itself
    code = ("import sys, mwconsensus; "
            "print(sorted({'threading', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_pooled_analyze_warns_nothing(tmp_path, synthetic_path):
    code = (
        "import sys\n"
        "from mwconsensus import matalg\n"
        "from mwconsensus.cli import main\n"
        "matalg.POOL_MIN_ORDER = 1\n"
        "matalg._lapack_workers = lambda: 2\n"
        "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert main(['analyze', '--config', config, '--out', out]) == 0\n"
    )
    args = [str(synthetic_path), str(tmp_path / "synthetic.json"),
            str(scenarios.builtin_path("cluster_switching")), str(tmp_path / "cluster.json")]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
