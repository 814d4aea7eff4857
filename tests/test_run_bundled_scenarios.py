"""Tests for scripts/run_bundled_scenarios.py with benchmark workloads."""

import importlib.util
import json
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_bundled_scenarios.py"
_spec = importlib.util.spec_from_file_location("run_bundled_scenarios", SCRIPT)
run_bundled = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_bundled)


def test_workload_seed_runs_each_workload_like_a_bundled_scenario(tmp_path, capsys):
    argv = ["--outdir", str(tmp_path), "--names", "integral_static", "--workload-seeds", "1"]
    assert run_bundled.main(argv) == 0
    gen = run_bundled.load_gen()
    names = ["integral_static", *(f"{w}_seed1" for w in gen.BUILDERS)]
    outputs = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert outputs == sorted(["environment.json", *(f"{name}_{kind}" for name in names
                                                    for kind in ("check.txt", "report.json",
                                                                 "trajectory.csv"))])
    listing = (tmp_path / "integral_static_check.txt").read_text()
    assert listing.startswith("agents: 7, state dimension: 3\n") and listing.endswith("OK\n")
    assert "scenario:" not in listing and str(tmp_path) not in listing
    for workload, build in gen.BUILDERS.items():
        expected = build(1)
        assert (tmp_path / "workloads" / f"{workload}_seed1.json").read_text() == expected.text()
        text = (tmp_path / f"{workload}_seed1_report.json").read_text()
        report = json.loads(text)
        assert report["kind"] == expected.expected_kind
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_environment_records_the_numpy_build_and_blas_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert run_bundled.main(["--outdir", str(tmp_path), "--names", "integral_static"]) == 0
    record = json.loads((tmp_path / "environment.json").read_text())
    assert record["numpy"] == np.__version__
    assert record["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["threads"]["OMP_NUM_THREADS"] is None
    assert set(record["threads"]) == set(run_bundled.THREAD_VARIABLES)
    assert record["cpus"] >= 1
