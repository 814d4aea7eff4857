"""Tests for scripts/compare_outputs.py on small hand-made output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

REPORT = {
    "certified": True,
    "kind": "consensus",
    "m": 2,
    "mu": [0.25, 0.5],
    "q_estimate": 0.5,
    "windows": [{"start": 0, "end": 1, "mu": 0.25}, {"start": 1, "end": 2, "mu": 0.5}],
}
CSV = "t,x_1_1,x_2_1\n0,1,2\n1,0.5,1.5\n"


def make_dirs(tmp_path, report=REPORT, csv=CSV, extra=None):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "a_trajectory.csv").write_text(CSV)
        (d / "a_report.json").write_text(json.dumps(REPORT, indent=2))
        (d / "stdout.txt").write_text("OK\n")
    (new / "a_trajectory.csv").write_text(csv)
    (new / "a_report.json").write_text(json.dumps(report, indent=2))
    if extra:
        (new / extra).write_text("")
    return old, new


def run(capsys, old, new):
    rc = compare_outputs.main([str(old), str(new)])
    return rc, capsys.readouterr().out


def test_identical_directories(tmp_path, capsys):
    rc, out = run(capsys, *make_dirs(tmp_path))
    assert rc == 0
    assert "byte-identical (3): a_report.json, a_trajectory.csv, stdout.txt" in out


def test_numeric_changes_report_each_field(tmp_path, capsys):
    report = json.loads(json.dumps(REPORT))
    report["mu"][1] = 0.5 + 1e-16
    report["windows"][1]["mu"] = 0.5 + 1e-16
    report["q_estimate"] = 0.5 + 1e-16
    report["windows"][0]["mu"] = 0.0
    csv = "t,x_1_1,x_2_1\n0,1,2\n1,0.5,1.75\n"
    rc, out = run(capsys, *make_dirs(tmp_path, report, csv))
    assert rc == 0
    lines = out.splitlines()
    assert "a_report.json: 3 field(s) differ numerically" in lines
    assert "  windows[].mu: 2 value(s), max abs 2.500e-01, max rel 1.000e+00" in lines
    assert "  mu[]: 1 value(s), max abs 1.110e-16, max rel 2.220e-16" in lines
    assert "  x_2_1: 1 value(s), max abs 2.500e-01, max rel 1.429e-01" in lines
    assert "byte-identical (1): stdout.txt" in lines


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda r: r.pop("kind"), "kind: key only in old"),
        (lambda r: r["mu"].append(0.1), "mu: length 2 -> 3"),
        (lambda r: r.update(kind="cluster_consensus"), "kind: 'consensus' -> 'cluster_consensus'"),
        (lambda r: r.update(certified=False), "certified: True -> False"),
        (lambda r: r.update(m=None), "m: 2 -> None"),
    ],
)
def test_structural_json_change_fails(tmp_path, capsys, mutate, needle):
    report = json.loads(json.dumps(REPORT))
    mutate(report)
    rc, out = run(capsys, *make_dirs(tmp_path, report))
    assert rc == 1
    assert f"  structural: {needle}" in out


@pytest.mark.parametrize(
    "csv, needle",
    [
        ("t,x_1_1,x_2_2\n0,1,2\n1,0.5,1.5\n", "header differs"),
        ("t,x_1_1,x_2_1\n0,1,2\n", "rows: 2 -> 1"),
        ("t,x_1_1,x_2_1\n0,1,2\n1,0.5\n", "row 2: length 3 -> 2, header 3"),
        ("t,x_1_1,x_2_1\n0,1,2\n1,0.5,oops\n", "x_2_1: 1.5 -> 'oops'"),
    ],
)
def test_structural_csv_change_fails(tmp_path, capsys, csv, needle):
    rc, out = run(capsys, *make_dirs(tmp_path, csv=csv))
    assert rc == 1
    assert f"  structural: {needle}" in out


def test_file_in_one_directory_only_fails(tmp_path, capsys):
    rc, out = run(capsys, *make_dirs(tmp_path, extra="b_report.json"))
    assert rc == 1
    assert "b_report.json: only in new" in out


def test_other_files_must_match_byte_for_byte(tmp_path, capsys):
    old, new = make_dirs(tmp_path)
    (new / "stdout.txt").write_text("OK.\n")
    rc, out = run(capsys, old, new)
    assert rc == 1
    assert "  structural: bytes differ (neither JSON nor CSV)" in out
