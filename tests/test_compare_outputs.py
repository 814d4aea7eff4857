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
    # the largest |value| is x_2_1's 2 in the CSV and m's 2 in the report
    for last in ("  windows[].mu: 2 value(s), max abs 2.500e-01, max rel 1.000e+00",
                 "  x_2_1: 1 value(s), max abs 2.500e-01, max rel 1.429e-01"):
        assert lines[lines.index(last) + 1] == (
            "  every field: max abs 2.500e-01, largest |value| in the file 2.000e+00")
    assert "byte-identical (1): stdout.txt" in lines


def test_scale_line_reads_a_move_at_roundoff(tmp_path, capsys):
    csv = "t,x_1_1,x_2_1\n0,1,2\n1,0.5,1.5000000000000002\n"
    rc, out = run(capsys, *make_dirs(tmp_path, csv=csv))
    assert rc == 0
    lines = out.splitlines()
    assert lines[lines.index("a_trajectory.csv: 1 field(s) differ numerically") + 2] == (
        "  every field: max abs 2.220e-16, largest |value| in the file 2.000e+00")
    # an identical file gets no such line
    assert sum(line.startswith("  every field:") for line in lines) == 1


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


def test_text_only_change_fails(tmp_path, capsys):
    # each value parses equal; only its spelling changed
    old, new = make_dirs(tmp_path, csv="t,x_1_1,x_2_1\n0,1,2\n1,0.5,1.0000000000000001e-05\n")
    (old / "a_trajectory.csv").write_text("t,x_1_1,x_2_1\n0,1,2\n1,0.5,1e-05\n")
    (old / "a_report.json").write_text(json.dumps(REPORT, indent=2).replace("0.5", "5e-1"))
    rc, out = run(capsys, old, new)
    assert rc == 1
    lines = out.splitlines()
    assert "a_trajectory.csv: 0 field(s) differ numerically" in lines
    assert "a_report.json: 0 field(s) differ numerically" in lines
    assert lines.count("  structural: bytes differ, values equal") == 2


ENV = {"numpy": "2.0.0", "blas": {"name": "openblas", "version": "0.3"}, "cpus": 2,
       "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}}


@pytest.mark.parametrize("change, shown", [
    (None, None),
    (lambda e: e["threads"].update(OPENBLAS_NUM_THREADS="2"), "threads.OPENBLAS_NUM_THREADS: '1' -> '2'"),
    (lambda e: e.update(numpy="2.1.0"), "numpy: '2.0.0' -> '2.1.0'"),
    (lambda e: e.update(cpus=4), "cpus: 2 -> 4"),
], ids=["same", "threads", "numpy", "cpus"])
def test_a_different_environment_is_said_first(tmp_path, capsys, change, shown):
    old, new = make_dirs(tmp_path)
    env = json.loads(json.dumps(ENV))
    if change:
        change(env)
    (old / "environment.json").write_text(json.dumps(ENV))
    (new / "environment.json").write_text(json.dumps(env))
    rc, out = run(capsys, old, new)
    assert rc == 0
    lines = out.splitlines()
    if shown is None:
        assert not out.startswith("environment")
    else:
        assert lines[:2] == ["environment differs, so values can differ at roundoff with no "
                             "change to the code:", f"  {shown}"]
    # the record is not an output
    assert lines[-1] == "byte-identical (3): a_report.json, a_trajectory.csv, stdout.txt"


def test_a_missing_environment_record_is_said_first(tmp_path, capsys):
    old, new = make_dirs(tmp_path)
    (new / "environment.json").write_text(json.dumps(ENV))
    rc, out = run(capsys, old, new)
    assert rc == 0
    assert out.startswith(f"environment: no environment.json in {old}; ")
    assert out.splitlines()[-1] == "byte-identical (3): a_report.json, a_trajectory.csv, stdout.txt"
