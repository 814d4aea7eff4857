"""Tests for scripts/bench_pairs.py on canned benchmark result lines; no benchmark runs."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = [m for m in END_TO_END if m["name"] in ("simulate_s", "success_frac")]


def line(simulate_s, success_frac=1.0, correct=True):
    """A last line of ``perfbench/run.py``'s output; metrics other than these two read 1."""
    values = {"simulate_s": simulate_s, "success_frac": success_frac}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]} for m in END_TO_END}})


def pairs_of(base, change):
    return [(json.loads(line(b)), json.loads(line(c))) for b, c in zip(base, change)]


BASE = [0.0280, 0.0275, 0.0282, 0.0278, 0.0281, 0.0279, 0.0277, 0.0283, 0.0276, 0.0280]


def row(pairs, name="simulate_s"):
    return next(r for r in bench_pairs.summarize(pairs, METRICS) if r["name"] == name)


def test_nine_wins_of_ten_and_a_gap_past_the_base_iqr_hold():
    change = [b * 0.85 for b in BASE]
    change[3] = 0.0290  # one lost pair
    r = row(pairs_of(BASE, change))
    assert (r["wins"], r["pairs"], r["gain"]) == (9, 10, True)
    assert abs(r["base"]["median"] - 0.02795) < 1e-12
    assert r["base"]["q1"] < r["base"]["median"] < r["base"]["q3"]
    assert abs(r["rel"] - (r["change"]["median"] / r["base"]["median"] - 1)) < 1e-15


def test_eight_wins_do_not_hold():
    change = [b * 0.85 for b in BASE]
    change[3] = change[7] = 0.0290
    r = row(pairs_of(BASE, change))
    assert (r["wins"], r["gain"]) == (8, False)


def test_a_gap_inside_the_base_iqr_does_not_hold_though_every_pair_wins():
    change = [b - 0.00001 for b in BASE]
    r = row(pairs_of(BASE, change))
    assert (r["wins"], r["gain"]) == (10, False)


def test_ties_count_for_neither_side_and_higher_is_better_where_the_metric_says():
    r = row(pairs_of(BASE, BASE))
    assert (r["wins"], r["gain"]) == (0, False)
    pairs = [(json.loads(line(b, 0.9)), json.loads(line(b, 1.0))) for b in BASE]
    r = row(pairs, "success_frac")
    assert (r["wins"], r["gain"]) == (10, True)


def test_verdict_is_ok_within_the_bound_and_worse_past_it():
    bound = next(m["bound"] for m in METRICS if m["name"] == "simulate_s")
    assert row(pairs_of(BASE, BASE))["verdict"] == "ok"
    assert row(pairs_of(BASE, [b * (1 + bound - 0.01) for b in BASE]))["verdict"] == "ok"
    assert row(pairs_of(BASE, [b * (1 + bound + 0.01) for b in BASE]))["verdict"] == "worse"
    # a gain is never worse
    assert row(pairs_of(BASE, [b * 0.5 for b in BASE]))["verdict"] == "ok"


def test_verdict_on_a_higher_is_better_metric():
    pairs = [(json.loads(line(b, 1.0)), json.loads(line(b, 0.98))) for b in BASE]
    assert row(pairs, "success_frac")["verdict"] == "worse"  # 2% worse, past the bound of 1%
    pairs = [(json.loads(line(b, 1.0)), json.loads(line(b, 0.995))) for b in BASE]
    assert row(pairs, "success_frac")["verdict"] == "ok"


def test_verdict_is_unresolved_where_the_base_spreads_as_wide_as_the_bound():
    wide = [0.020, 0.030, 0.021, 0.029, 0.022, 0.028, 0.023, 0.027, 0.024, 0.026]
    r = row(pairs_of(wide, wide))
    assert (r["base"]["q3"] - r["base"]["q1"]) / r["base"]["median"] >= 0.24
    assert r["verdict"] == "unresolved"
    # unless every change run beats every base run
    assert row(pairs_of(wide, [0.0195] * 10))["verdict"] == "ok"
    assert row(pairs_of(wide, [0.0195] * 9 + [0.0201]))["verdict"] == "unresolved"
    # a median worse by more than the bound is worse, however wide the spread
    assert row(pairs_of(wide, [b * 1.3 for b in wide]))["verdict"] == "worse"


def test_reads_only_the_last_line_of_a_run(monkeypatch):
    out = "workload long_schedule  seed 1\n  simulate_s median 0.03 s\nenv {}\n" + line(0.027) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, out, ""))
    result = bench_pairs.run_side(Path("."), "long_schedule", 1, 30)
    assert result["metrics"]["simulate_s"]["value"] == 0.027


def fake_runs(monkeypatch, lines):
    """Make main export nothing and take its runs' last lines from ``lines`` in call order."""
    calls = []

    def run_side(root, workload, seed, seconds):
        calls.append((root == bench_pairs.ROOT, seed))
        return json.loads(lines[len(calls) - 1])

    monkeypatch.setattr(bench_pairs, "export", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    return calls


def test_alternates_the_first_side_and_prints_a_summary(monkeypatch, capsys):
    lines = [line(0.028), line(0.023), line(0.022), line(0.029)]
    calls = fake_runs(monkeypatch, lines)
    assert bench_pairs.main(["--workloads", "long_schedule", "--seeds", "1-2"]) == 0
    assert calls == [(False, 1), (True, 1), (True, 2), (False, 2)]
    out = capsys.readouterr().out
    assert re.search(r"^long_schedule seed 1 \(base first\): .*simulate_s 0.028 -> 0.023", out, re.M)
    assert re.search(r"^long_schedule seed 2 \(change first\): .*simulate_s 0.029 -> 0.022", out, re.M)
    assert "long_schedule: 2 pairs" in out
    assert "simulate_s (s)" in out and "2/2" in out
    assert re.search(r"^  simulate_s \(s\) .* 2/2 +holds +ok$", out, re.M)


def test_refuses_to_summarize_an_incorrect_run(monkeypatch, capsys):
    lines = [line(0.028), line(0.023), line(0.022, correct=False), line(0.029)]
    fake_runs(monkeypatch, lines)
    assert bench_pairs.main(["--workloads", "long_schedule", "--seeds", "1-2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "no summary: incorrect output in long_schedule seed 2 change\n"
    assert "pairs" not in captured.out
