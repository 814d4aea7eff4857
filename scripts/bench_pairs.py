#!/usr/bin/env python3
"""Alternated benchmark pairs of a base commit and this checkout.

Exports ``--base`` with ``git archive`` into a temporary directory, then for
every workload and seed runs ``perfbench/run.py`` once in that export and
once in this checkout, each side with its own benchmark code.  Odd pairs run
the base first and even pairs the change first.  Only the last line of each
run's standard output, the benchmark's JSON result, is read.

When every run reports ``correct: true``, prints for each workload and
end-to-end metric of ``BENCHMARK.json`` both sides' medians and quartiles
(``statistics.quantiles(values, n=4)``), the change from the base median,
the number of pairs the change won (ties count for neither), whether a
gain holds: the change wins at least nine tenths of the pairs, and its median
is better than the base's by more than the base's interquartile range, and
the no-regression verdict against the metric's relative ``bound``:

* ``worse``: the change's median is worse than the base's by more than the
  bound, the relative change taken as ``perfbench/suite.py`` takes it;
* ``unresolved``: otherwise, the base's interquartile range over its median
  is at least the bound, so the runs spread too widely to tell, unless
  every change run beats every base run;
* ``ok``: neither.

Otherwise it names the incorrect runs and prints no summary.

Usage, from the root of the repository:
    python scripts/bench_pairs.py --base HEAD~1 --workloads long_schedule --seeds 501-510

The runs leave their records under each side's ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_suite_spec = importlib.util.spec_from_file_location("perfbench_suite",
                                                     ROOT / "perfbench" / "suite.py")
_suite = importlib.util.module_from_spec(_suite_spec)
_suite_spec.loader.exec_module(_suite)


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the tree at ``root``: its last line of output, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric of ``(base, change)`` result pairs: medians, quartiles, wins, verdicts."""
    rows = []
    for m in metrics:
        base = [b["metrics"][m["name"]]["value"] for b, _ in pairs]
        change = [c["metrics"][m["name"]]["value"] for _, c in pairs]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        b_q1, b_med, b_q3 = _quartiles(base)
        c_q1, c_med, c_q3 = _quartiles(change)
        rows.append({
            "name": m["name"], "unit": m["unit"],
            "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "rel": c_med / b_med - 1.0,
            "wins": wins, "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and sign * (b_med - c_med) > b_q3 - b_q1,
            "verdict": verdict(base, change, m["better"], m["bound"]),
        })
    return rows


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok``: the change's runs against the base's, within ``bound``."""
    b_q1, b_med, b_q3 = _quartiles(base)
    rel = statistics.median(change) / b_med - 1.0 if b_med else 0.0
    if (rel if better == "lower" else -rel) > bound:
        return "worse"
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    sign = 1.0 if better == "lower" else -1.0
    if spread >= bound and not all(sign * (b - c) > 0 for b in base for c in change):
        return "unresolved"
    return "ok"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def incorrect(pairs: list[tuple[dict, dict]], labels: list[str]) -> list[str]:
    """The labels of the runs whose result is not ``correct``, base then change per pair."""
    return [f"{label} {side}" for (b, c), label in zip(pairs, labels)
            for side, r in (("base", b), ("change", c)) if not r["correct"]]


def format_rows(workload: str, rows: list[dict]) -> str:
    def spread(side: dict) -> str:
        return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"

    lines = [f"{workload}: {rows[0]['pairs']} pairs",
             f"  {'metric':<22} {'base median [q1, q3]':<33} {'change median [q1, q3]':<33} "
             f"{'change':>8} {'wins':>6}  gain   verdict"]
    lines += [f"  {r['name'] + ' (' + r['unit'] + ')':<22} {spread(r['base']):<33} "
              f"{spread(r['change']):<33} {r['rel']:>+8.2%} {r['wins']:>3}/{r['pairs']:<2}  "
              f"{'holds' if r['gain'] else 'no':<5}  {r['verdict']}" for r in rows]
    return "\n".join(lines)


def export(ref: str, into: Path) -> None:
    """Write the files of commit ``ref`` into the directory ``into``."""
    tar = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(into, filter="data")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare this checkout with")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(args.base, Path(tmp))
        sides = {"base": Path(tmp), "change": ROOT}
        results = {}
        for workload in args.workloads.split(","):
            pairs, labels = [], []
            for k, seed in enumerate(_suite.parse_seeds(args.seeds)):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                got = {side: run_side(sides[side], workload, seed, args.seconds) for side in order}
                pairs.append((got["base"], got["change"]))
                labels.append(f"{workload} seed {seed}")
                print(f"{labels[-1]} ({order[0]} first): " + "  ".join(
                    f"{name} {got['base']['metrics'][name]['value']:.6g} -> "
                    f"{got['change']['metrics'][name]['value']:.6g}"
                    for name in got["change"]["metrics"]), flush=True)
            results[workload] = pairs, labels
    bad = [run for pairs, labels in results.values() for run in incorrect(pairs, labels)]
    if bad:
        print("no summary: incorrect output in " + ", ".join(bad), file=sys.stderr)
        return 1
    for workload, (pairs, _) in results.items():
        print("\n" + format_rows(workload, summarize(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
