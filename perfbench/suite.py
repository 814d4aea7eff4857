#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --workloads long_schedule --seeds 1-5 --seconds 10
    python3 perfbench/suite.py --seeds 11-20 --against .perfbench_work/suite-trace0.json

For every workload and metric it prints the median over the runs, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``,
and ``failed_frac`` over all commands.  ``--against`` compares each median
with the same metric in an earlier summary.  The summary is written to
``.perfbench_work/suite-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, help="earlier summary to compare medians with")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    baseline = json.loads(args.against.read_text()) if args.against else {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = {}
        print(f"\n{workload}: {len(runs)} runs, failed_frac {failed / attempted:g} "
              f"({failed} of {attempted} commands)")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": values}
            bound = m.get("bound")
            line = (f"  {m['name'] + ' (' + m['unit'] + ')':<44} {med:>12.6g} {q1:>12.6g} "
                    f"{q3:>12.6g} {spread:>8.4f} {bound if bound is not None else '':>6}")
            if bound is not None and spread >= bound / 3:
                line += "  spread above bound/3"
            old = baseline.get(workload, {}).get(m["name"])
            if old:
                change = med / old["median"] - 1.0 if old["median"] else 0.0
                worse = change if m["better"] == "lower" else -change
                line += f"  vs {old['median']:.6g}: {change:+.2%}"
                if bound is not None and worse > bound:
                    line += " WORSE THAN BOUND"
            print(line)
        summary[workload] = rows
        print()
    out = ROOT / ".perfbench_work" / f"suite-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"summary -> {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
