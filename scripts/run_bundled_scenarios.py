#!/usr/bin/env python3
"""Run every bundled scenario end to end: check, analyze, simulate.

Writes one analysis report (JSON) and one trajectory (CSV) per scenario into
the output directory, using the same code paths as the ``mwc`` command line.

Usage:
    python scripts/run_bundled_scenarios.py [--outdir runs] [--names a,b,...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mwconsensus import scenarios
from mwconsensus.cli import main as mwc


def run_one(name: str, outdir: Path) -> int:
    cfg_path = scenarios.builtin_path(name)
    print(f"=== {name} ===")
    rc = mwc(["check", "--config", str(cfg_path)])
    if rc == 0:
        rc = mwc(
            [
                "analyze",
                "--config", str(cfg_path),
                "--out", str(outdir / f"{name}_report.json"),
            ]
        )
    if rc == 0:
        args = [
            "simulate",
            "--config", str(cfg_path),
            "--out", str(outdir / f"{name}_trajectory.csv"),
        ]
        # the long time-scaled runs sample only starts/ends of segments, so
        # just reuse each scenario's own solver settings
        rc = mwc(args)
    print()
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("runs"))
    parser.add_argument(
        "--names",
        default=",".join(scenarios.BUILTIN_NAMES),
        help="comma-separated subset of bundled scenario names",
    )
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    failures = []
    for name in args.names.split(","):
        name = name.strip()
        if name not in scenarios.BUILTIN_NAMES:
            print(f"unknown scenario {name!r}; bundled: {', '.join(scenarios.BUILTIN_NAMES)}")
            return 2
        if run_one(name, args.outdir) != 0:
            failures.append(name)
    if failures:
        print(f"failed: {', '.join(failures)}")
        return 1
    print(f"all scenarios completed; outputs in {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
