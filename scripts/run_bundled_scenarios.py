#!/usr/bin/env python3
"""Run every bundled scenario end to end: check, analyze, simulate.

Writes one ``mwc check`` listing (``<name>_check.txt``), one analysis report
(JSON) and one trajectory (CSV) per scenario into the output directory, using
the same code paths as the ``mwc`` command line.  The listing leaves out the
``scenario:`` line, which names the file's path, so that listings made from
two checkouts compare byte for byte.
With ``--workload-seeds``, each benchmark workload of ``perfbench/gen.py`` is
also generated at each seed, written under ``OUTDIR/workloads/``, and run the
same way, as ``<workload>_seed<k>``; so one ``scripts/compare_outputs.py``
call covers the bundled files and the workloads.

The outputs are bitwise reproducible for one numpy build and one BLAS thread
setting; another thread count can move the last bits of the report's
``basis``, ``mu`` and ``steady_state`` and of every CSV state column.  So the
script also writes ``environment.json``: the numpy version, its BLAS
library, the number of CPUs the process may use, and each BLAS thread
variable (``null`` where unset, and the BLAS then picks its own count).

Usage:
    python scripts/run_bundled_scenarios.py [--outdir runs] [--names a,b,...]
                                            [--workload-seeds 1,2,3]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from mwconsensus import scenarios
from mwconsensus.cli import main as mwc

GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
ENVIRONMENT = "environment.json"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    """What the outputs' last bits depend on besides the code: the numpy build and BLAS threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):  # a numpy older than 1.26 only prints its configuration
        blas = None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpus": cpus,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def load_gen():
    """The benchmark's workload generator, imported from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up by name
    spec.loader.exec_module(gen)
    return gen


def run_one(name: str, cfg_path: Path, outdir: Path) -> int:
    print(f"=== {name} ===")
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        rc = mwc(["check", "--config", str(cfg_path)])
    print(listing.getvalue(), end="")
    lines = listing.getvalue().splitlines(keepends=True)
    (outdir / f"{name}_check.txt").write_text(
        "".join(line for line in lines if not line.startswith("scenario: ")))
    if rc == 0:
        rc = mwc(
            [
                "analyze",
                "--config", str(cfg_path),
                "--out", str(outdir / f"{name}_report.json"),
            ]
        )
    if rc == 0:
        # each scenario's own solver settings: the long time-scaled runs
        # sample only the starts and ends of segments
        rc = mwc(
            [
                "simulate",
                "--config", str(cfg_path),
                "--out", str(outdir / f"{name}_trajectory.csv"),
            ]
        )
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
    parser.add_argument(
        "--workload-seeds",
        default="",
        help="comma-separated seeds at which to generate and run every benchmark workload",
    )
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    (args.outdir / ENVIRONMENT).write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")

    runs = []
    for name in args.names.split(","):
        name = name.strip()
        if name not in scenarios.BUILTIN_NAMES:
            print(f"unknown scenario {name!r}; bundled: {', '.join(scenarios.BUILTIN_NAMES)}")
            return 2
        runs.append((name, scenarios.builtin_path(name)))
    seeds = [int(k) for k in args.workload_seeds.split(",") if k.strip()]
    if seeds:
        gen = load_gen()
        (args.outdir / "workloads").mkdir(exist_ok=True)
        for workload, build in gen.BUILDERS.items():
            for seed in seeds:
                name = f"{workload}_seed{seed}"
                path = args.outdir / "workloads" / f"{name}.json"
                build(seed).write(path)
                runs.append((name, path))

    failures = [name for name, path in runs if run_one(name, path, args.outdir) != 0]
    if failures:
        print(f"failed: {', '.join(failures)}")
        return 1
    print(f"all scenarios completed; outputs in {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
