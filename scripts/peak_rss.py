#!/usr/bin/env python3
"""Peak resident memory of one ``mwc`` command, run from a small parent.

Runs ``python -m mwconsensus.cli ARGS...`` in a child process and prints the
child's ``ru_maxrss`` from ``os.wait4`` in MiB, then exits with the
command's status.  Linux carries a forking process's resident high-water mark
into the child across ``exec``, so the parent here imports nothing beyond the
standard library: its own peak stays far below any command's, and the number
printed is the command's.

Usage, from the root of the repository:
    python scripts/peak_rss.py analyze --config scenario.json --out report.json
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mib(argv: list[str]) -> tuple[float, int]:
    """Run ``mwc argv`` with its output discarded; return its peak RSS in MiB and its exit status."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen([sys.executable, "-m", "mwconsensus.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python scripts/peak_rss.py COMMAND [ARGS...]", file=sys.stderr)
        return 2
    mib, rc = peak_rss_mib(args)
    print(f"peak_rss_mib {mib:.1f}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
