"""Tests for scripts/peak_rss.py."""

import re
import subprocess
import sys
from pathlib import Path

from mwconsensus import scenarios

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=120)


def test_prints_the_command_peak_and_passes_its_status_on(tmp_path):
    config = str(scenarios.builtin_path("integral_static"))
    proc = run("analyze", "--config", config, "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    mib = float(re.fullmatch(r"peak_rss_mib (\d+\.\d)\n", proc.stdout).group(1))
    assert 10.0 < mib < 1024.0  # an interpreter with numpy loaded, and no more
    assert (tmp_path / "r.json").is_file()
    proc = run("analyze", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 1 and proc.stdout.startswith("peak_rss_mib ")
    assert run().returncode == 2
