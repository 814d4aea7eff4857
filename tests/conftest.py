import threading

import numpy as np
import pytest

from mwconsensus import matalg, scenarios


@pytest.fixture(scope="session")
def cluster_cfg():
    return scenarios.load_builtin("cluster_switching")


@pytest.fixture(scope="session")
def bipartite_cfg():
    return scenarios.load_builtin("bipartite_switching")


@pytest.fixture(scope="session")
def integral_cfg():
    return scenarios.load_builtin("integral_static")


@pytest.fixture(autouse=True)
def no_cgroup_limit(monkeypatch):
    """Bound memory by the host's physical memory alone, so memory messages read alike on any host."""
    monkeypatch.setattr("mwconsensus.sim._cgroup_memory", lambda: float("inf"))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def force_pool(monkeypatch, workers: int = 2) -> list[str]:
    """Send every ``matalg._map_lapack`` call of two or more items, whatever their order, to a pool.

    Returns a list that collects the name of each thread other than the main
    one that calls ``eigh`` or ``svd``.
    """
    monkeypatch.setattr(matalg, "POOL_MIN_ORDER", 1)
    monkeypatch.setattr(matalg, "_lapack_workers", lambda: workers)
    pooled: list[str] = []
    for name in ("eigh", "svd"):
        def spy(*args, _call=getattr(np.linalg, name), **kwargs):
            if threading.current_thread() is not threading.main_thread():
                pooled.append(threading.current_thread().name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return pooled


@pytest.fixture()
def pool_forced(monkeypatch):
    return force_pool(monkeypatch)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", None) != "call":
                continue
            if "test_acceptance.py" not in rep.nodeid:
                continue
            name = rep.nodeid.split("::")[-1]
            rows.append((name, "PASS" if status == "passed" else "FAIL"))
    if not rows:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status in sorted(rows):
        desc = CRITERIA.get(name, name)
        terminalreporter.write_line(f"{status}  {desc}")
