"""Tests of the benchmark's own parts: spans, generator, output checks, wrappers.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import hashlib
import io
import json
import sys

import numpy as np
import pytest

import checks
import gen
import spans
from mwconsensus import cli, scenarios
from mwconsensus.analysis import certify_cluster_consensus
from mwconsensus.config import load_config

# small instances of each workload, so the tests run in seconds
SMALL = {
    "periodic_windows": dict(n=8, edges_per_graph=8, repetitions=5),
    "long_schedule": dict(intervals=300),
    "large_network": dict(n=12, segments=4, samples=40),
}


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(params=sorted(SMALL))
def small(request, tmp_path):
    """A small workload written to disk, with its reference and one run of each command."""
    w = gen.BUILDERS[request.param](7, **SMALL[request.param])
    path = tmp_path / "scenario.json"
    w.write(path)
    outs = {}
    for cmd in ("check", "analyze", "simulate"):
        out = tmp_path / f"{cmd}.out"
        argv = [cmd, "--config", str(path)] + ([] if cmd == "check" else ["--out", str(out)])
        stdout = run_cli(argv)
        outs[cmd] = (argv, stdout, out.read_bytes() if out.exists() else b"")
    return w, checks.reference(w), outs


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and c [8, 9];
    # a has child aa [2, 3]; self time subtracts the union of the children
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["aa", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 9.0, 0, 0],
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 1.0]


def test_layer_metrics_count_recursive_spans_once():
    rec = spans.Recorder()
    rec.spans = [
        ["f", 0.0, 4.0, -1, 0],
        ["f", 1.0, 2.0, 0, 0],
        ["g", 2.5, 3.0, 0, 0],
        ["f", 5.0, 6.0, -1, 1],
    ]
    rec.counters[(0, "bytes")] = 7
    rec.counters[(1, "bytes")] = 100
    m = spans.layer_metrics(rec, [0])
    assert m["f.s"] == 4.0
    assert m["f.calls"] == 2
    assert m["f.self_s"] == (4.0 - 1.5) + 1.0
    assert m["g.s"] == 0.5
    assert m["bytes"] == 7


@pytest.mark.parametrize("name", sorted(gen.BUILDERS))
def test_generator_is_deterministic(name, tmp_path):
    a, b = gen.BUILDERS[name](3), gen.BUILDERS[name](3)
    sha = a.write(tmp_path / "a.json")
    assert (tmp_path / "a.json").read_bytes() == b.text().encode()
    assert sha == hashlib.sha256(b.text().encode()).hexdigest()
    assert gen.BUILDERS[name](4).text() != a.text()
    load_config(tmp_path / "a.json")  # the program accepts it


def test_outputs_of_the_program_pass(small):
    w, ref, outs = small
    assert checks.check_stdout("check", outs["check"][1]) == []
    assert checks.check_report(outs["analyze"][2].decode(), ref) == []
    assert checks.check_csv(outs["simulate"][2].decode(), ref, w.n, w.d) == []


def _perturbed_report(text: str, edit) -> str:
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(kind="cluster_consensus"),
    lambda r: r.update(certified=not r["certified"]),
    lambda r: r.update(m=r["m"] + 1),
    lambda r: r.update(clusters=r["clusters"][::-1] + [[99]]),
    lambda r: r.update(pn_spanning_tree=False),
    lambda r: r.update(q_estimate=r["q_estimate"] * (1 + 1e-6)),
    lambda r: r["mu"].__setitem__(-1, r["mu"][-1] * (1 - 1e-6)),
    lambda r: r["steady_state"].__setitem__(0, r["steady_state"][0] + 1e-6),
    lambda r: r.update(q_estimate=float("nan")),
])
def test_perturbed_report_fails(small, edit):
    _, ref, outs = small
    assert checks.check_report(_perturbed_report(outs["analyze"][2].decode(), edit), ref)


def test_report_within_fast_path_roundoff_passes(small):
    _, ref, outs = small

    def edit(r):
        r["mu"] = [v * (1 + 2e-11) for v in r["mu"]]
        r["q_estimate"] *= 1 + 2e-11

    assert checks.check_report(_perturbed_report(outs["analyze"][2].decode(), edit), ref) == []


def test_perturbed_csv_fails(small):
    w, ref, outs = small
    lines = outs["simulate"][2].decode().splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-6)
    bad = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    assert checks.check_csv(bad, ref, w.n, w.d)
    truncated = "\n".join(lines[:-1]) + "\n"
    assert checks.check_csv(truncated, ref, w.n, w.d)


def _bindings():
    mods = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "mwconsensus"}
    state = {(name, attr): id(v) for name, m in mods.items() for attr, v in vars(m).items()}
    cls = sys.modules["mwconsensus.switching"].SwitchingSchedule
    state.update({("SwitchingSchedule", k): id(v) for k, v in vars(cls).items()})
    state.update({("numpy.linalg", k): id(getattr(np.linalg, k)) for k in spans.LAPACK})
    return state


def test_wrappers_leave_outputs_byte_identical_and_restore(small):
    _, _, outs = small
    before = _bindings()
    rec = spans.Recorder()
    with spans.Instrumented(rec):
        assert _bindings() != before
        for cmd, (argv, stdout, data) in outs.items():
            rec.run += 1
            assert run_cli(argv) == stdout
            if cmd != "check":
                with open(argv[-1], "rb") as f:
                    assert f.read() == data
    assert _bindings() == before
    names = {s[0] for s in rec.spans}
    assert {"cli.main", "config.load_config", "switching.SwitchingSchedule",
            "switching.integral_network", "analysis.mu_m_plus_1", "sim.simulate_exact",
            "cli.write_trajectory_csv", "lapack.svd"} <= names
    # analysis binds integral_network with ``from .switching import ...``
    assert sum(1 for s in rec.spans if s[0] == "switching.integral_network") == len(
        json.loads(outs["analyze"][2])["windows"])


def test_lapack_counts_repeat_for_bundled_certification():
    # Reproduces the ROADMAP figure: certifying cluster_switching on a freshly
    # loaded schedule makes 2,408 eigvalsh calls; 2,400 of them inside
    # integral_network and 8 for the catalog Laplacians the schedule caches.
    counts = []
    for _ in range(2):
        cfg = scenarios.load_builtin("cluster_switching")
        rec = spans.Recorder()
        with spans.Instrumented(rec):
            certify_cluster_consensus(cfg.schedule, cfg.windows())
        m = spans.layer_metrics(rec, [rec.run])
        counts.append({k: m[f"lapack.{k}.calls"] for k in spans.LAPACK})
    assert counts[0] == counts[1] == {"eigh": 103, "eigvalsh": 2408, "svd": 100}
