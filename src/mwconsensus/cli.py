"""Command-line front end: validate, simulate, or analyze a scenario file.

Three subcommands share one interface::

    mwc check    --config scenario.json
    mwc simulate --config scenario.json [--out traj.csv] [--horizon T] [--sample-dt S]
    mwc analyze  --config scenario.json [--out report.json]

``check`` validates the file and reports which modeling hypotheses hold.
``simulate`` integrates the protocol and writes the sampled trajectory as
CSV.  ``analyze`` runs window-level certification and steady-state
prediction, writing a JSON report.  Outputs are bitwise reproducible for
identical inputs under one numpy build and one BLAS thread setting; another
BLAS thread count can change the last bits of the report's basis, mu and
steady state and of the trajectory's states.  Node ids are 1-based in every
file and message.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    certify_cluster_consensus,
    group_clusters,
    predict_steady_state,
    verify_necessary_condition,
)
from .config import ScenarioConfig, check_laplacian_memory, load_config
from .errors import ConsensusToolError, OutputError
from .graph import _edge_structure
from .matalg import canonical_basis
from .sim import Trajectory, check_run, simulate_exact, simulate_rk4
from .switching import IntegralNetwork, validate_schedule


_CSV_BLOCK_VALUES = 8192


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write ``t, x_1_1, ..., x_n_d`` rows with 17 significant digits.

    The bytes are those ``np.savetxt`` writes with ``fmt="%.17g"`` and
    ``delimiter=","``.  Rows go to :func:`_format_17g` a block of about
    ``_CSV_BLOCK_VALUES`` values at a time.
    """
    cols = [f"x_{i + 1}_{k + 1}" for i in range(traj.n) for k in range(traj.d)]
    width = len(cols) + 1
    step = max(1, _CSV_BLOCK_VALUES // width)
    line_end = np.arange(step * width) % width == width - 1
    with open(path, "wb") as f:
        f.write(("t," + ",".join(cols) + "\n").encode("ascii"))
        for a in range(0, traj.num_samples, step):
            block = np.column_stack((traj.times[a : a + step], traj.states[a : a + step])).ravel()
            f.write(_format_17g(block, line_end[: block.size]))


@functools.cache
def _pow10(k: int) -> tuple[float, float]:
    """``10**k`` as a double-double ``hi + lo``, each part correctly rounded."""
    p = 10 ** abs(k)
    if k >= 0:
        hi = float(p)
        return hi, float(p - int(hi))
    hi = 1 / p  # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * p) / (den * p)


def _split(x):
    """Dekker's split of doubles into 26-bit halves: ``x == hi + lo`` exactly."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _words(rows) -> np.ndarray:
    """Rows of 4k bytes as little-endian uint32 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u4")


# _format_17g lays each value out in one 48-byte row, then drops bytes by mask:
#   0 sign  1-5 "0.000"  6 digit 1  7 "."  8-23 digits 2-17  24 "e"  25 exponent sign
#   26 exponent hundreds  27 "."  28-43 digits 2-17 again  44-45 exponent tens, units
#   46 separator  47 never kept
@functools.cache
def _format_17g_tables():
    q = np.arange(10000)
    group = _words(np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + 48).ravel()
    trailing = (q % 10 == 0).astype(np.int8) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    head = _words([[45, 48, 46, 48]])[0, 0]
    lead = _words([[48, 48, 48 + g, 46] for g in range(10)]).ravel()
    exp_head = _words([[101, s, 48 + h, 46] for s in (43, 45) for h in range(10)]).ravel()
    exp_tail = _words([[48 + e // 10, 48 + e % 10, s, 0] for e in range(100) for s in (44, 10)]).ravel()
    # kept bytes per (sign, case, number of significant digits); the cases are
    # fixed notation with exponent -4..16, exponent notation with 2 or 3
    # exponent digits, and zero
    pos = np.arange(48)
    nd = np.arange(1, 18)[:, None]
    first = (pos == 6) | ((pos >= 8) & (pos < 7 + nd))
    cases = []
    for e in range(-4, 17):
        if e < 0:
            cases.append(((pos >= 1) & (pos <= 1 - e)) | first)
        elif e == 0:
            cases.append(first | ((pos == 7) & (nd > 1)))
        else:
            cases.append((pos == 6) | ((pos >= 8) & (pos <= 7 + e)) | ((pos == 27) & (nd > e + 1))
                         | ((pos >= 28 + e) & (pos < 27 + nd)))
    expo = first | ((pos == 7) & (nd > 1)) | np.isin(pos, (24, 25, 44, 45))
    cases += [expo, expo | (pos == 26), np.broadcast_to(pos == 1, (17, 48))]
    keep = np.stack([np.stack(cases)] * 2) | (pos == 46)
    keep[1, :, :, 0] = True
    mask = _words(keep.reshape(-1, 48) * np.uint8(255)).view("V48").ravel()
    return group, trailing, head, lead, exp_head, exp_tail, mask


def _format_17g_slow(values: np.ndarray) -> list[bytes]:
    """``'%.17g' % x`` for each value: the values :func:`_format_17g` cannot spell."""
    return [b"%.17g" % v for v in values.tolist()]


def _format_17g(values: np.ndarray, line_end: np.ndarray) -> bytes:
    """``'%.17g' % x`` for each float, followed by ``"\\n"`` where ``line_end`` is set, else ``","``.

    For ``1e-270 < |x| < 1e290``, ``E = floor(log10 |x|)`` and the 17 digits are
    ``D = round(|x| 10**(16 - E))``, with the power held as a double-double and
    the product split exactly by Dekker's method, so ``|x| 10**(16 - E)`` is
    known within 2**-44.  A value whose fraction lies within 2**-30 of one half
    (a tie, rounded to even by ``%``), whose ``E`` was off by one (the product
    outside ``[10**16, 10**17)``), or that lies outside that range (zero aside,
    subnormals and non-finite values) is spelled by :func:`_format_17g_slow`.
    Blocks of a few thousand values keep the temporaries near a megabyte.
    """
    group, trailing, head, lead, exp_head, exp_tail, mask = _format_17g_tables()
    n = values.size
    a = np.abs(values)
    fast = (a > 1e-270) & (a < 1e290)
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    emin = int(E.min())
    power = np.array([_pow10(16 - e) for e in range(emin, int(E.max()) + 1)])
    j = E - emin
    ph, pl = _split(power[:, 0])
    ph, pl = ph.take(j), pl.take(j)
    ah, al = _split(a)
    p = a * power[:, 0].take(j)
    c = (((ah * ph - p) + ah * pl + al * ph) + al * pl) + a * power[:, 1].take(j)
    r = np.rint(c)  # p, near 1e16 > 2**53, is an integer: c holds the fraction
    D = p.astype(np.int64) + r.astype(np.int64)
    ok = fast & (np.abs(np.abs(c - r) - 0.5) >= 2.0**-30) & (D < 10**17)
    ok &= (D > 10**16) | ((D == 10**16) & (c >= r))
    D[~ok] = 10**16  # keeps the digit arithmetic in range; these rows are replaced
    top = (D // 10**8).astype(np.int32)
    low = (D - top * np.int64(10**8)).astype(np.int32)
    g0 = top // 10**8
    mid = top - g0 * 10**8
    g1 = mid // 10000
    g2 = mid - g1 * 10000
    g3 = low // 10000
    g4 = low - g3 * 10000
    tz = trailing.take(g4)
    idx = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        gi = g.take(idx)
        tz[idx] += trailing.take(gi)
        idx = idx[gi == 0]
    absE = np.abs(E)
    hundreds = absE // 100
    text = np.empty((n, 48), np.uint8)
    words = text.view("<u4")
    words[:, 0] = head
    words[:, 1] = lead.take(g0)
    for w, g in enumerate((g1, g2, g3, g4), start=2):
        words[:, w] = group.take(g)
    words[:, 6] = exp_head.take((E < 0) * 10 + hundreds)
    text[:, 28:44].view("V16")[...] = text[:, 8:24].view("V16")
    words[:, 11] = exp_tail.take((absE - hundreds * 100) * 2 + line_end)
    case = np.where((E < -4) | (E > 16), 21 + (hundreds > 0), E + 4)
    zero = values == 0
    case[zero] = 23
    words &= mask.take((np.signbit(values) * 24 + case) * 17 + 16 - tz).view("<u4").reshape(n, 12)
    slow = np.flatnonzero(~ok & ~zero)
    if slow.size:
        for i, s in zip(slow.tolist(), _format_17g_slow(values[slow])):
            text[i] = 0
            text[i, : len(s) + 1] = np.frombuffer(s + (b"\n" if line_end[i] else b","), np.uint8)
    return text.tobytes().translate(None, b"\0")


def _report_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``.

    A float that is not finite raises the standard library's ``ValueError``,
    with the key path of its first occurrence appended.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        found = _first_non_finite(doc, "")
        if found is None:
            raise
        path, value = found
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r} "
                         f"at {path}") from None


def _first_non_finite(o, path: str) -> tuple[str, float] | None:
    """The key path and value of the first float in ``o``, in encoding order, that is not finite."""
    if isinstance(o, float):
        return None if math.isfinite(o) else (path, o)
    if isinstance(o, dict):
        items = ((f"{path}.{k}" if path else k, o[k]) for k in sorted(o))
    elif isinstance(o, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(o))
    else:
        return None
    for p, v in items:
        found = _first_non_finite(v, p)
        if found is not None:
            return found
    return None


def _integral_edges(net: IntegralNetwork) -> list[dict]:
    """The 1-based edges of a window's integral network, with their classes."""
    return [{"i": i + 1, "j": j + 1, "class": c.value}
            for (i, j), c in zip(net.graph.keys.tolist(), net.graph.classes)]


def _out_path(out: str | None, config: str, suffix: str) -> Path:
    """``out``, else the config file's stem plus ``suffix`` in the working directory.

    Raises OutputError naming the path when it cannot be a file in an existing
    directory, so that a command fails before it integrates or certifies.
    """
    path = Path(out) if out else Path(Path(config).stem + suffix)
    if path.is_dir():
        raise OutputError(f"{path}: cannot write the file: it is a directory")
    if not path.parent.is_dir():
        raise OutputError(f"{path}: cannot write the file: {path.parent} is not a directory")
    return path


def _fmt_block(x: np.ndarray) -> str:
    return "[" + ", ".join(f"{v: .6f}" for v in x) + "]"


def _clusters_1based(clusters) -> list[list[int]]:
    return [[i + 1 for i in c] for c in clusters]


def cmd_check(cfg: ScenarioConfig, path: str) -> int:
    solver = cfg.solver
    # the run that simulate would make with the file's settings
    check_run(cfg.schedule, cfg.horizon, solver.method,
              solver.step_h if solver.method == "rk4" else solver.sample_dt)
    print(f"scenario: {path}")
    print(f"agents: {cfg.num_agents}, state dimension: {cfg.dimension}")
    for gid in sorted(cfg.graphs):
        g = cfg.graphs[gid]
        classes = ", ".join(
            f"({i + 1},{j + 1}) {c.value}" for (i, j), c in zip(g.keys.tolist(), g.classes)
        )
        print(f"graph {gid}: {len(g.keys)} edge(s) valid: {classes}")
    sched = cfg.schedule
    sr = validate_schedule(sched)
    print(
        f"schedule: {sched.mode}, {sched.num_segments} segment(s), "
        f"duration {sched.total_duration:g}, alpha {sched.alpha:g}"
    )
    # construction rejects a dwell below alpha, and a finite schedule has finitely many dwells
    print("  minimum dwell >= alpha: ok")
    print(
        "  finite recurring catalog: "
        + ("holds" if sr.finite_recurring_catalog else "violated")
    )
    print("  finite dwell set: holds")
    for note in sr.notes:
        print(f"  note: {note}")
    print(f"initial state: {cfg.initial_state.size} entries")
    print("OK")
    return 0


def cmd_simulate(cfg: ScenarioConfig, path: str, out: str | None,
                 horizon: float | None, sample_dt: float | None) -> int:
    out_path = _out_path(out, path, "_trajectory.csv")
    T = horizon if horizon is not None else cfg.horizon
    if cfg.solver.method == "rk4":
        traj = simulate_rk4(cfg.schedule, cfg.initial_state, T, cfg.solver.step_h)
    else:
        dt = sample_dt if sample_dt is not None else cfg.solver.sample_dt
        traj = simulate_exact(cfg.schedule, cfg.initial_state, T, dt)
    write_trajectory_csv(traj, out_path)
    print(f"simulated {cfg.solver.method} to t = {traj.times[-1]:g} "
          f"({traj.num_samples} samples) -> {out_path}")
    final = traj.final_state.reshape(cfg.num_agents, cfg.dimension)
    for i in range(cfg.num_agents):
        print(f"  agent {i + 1}: {_fmt_block(final[i])}")
    clusters = _clusters_1based(
        group_clusters(traj.final_state, cfg.num_agents, cfg.dimension,
                       cfg.tolerances.cluster_tol)
    )
    print(f"final clusters: {clusters}")
    return 0


def cmd_analyze(cfg: ScenarioConfig, path: str, out: str | None) -> int:
    out_path = _out_path(out, path, "_report.json")
    tol = cfg.tolerances
    windows = cfg.windows()
    report = certify_cluster_consensus(cfg.schedule, windows, ns_eq_tol=tol.ns_eq_tol)
    pred = predict_steady_state(
        report.basis, cfg.initial_state, cfg.num_agents, cfg.dimension, tol.cluster_tol
    )
    necessary_ok = verify_necessary_condition(
        pred.steady_state, cfg.schedule, report.integral_networks
    )
    balance = report.balance
    # windows of equal content share one network, and networks of equal edge structure one
    # list: each window names its list by its index in edge_lists, in order of first use
    edge_lists, index, first = [], {}, {}
    for net in report.integral_networks:
        if id(net) not in index:
            structure = _edge_structure(net.graph)
            if structure not in first:
                first[structure] = len(edge_lists)
                edge_lists.append(_integral_edges(net))
            index[id(net)] = first[structure]
    doc = {
        "certified": report.certified,
        "window_nullspaces_equal": report.window_nullspaces_equal,
        "max_projector_distance": report.max_projector_distance,
        "m": report.m,
        "mu": list(report.mu),
        "q_estimate": report.q_estimate,
        "edge_lists": edge_lists,
        "windows": [
            {
                "start": w.start,
                "end": w.end,
                "duration": net.duration,
                "mu": mu,
                "edge_list": index[id(net)],
            }
            for w, net, mu in zip(windows, report.integral_networks, report.mu)
        ],
        "basis": canonical_basis(report.basis.vectors).T.tolist(),
        "steady_state": pred.steady_state.tolist(),
        "kind": pred.kind.value,
        "num_clusters": pred.num_clusters,
        "clusters": _clusters_1based(pred.clusters),
        "balance": (
            None
            if balance is None
            else {
                "positive": [i + 1 for i in balance.positive_set],
                "negative": [i + 1 for i in balance.negative_set],
            }
        ),
        "pn_spanning_tree": report.pn_spanning_tree,
        "necessary_condition_ok": necessary_ok,
    }
    out_path.write_text(_report_text(doc))
    print(f"analysis report -> {out_path}")
    print(f"windows: {len(windows)}, null spaces equal: {report.window_nullspaces_equal} "
          f"(max projector distance {report.max_projector_distance:.3e})")
    print(f"m = {report.m}, q_estimate = {report.q_estimate:.6f}, "
          f"certified: {report.certified}")
    print(f"predicted pattern: {pred.kind.value}, clusters: {doc['clusters']}")
    if balance is not None:
        print(f"balance: +{doc['balance']['positive']} / -{doc['balance']['negative']}")
    print(f"definite-edge spanning tree: {report.pn_spanning_tree}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mwc",
        description="Simulate and analyze consensus on matrix-weighted switching networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "validate a scenario file and report modeling hypotheses"),
        ("simulate", "integrate the protocol and write a trajectory CSV"),
        ("analyze", "certify convergence and write a JSON report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to scenario JSON")
        if name != "check":
            p.add_argument("--out", help="output file path")
        if name == "simulate":
            p.add_argument("--horizon", type=float, help="override simulation horizon")
            p.add_argument("--sample-dt", type=float, dest="sample_dt",
                           help="override sampling interval (exact solver)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        check_laplacian_memory(cfg)
        if args.command == "check":
            return cmd_check(cfg, args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.config, args.out, args.horizon, args.sample_dt)
        return cmd_analyze(cfg, args.config, args.out)
    except ConsensusToolError as exc:
        print(f"error: {exc.describe(1)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
