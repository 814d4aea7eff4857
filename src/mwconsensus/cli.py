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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    certify_cluster_consensus,
    group_clusters,
    predict_steady_state,
    verify_necessary_condition,
)
from .config import ScenarioConfig, check_laplacian_memory, load_config
from .errors import ConsensusToolError, HorizonError, OutputError
from .matalg import canonical_basis
from .sim import Trajectory, check_run, simulate_exact, simulate_rk4
from .switching import validate_schedule


_CSV_BLOCK_VALUES = 8192


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write ``t, x_1_1, ..., x_n_d`` rows with 17 significant digits.

    The bytes are those ``np.savetxt`` writes with ``fmt="%.17g"`` and
    ``delimiter=","``.  Rows go to :func:`_format_17g`, which spells each value
    from a 32-byte row, a block of about ``_CSV_BLOCK_VALUES`` values at a time.
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


# _format_17g lays each value out in one 32-byte row, then drops bytes by mask:
#   0 sign  1-5 "0.000"  6 digit 1  7 "."  8-23 digits 2-17  24 "e"  25 exponent sign
#   26-28 exponent digits  29 separator  30-31 never kept; in fixed notation with
#   1 <= E <= 15 and a fraction, bytes 8+E..23 move one byte right and 8+E holds "."
@functools.cache
def _format_17g_tables():
    q = np.arange(10000)
    group = ((q[:, None] // [1000, 100, 10, 1] % 10 + 48) << [0, 8, 16, 24]).sum(1, np.uint64)
    trailing = (q % 10 == 0).astype(np.int8) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    lead = np.frombuffer(b"".join(b"-0.000%d." % g for g in range(10)), "<u8")
    E = np.arange(-999, 1000)
    # by E + 999 and line end: "e", the sign, the last three digits of |E|'s group, the separator
    sign = np.where(E < 0, 45, 43).astype(np.uint64) << 8
    exp = ((101 | sign | group[abs(E)] >> 8 << 16)[:, None] | np.uint64([44, 10]) << 40).ravel()
    case = np.where((E < -4) | (E > 16), 21 + (np.abs(E) >= 100), E + 4)
    # kept bytes per (sign, case, number of significant digits); the cases are fixed
    # notation with exponent -4..16, exponent notation with 2 or 3 exponent digits, and zero
    pos = np.arange(32)
    nd = np.arange(1, 18)[:, None]
    first = (pos == 6) | ((pos >= 8) & (pos < 7 + nd))
    cases = []
    for e in range(-4, 17):
        if e < 0:
            cases.append(((pos >= 1) & (pos <= 1 - e)) | first)
        elif e == 0:
            cases.append(first | ((pos == 7) & (nd > 1)))
        else:  # the point and the fraction, moved one byte right, only where there is a fraction
            cases.append((pos == 6) | ((pos >= 8) & (pos <= 7 + np.where(nd > e + 1, nd, e))))
    expo = first | ((pos == 7) & (nd > 1)) | np.isin(pos, (24, 25, 27, 28))
    cases += [expo, expo | (pos == 26), np.broadcast_to(pos == 1, (17, 32))]
    keep = np.stack([np.stack(cases)] * 2) | (pos == 29)
    keep[1, :, :, 0] = True
    mask = (keep.reshape(-1, 32) * np.uint8(255)).view("V32").ravel()
    return group, trailing, lead, exp, case, mask


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
    Each value fills a 32-byte row with every byte any spelling needs, and a
    mask per sign, notation and digit count keeps those of its own.  Blocks
    of a few thousand values keep the temporaries near a megabyte.
    """
    group, trailing, lead, exp, case_of, mask = _format_17g_tables()
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
    words = np.empty((values.size, 4), np.uint64)
    words[:, 0] = lead.take(g0)
    words[:, 1] = group.take(g1) | group.take(g2) << 32
    words[:, 2] = group.take(g3) | group.take(g4) << 32
    words[:, 3] = exp.take((E + 999) * 2 + line_end)
    text = words.view(np.uint8)
    shifted = np.flatnonzero((E >= 1) & (tz < 16 - E))  # 17 - tz digits, more than E + 1
    e = E.take(shifted)
    for k in np.unique(e).tolist():
        rows = shifted[e == k]
        text[rows, 9 + k : 25] = text[rows, 8 + k : 24]
        text[rows, 8 + k] = 46
    case = case_of.take(E + 999)
    zero = values == 0
    case[zero] = 23
    words &= mask.take((np.signbit(values) * 24 + case) * 17 + 16 - tz).view("<u8").reshape(-1, 4)
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


def _integral_edges(g) -> list[dict]:
    """The 1-based edges of a window's integral graph, with their classes."""
    return [{"i": i + 1, "j": j + 1, "class": c.value}
            for (i, j), c in zip(g.keys.tolist(), g.classes)]


def _out_path(out: str | None, config: str, suffix: str) -> Path:
    """``out``, else the config file's stem plus ``suffix`` in the working directory.

    Raises OutputError naming the path when it is the scenario file or cannot be a
    file in an existing directory, so that a command fails before any work.
    """
    path = Path(out) if out else Path(Path(config).stem + suffix)
    if path.is_dir():
        raise OutputError(f"{path}: cannot write the file: it is a directory")
    if path.exists() and Path(config).exists() and path.samefile(config):
        raise OutputError(f"{path}: cannot write the file: it is the scenario file")
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


def cmd_simulate(cfg: ScenarioConfig, path: str, out: str | None) -> int:
    out_path = _out_path(out, path, "_trajectory.csv")
    solver = cfg.solver
    if solver.method == "rk4":
        traj = simulate_rk4(cfg.schedule, cfg.initial_state, cfg.horizon, solver.step_h)
    else:
        traj = simulate_exact(cfg.schedule, cfg.initial_state, cfg.horizon, solver.sample_dt)
    write_trajectory_csv(traj, out_path)
    print(f"simulated {solver.method} to t = {traj.times[-1]:g} "
          f"({traj.num_samples} samples) -> {out_path}")
    final = traj.final_state.reshape(cfg.num_agents, cfg.dimension)
    for i in range(cfg.num_agents):
        print(f"  agent {i + 1}: {_fmt_block(final[i])}")
    clusters = group_clusters(traj.final_state, cfg.num_agents, cfg.dimension,
                              tol=cfg.tolerances)
    print(f"final clusters: {_clusters_1based(clusters)}")
    return 0


def cmd_analyze(cfg: ScenarioConfig, path: str, out: str | None) -> int:
    out_path = _out_path(out, path, "_report.json")
    windows = cfg.windows()
    report = certify_cluster_consensus(cfg.schedule, windows, tol=cfg.tolerances)
    pred = predict_steady_state(report.basis, cfg.initial_state, cfg.num_agents, cfg.dimension,
                                tol=cfg.tolerances)
    necessary_ok = verify_necessary_condition(pred.steady_state, report)
    balance = report.balance
    doc = {
        "certified": report.certified,
        "window_nullspaces_equal": report.window_nullspaces_equal,
        "max_projector_distance": report.max_projector_distance,
        "m": report.m,
        "mu": list(report.mu),
        "q_estimate": report.q_estimate,
        "edge_lists": [_integral_edges(g) for g in report.edge_structures],
        "windows": [
            {"start": w.start, "end": w.end, "duration": net.duration, "mu": mu, "edge_list": e}
            for w, net, mu, e in zip(windows, report.integral_networks, report.mu, report.edge_list)
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
            if args.sample_dt is not None and cfg.solver.method == "rk4":
                raise HorizonError("--sample-dt sets the exact solver's sampling, "
                                   "but solver.method is 'rk4', which samples every step_h")
            overrides = {"horizon": args.horizon, "sample_dt": args.sample_dt}
            cfg.solver = replace(cfg.solver, **{k: v for k, v in overrides.items() if v is not None})
            return cmd_simulate(cfg, args.config, args.out)
        return cmd_analyze(cfg, args.config, args.out)
    except ConsensusToolError as exc:
        print(f"error: {exc.describe(1)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
