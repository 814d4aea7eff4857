"""Command-line front end: validate, simulate, or analyze a scenario file.

Three subcommands share one interface::

    mwc check    --config scenario.json
    mwc simulate --config scenario.json [--out traj.csv] [--horizon T] [--sample-dt S]
    mwc analyze  --config scenario.json [--out report.json]

``check`` validates the file and reports which modeling hypotheses hold.
``simulate`` integrates the protocol and writes the sampled trajectory as
CSV.  ``analyze`` runs window-level certification and steady-state
prediction, writing a JSON report.  All outputs are deterministic for
identical inputs.  Node ids are 1-based in every file and message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    certify_cluster_consensus,
    group_clusters,
    predict_steady_state,
    verify_necessary_condition,
)
from .config import ScenarioConfig, load_config
from .errors import ConsensusToolError
from .matalg import canonical_basis
from .sim import Trajectory, check_run, simulate_exact, simulate_rk4
from .switching import validate_schedule


_CSV_BLOCK_VALUES = 4096


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write ``t, x_1_1, ..., x_n_d`` rows with 17 significant digits.

    Rows are formatted a block of about ``_CSV_BLOCK_VALUES`` values at a time,
    with one ``%`` per block, into the bytes ``np.savetxt`` writes with
    ``fmt="%.17g"`` and ``delimiter=","``.
    """
    cols = [f"x_{i + 1}_{k + 1}" for i in range(traj.n) for k in range(traj.d)]
    row_fmt = ",".join(["%.17g"] * (len(cols) + 1)) + "\n"
    step = max(1, _CSV_BLOCK_VALUES // (len(cols) + 1))
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("t," + ",".join(cols) + "\n")
        for a in range(0, traj.num_samples, step):
            block = np.column_stack((traj.times[a : a + step], traj.states[a : a + step]))
            f.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


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
    T = horizon if horizon is not None else cfg.horizon
    if cfg.solver.method == "rk4":
        traj = simulate_rk4(cfg.schedule, cfg.initial_state, T, cfg.solver.step_h)
    else:
        dt = sample_dt if sample_dt is not None else cfg.solver.sample_dt
        traj = simulate_exact(cfg.schedule, cfg.initial_state, T, dt)
    out_path = Path(out) if out else Path(Path(path).stem + "_trajectory.csv")
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
    doc = {
        "certified": report.certified,
        "window_nullspaces_equal": report.window_nullspaces_equal,
        "max_projector_distance": report.max_projector_distance,
        "m": report.m,
        "mu": list(report.mu),
        "q_estimate": report.q_estimate,
        "windows": [
            {
                "start": w.start,
                "end": w.end,
                "duration": net.duration,
                "mu": mu,
                "integral_edges": [
                    {"i": i + 1, "j": j + 1, "class": c.value}
                    for (i, j), c in zip(net.graph.keys.tolist(), net.graph.classes)
                ],
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
    out_path = Path(out) if out else Path(Path(path).stem + "_report.json")
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
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
