"""Independent output checks for the benchmark workloads.

Everything here is the benchmark's own numpy code: Laplacians are assembled
from the scenario document, the flow is applied one merged run of segments at
a time, and the contraction factors come from an SVD of each window's flow
map.  The verdict fields the program reports follow from how ``gen.py`` built
each workload (edge signs from one node signature, every window connected
through definite edges); the numbers are recomputed here.

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from gen import Workload

REL_TOL = 1e-8  # mu, q_estimate: ROADMAP fast paths differ from today by ~2e-11
STATE_TOL = 1e-8  # states, relative to max(1, max|x0|)
EIG_TOL = 1e-9
NS_EQ_TOL = 1e-8
Q_MARGIN = 1e-6


@dataclass
class Reference:
    """What a correct run of each command must produce on one workload."""

    x0: np.ndarray = field(repr=False)
    horizon: float
    final_state: np.ndarray = field(repr=False)
    steady_state: np.ndarray = field(repr=False)
    windows: list[tuple[int, int]]
    mu: list[float]
    verdict: dict


def laplacians(doc: dict) -> dict[str, np.ndarray]:
    """Block Laplacian ``D - A`` of every catalog graph, ``D_i = sum_j |A_ij|``."""
    n, d = doc["num_agents"], doc["dimension"]
    out = {}
    for g in doc["graphs"]:
        L = np.zeros((n * d, n * d))
        for e in g["edges"]:
            i, j = e["i"] - 1, e["j"] - 1
            W = np.asarray(e["weight"], dtype=float)
            absW = W if np.trace(W) > 0 else -W  # weights are sign-definite
            bi, bj = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
            L[bi, bi] += absW
            L[bj, bj] += absW
            L[bi, bj] -= W
            L[bj, bi] -= W
        out[g["id"]] = L
    return out


def segments(doc: dict) -> list[tuple[str, float, float]]:
    """The schedule as ``(graph id, dwell, dose = scale * dwell)`` per segment."""
    s = doc["schedule"]
    if s["type"] == "periodic":
        entries = s["pattern"] * s["repetitions"]
    elif s["type"] == "explicit":
        entries = s["segments"]
    else:
        name, p = s["generator"]["name"], s["generator"]["params"]
        rule = {"inverse_square_decay": lambda k: 1.0 / k**2, "linear_ramp": float}[name]
        return [(p["graph"], 1.0, rule(k)) for k in range(1, p["intervals"] + 1)]
    return [(e["graph"], e["dwell"], e.get("scale", 1.0) * e["dwell"]) for e in entries]


def windows(doc: dict, num_segments: int) -> list[tuple[int, int]]:
    spec = doc["windows"]
    if spec == "whole":
        return [(0, num_segments)]
    size = len(doc["schedule"]["pattern"]) if spec == "period" else spec["segments"]
    return [(a, min(a + size, num_segments)) for a in range(0, num_segments, size)]


def _runs(segs) -> list[tuple[str, float]]:
    """Merge consecutive segments on one graph: their flows commute."""
    runs: list[tuple[str, list[float]]] = []
    for gid, _, dose in segs:
        if runs and runs[-1][0] == gid:
            runs[-1][1].append(dose)
        else:
            runs.append((gid, [dose]))
    return [(gid, math.fsum(doses)) for gid, doses in runs]


def _null_basis(M: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh(M)
    return V[:, lam <= EIG_TOL * max(1.0, float(lam[-1]))]


def reference(w: Workload) -> Reference:
    doc = w.doc
    Ls = laplacians(doc)
    eig = {}
    for gid, L in Ls.items():
        lam, V = np.linalg.eigh(L)
        eig[gid] = (np.clip(lam, 0.0, None), V)

    def flow(gid: str, dose: float) -> np.ndarray:
        lam, V = eig[gid]
        return (V * np.exp(-dose * lam)) @ V.T

    x0 = np.asarray(doc["initial_state"], dtype=float)
    segs = segments(doc)
    x = x0
    for gid, dose in _runs(segs):
        lam, V = eig[gid]
        x = V @ (np.exp(-dose * lam) * (V.T @ x))

    ns = _null_basis(sum(Ls.values()))
    steady = ns @ (ns.T @ x0)

    wins = windows(doc, len(segs))
    per_content: dict[tuple, tuple[float, np.ndarray, int]] = {}
    mus, projs, dims = [], [], []
    for a, b in wins:
        key = tuple(_runs(segs[a:b]))
        if key not in per_content:
            Phi = np.eye(x0.size)
            for gid, dose in key:
                Phi = flow(gid, dose) @ Phi
            duration = math.fsum(dwell for _, dwell, _ in segs[a:b])
            integral = sum(dose * Ls[gid] for gid, dose in key) / duration
            basis = _null_basis(integral)
            m = basis.shape[1]
            mu = float(np.linalg.svd(Phi, compute_uv=False)[m] ** 2)
            per_content[key] = (mu, basis @ basis.T, m)
        mu, P, m = per_content[key]
        mus.append(mu)
        projs.append(P)
        dims.append(m)
    dist = max((float(np.linalg.norm(P - projs[0], "fro")) for P in projs[1:]), default=0.0)
    equal = dist <= NS_EQ_TOL and len(set(dims)) == 1
    q = max(mus)

    sigma = w.sigma
    plus = [i + 1 for i in range(w.n) if sigma[i] == sigma[0]]
    minus = [i + 1 for i in range(w.n) if sigma[i] != sigma[0]]
    verdict = {
        "certified": bool(equal and q <= 1.0 - Q_MARGIN),
        "m": dims[0],
        "kind": w.expected_kind,
        "clusters": [plus, minus] if minus else [plus],
        "balance": {"negative": minus, "positive": plus},
        "pn_spanning_tree": True,
        "window_nullspaces_equal": equal,
    }
    return Reference(
        x0=x0,
        horizon=math.fsum(dwell for _, dwell, _ in segs),
        final_state=x,
        steady_state=steady,
        windows=wins,
        mu=mus,
        verdict=verdict,
    )


def _state_problems(what: str, got, want: np.ndarray, x0: np.ndarray) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite entries"]
    err = float(np.abs(got - want).max())
    if err > STATE_TOL * max(1.0, float(np.abs(x0).max())):
        return [f"{what}: max deviation {err:.3e} from the reference"]
    return []


def _rel_problem(what: str, got, want: float) -> list[str]:
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return [f"{what}: {got!r} is not a finite number"]
    if abs(got - want) > REL_TOL * abs(want):
        return [f"{what}: {got!r}, reference {want!r}"]
    return []


def check_report(text: str, ref: Reference) -> list[str]:
    """Verdict fields equal, mu and q_estimate within REL_TOL, steady state within STATE_TOL."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [
        f"report {key}: {rep.get(key)!r}, expected {want!r}"
        for key, want in ref.verdict.items()
        if rep.get(key) != want
    ]
    mus = rep.get("mu")
    if not isinstance(mus, list) or len(mus) != len(ref.mu):
        problems.append(f"report mu has {len(mus or [])} entries, expected {len(ref.mu)}")
    else:
        for k, (got, want) in enumerate(zip(mus, ref.mu)):
            problems += _rel_problem(f"report mu[{k}]", got, want)
    problems += _rel_problem("report q_estimate", rep.get("q_estimate"), max(ref.mu))
    spans = [(win.get("start"), win.get("end")) for win in rep.get("windows", [])]
    if spans != ref.windows:
        problems.append("report windows differ from the windowing rule")
    problems += _state_problems("report steady_state", rep.get("steady_state"),
                                ref.steady_state, ref.x0)
    return problems


def check_csv(text: str, ref: Reference, n: int, d: int) -> list[str]:
    """Header, strictly increasing times from 0 to the horizon, x0 first, reference state last."""
    lines = text.splitlines()
    header = "t," + ",".join(f"x_{i + 1}_{k + 1}" for i in range(n) for k in range(d))
    if not lines or lines[0] != header:
        return ["trajectory CSV header is wrong"]
    if len(lines) < 3:
        return ["trajectory CSV has fewer than two samples"]
    try:
        times = np.array([float(line.split(",", 1)[0]) for line in lines[1:]])
        first = np.array(lines[1].split(","), dtype=float)
        last = np.array(lines[-1].split(","), dtype=float)
    except ValueError as exc:
        return [f"trajectory CSV has a malformed number: {exc}"]
    problems = []
    if times[0] != 0.0 or not np.all(np.diff(times) > 0):
        problems.append("trajectory times do not start at 0 and increase strictly")
    if abs(times[-1] - ref.horizon) > 1e-9 * ref.horizon:
        problems.append(f"trajectory ends at t = {times[-1]!r}, expected {ref.horizon!r}")
    problems += _state_problems("trajectory first row", first[1:], ref.x0, ref.x0)
    problems += _state_problems("trajectory final row", last[1:], ref.final_state, ref.x0)
    return problems


def check_stdout(command: str, text: str) -> list[str]:
    if command == "check" and text.rstrip().rsplit("\n", 1)[-1] != "OK":
        return ["check did not end with OK"]
    return []
