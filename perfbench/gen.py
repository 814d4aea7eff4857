"""Seeded scenario generator for the benchmark workloads.

Uses only the standard library and numpy, and writes scenario JSON directly:
it never calls the package's scenario builders or ``write_config``, so a
change to the program cannot change the workload.  The same seed gives
byte-identical files.

Each builder returns a :class:`Workload`: the scenario document plus what the
generator knows by construction (edge signs, the node signature, the expected
agreement pattern), which the output checks in ``checks.py`` rely on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOLERANCES = {"cluster_tol": 1e-6, "conv_tol": 1e-6, "eig_tol": 1e-9, "ns_eq_tol": 1e-8}


@dataclass
class Workload:
    """One generated scenario and the facts the generator built into it."""

    name: str
    doc: dict = field(repr=False)
    # node signature: +1/-1 per agent; every edge weight has sign sigma_i sigma_j
    sigma: tuple[int, ...]
    expected_kind: str

    @property
    def n(self) -> int:
        return self.doc["num_agents"]

    @property
    def d(self) -> int:
        return self.doc["dimension"]

    def text(self) -> str:
        return json.dumps(self.doc, indent=2, sort_keys=True) + "\n"

    def write(self, path: Path) -> str:
        """Write the scenario file and return its sha256."""
        data = self.text().encode()
        Path(path).write_bytes(data)
        return hashlib.sha256(data).hexdigest()


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed & 0xFFFFFFFFFFFFFFFF])


def _pd_weight(rng: np.random.Generator, d: int) -> np.ndarray:
    R = rng.normal(size=(d, d))
    return R @ R.T + 0.3 * np.eye(d)


def _random_edges(rng, n: int, count: int, start=()) -> list[tuple[int, int]]:
    """``start`` plus distinct random edges until there are ``count``, sorted."""
    keys = set(start)
    while len(keys) < count:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            keys.add((min(a, b), max(a, b)))
    return sorted(keys)


def _spanning_path(rng, n: int) -> list[tuple[int, int]]:
    order = [int(v) for v in rng.permutation(n)]
    return [(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])]


def _graph(gid: str, edges, weights) -> dict:
    return {
        "id": gid,
        "edges": [
            {"i": i + 1, "j": j + 1, "weight": W.tolist()}
            for (i, j), W in zip(edges, weights)
        ],
    }


def _doc(n, d, graphs, schedule, x0, windows, sample_dt) -> dict:
    return {
        "dimension": d,
        "num_agents": n,
        "graphs": graphs,
        "schedule": schedule,
        "initial_state": [float(v) for v in x0],
        "windows": windows,
        "solver": {"method": "exact", "sample_dt": float(sample_dt)},
        "tolerances": dict(TOLERANCES),
    }


def periodic_windows(seed: int, n: int = 24, d: int = 3, edges_per_graph: int = 20,
                     repetitions: int = 100) -> Workload:
    """Three sign-consistent graphs cycling with dwells (2, 3, 1).

    One random node signature fixes every edge sign, so the catalog is
    simultaneously balanced and the limit is bipartite consensus.  A spanning
    path is split across the three graphs, so only their union is connected;
    the graphs share no edge.
    """
    rng = _rng(seed, 1)
    sigma = [1] + [int(s) for s in rng.choice((-1, 1), size=n - 1)]
    sigma[int(rng.integers(1, n))] = -1  # both camps are nonempty
    path = _spanning_path(rng, n)
    # disjoint edge sets, so every seed gives windows of the same size
    pool = _random_edges(rng, n, 3 * edges_per_graph, start=path)
    extra = [e for e in pool if e not in path]
    order = [int(k) for k in rng.permutation(len(extra))]
    graphs = []
    for g in range(3):
        own = path[g::3]
        take, order = order[: edges_per_graph - len(own)], order[edges_per_graph - len(own):]
        keys = sorted(own + [extra[k] for k in take])
        weights = [sigma[i] * sigma[j] * _pd_weight(rng, d) for i, j in keys]
        graphs.append(_graph(f"G{g + 1}", keys, weights))
    # x0 keeps the gauged mean away from 0, so the two camps stay distinct
    while True:
        x0 = rng.uniform(0.0, 1.0, size=n * d)
        gauged_mean = (x0.reshape(n, d) * np.array(sigma)[:, None]).mean(axis=0)
        if np.abs(gauged_mean).max() > 0.01:
            break
    schedule = {
        "type": "periodic",
        "alpha": 1.0,
        "pattern": [{"graph": f"G{g + 1}", "dwell": float(w)} for g, w in enumerate((2, 3, 1))],
        "repetitions": repetitions,
    }
    doc = _doc(n, d, graphs, schedule, x0, "period", 1.0)
    return Workload("periodic_windows", doc, tuple(sigma), "bipartite_consensus")


def long_schedule(seed: int, n: int = 4, d: int = 2, intervals: int = 20_000) -> Workload:
    """One random connected PD graph with gain 1/k^2 on unit interval k.

    The bundled ``time_scaled_decay`` shape with a fifth of its intervals, so a
    run holds a dozen samples of each command rather than three.
    """
    rng = _rng(seed, 2)
    keys = _random_edges(rng, n, n, start=_spanning_path(rng, n))
    graphs = [_graph("base", keys, [_pd_weight(rng, d) for _ in keys])]
    x0 = rng.uniform(0.0, 1.0, size=n * d)
    schedule = {
        "type": "generated",
        "alpha": 1.0,
        "generator": {
            "name": "inverse_square_decay",
            "params": {"graph": "base", "intervals": intervals},
        },
    }
    doc = _doc(n, d, graphs, schedule, x0, "whole", float(intervals))
    return Workload("long_schedule", doc, (1,) * n, "consensus")


def large_network(seed: int, n: int = 200, d: int = 3, segments: int = 8,
                  samples: int = 800) -> Workload:
    """Two random connected PD graphs alternating with dwells drawn from [1, 2].

    About n extra edges per graph; windows of two segments each, so every
    window sees both graphs and no two windows repeat.
    """
    rng = _rng(seed, 3)
    graphs = []
    for g in range(2):
        keys = _random_edges(rng, n, 2 * n - 1, start=_spanning_path(rng, n))
        graphs.append(_graph(f"G{g + 1}", keys, [_pd_weight(rng, d) for _ in keys]))
    x0 = rng.uniform(0.0, 1.0, size=n * d)
    dwells = [float(v) for v in rng.uniform(1.0, 2.0, size=segments)]
    schedule = {
        "type": "explicit",
        "alpha": 1.0,
        "segments": [{"graph": f"G{k % 2 + 1}", "dwell": w} for k, w in enumerate(dwells)],
    }
    doc = _doc(n, d, graphs, schedule, x0, {"type": "uniform", "segments": 2},
               sum(dwells) / samples)
    return Workload("large_network", doc, (1,) * n, "consensus")


BUILDERS = {
    "periodic_windows": periodic_windows,
    "long_schedule": long_schedule,
    "large_network": large_network,
}
