"""Bundled demonstration scenarios: locate and load the shipped files.

The package ships five ready-to-run scenario files under ``data/``:

* ``cluster_switching`` - seven agents (d = 3) cycling through three
  networks; the common null space of the window-averaged Laplacians has
  dimension 5 and the population settles into three clusters.
* ``bipartite_switching`` - the same setup with the third network's weights
  flipped in sign on a cut; the schedule is simultaneously structurally
  balanced, its integral graph has a definite-edge spanning tree, and the
  agents split into two sign-mirrored camps.
* ``integral_static`` - a single static network ``Gavg`` equal to the
  integral network of ``cluster_switching`` over its first period (segments
  0..2); it reaches the same limit.
* ``time_scaled_decay`` - unit-dwell schedule on one random connected graph
  with coupling gain 1/k^2 on interval k; the total dose converges, so the
  state stops short of the null-space projection.  The graph ``base`` has
  four agents (d = 2) joined by a random spanning path plus one random edge,
  each weight ``R R^T + 0.3 I`` with ``R`` standard normal, so every edge is
  positive definite; it was drawn from ``numpy.random.default_rng(1)`` and
  the initial state uniformly on [0, 1) from ``default_rng(1001)``.
* ``time_scaled_growth`` - gain k on interval k over the same ``base``
  graph; the dose diverges and the projection limit is reached.

The JSON files are the scenarios: the CLI, the tests and the expected numbers
all read them.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .config import ScenarioConfig, load_config

BUILTIN_NAMES = (
    "cluster_switching",
    "bipartite_switching",
    "integral_static",
    "time_scaled_decay",
    "time_scaled_growth",
)


def builtin_path(name: str) -> Path:
    """Filesystem path of a bundled scenario file."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin scenario {name!r}; choose from {BUILTIN_NAMES}")
    return Path(str(resources.files("mwconsensus").joinpath("data", f"{name}.json")))


def load_builtin(name: str) -> ScenarioConfig:
    return load_config(builtin_path(name))
