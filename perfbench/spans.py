"""Span recorder and the wrappers that install it around the package's layers.

The package itself is not changed.  :class:`Instrumented` replaces each
public function of the layer modules by a timing wrapper at every module
binding that holds it (``cli`` and ``analysis`` bind names with
``from .x import y``), wraps the ``SwitchingSchedule`` constructors and
``numpy.linalg.eigh``/``eigvalsh``/``svd``, and restores every original
on exit.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``run`` the command-run id that was
current when the span opened.  Spans are kept in memory and summarised when
the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "graph", "matalg", "switching", "analysis", "sim", "cli")
LAPACK = ("eigh", "eigvalsh", "svd")
PACKAGE = "mwconsensus"


# counters read off a layer's return value: (result, positional args) -> counts
HOOKS = {
    "sim.simulate_exact": lambda traj, args: {"sim.samples": traj.num_samples},
    "cli.write_trajectory_csv": lambda _, args: {"cli.csv_bytes": os.path.getsize(args[1])},
}


class Recorder:
    """Spans and counters, both tagged with the current command-run id."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1, self.run])
            self._stack.append(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[k][2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                for key, value in on_return(result, args).items():
                    self.count(key, value)
            return result

        return wrapper

    def count(self, key: str, value: float) -> None:
        self.counters[(self.run, key)] += value


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for k, (name, start, end, parent, run) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children[k]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def layer_metrics(rec: Recorder, runs) -> dict[str, float]:
    """``<span>.s`` (outermost spans of that name), ``.calls`` and ``.self_s``, plus counters.

    Only spans and counters of the given command-run ids are summed.
    """
    runs = set(runs)
    selfs = self_times(rec.spans)
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, parent, run) in enumerate(rec.spans):
        if run not in runs:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[k]
        p = parent
        while p >= 0 and rec.spans[p][0] != name:
            p = rec.spans[p][3]
        if p < 0:
            out[f"{name}.s"] += end - start
    for (run, key), value in rec.counters.items():
        if run in runs:
            out[key] += value
    return dict(out)


def _lapack_work(result, args) -> dict[str, float]:
    a = np.asarray(args[0])
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    m, n = a.shape[-2:]
    return {"lapack.work.computed": batch * m * n * min(m, n)}


class Instrumented:
    """Context manager: wrap the package's layers and ``numpy.linalg`` while open."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Instrumented":
        rec = self.rec
        layers = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{fn.__qualname__}"
                    wrappers[id(fn)] = rec.wrap(name, fn, HOOKS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

        cls = sys.modules[f"{PACKAGE}.switching"].SwitchingSchedule
        name = "switching.SwitchingSchedule"
        self._patch(cls, "__init__", rec.wrap(name, cls.__init__))
        for attr in ("explicit", "periodic", "generated"):
            ctor = vars(cls)[attr]
            self._saved.append((cls, attr, ctor))
            setattr(cls, attr, classmethod(rec.wrap(name, ctor.__func__)))

        for attr in LAPACK:
            self._patch(np.linalg, attr,
                        rec.wrap(f"lapack.{attr}", getattr(np.linalg, attr), _lapack_work))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
