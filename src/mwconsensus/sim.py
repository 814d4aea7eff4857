"""Trajectory generation for the switched consensus protocol.

Two integration routes are provided on purpose:

* :func:`simulate_exact` evaluates the piecewise flow spectrally, carrying
  the state over maximal runs of a single graph and giving each catalog
  graph's samples with one product by its eigenvectors.  The flows of
  a run's segments commute, so this is exact up to roundoff.
* :func:`simulate_rk4` integrates the same dynamics with a fixed-step
  classical Runge-Kutta scheme that never steps across a switching instant.
  It shares no code path with the spectral route beyond the Laplacian itself
  and its PSD test, which makes the two mutually checking oracles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    HorizonError,
    ScheduleExhaustedError,
)
from .graph import laplacian
from .switching import SwitchingSchedule, _catalog_eigh, spectra

_DEDUP_TOL = 1e-12
_EDGE_TOL = 1e-9
# where a cgroup's memory limit is read: v2, then v1
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the switched system.

    ``states[k]`` is the stacked state (agent-major, length ``n*d``) at
    ``times[k]``.  Times are strictly increasing and include t = 0.
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    n: int
    d: int

    def __post_init__(self):
        if self.states.shape != (self.times.size, self.n * self.d):
            raise DimensionMismatchError(
                f"states shape {self.states.shape} inconsistent with "
                f"{self.times.size} samples of dimension {self.n * self.d}"
            )

    @property
    def num_samples(self) -> int:
        return self.times.size

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _validated_x0(s: SwitchingSchedule, x0) -> np.ndarray:
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != s.n * s.d:
        raise DimensionMismatchError(f"initial state length {x.size} != n*d = {s.n * s.d}")
    return x


def _check_horizon(s: SwitchingSchedule, horizon: float) -> float:
    if not horizon > 0:
        raise HorizonError(f"horizon must be positive, got {horizon}")
    if horizon > s.total_duration + _EDGE_TOL:
        raise ScheduleExhaustedError(
            f"horizon {horizon} exceeds schedule duration {s.total_duration}; "
            "extend the schedule (more repetitions or segments)"
        )
    return float(horizon)


def _physical_memory() -> float:
    """Bytes of physical memory on this host, or inf where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


@cache
def _cgroup_memory() -> float:
    """The memory limit of this process's cgroup in bytes: inf for ``max``, or where none is read.

    The first of ``_CGROUP_LIMITS`` that reads as a number or ``max`` counts.
    It is read once, as each command checks its memory several times.
    """
    for path in _CGROUP_LIMITS:
        try:
            text = Path(path).read_text().strip()
            return float("inf") if text == "max" else float(int(text))
        except (OSError, ValueError):
            continue
    return float("inf")


def _memory_limit() -> tuple[float, str]:
    """The bytes a command may allocate, and their name in a message.

    That is the host's physical memory, or the cgroup's limit where it is
    the smaller; a limit above physical memory, as cgroup v1 writes for
    none, leaves the host's.
    """
    host, cgroup = _physical_memory(), _cgroup_memory()
    if cgroup < host:
        return cgroup, f"the cgroup's memory limit of {cgroup:.3g} bytes"
    return host, f"the host's {host:.3g} bytes of physical memory"


def check_run(s: SwitchingSchedule, horizon: float, method: str, step: float) -> float:
    """Reject a run of ``method`` to ``horizon`` that could not complete; return the horizon.

    ``step`` is the exact solver's ``sample_dt`` or RK4's ``step_h``.  Beyond
    :func:`_check_horizon` and a positive, finite ``step``, a grid that would
    not fit in :func:`_memory_limit` raises :class:`HorizonError` before
    anything is allocated.  An exact sample counts ``6 n d + 48`` floats: its
    state, its column of its graph's block and of that block's product or
    scaling, and, as every run starts at a sample, at most one run's decay,
    ``V^T x`` and carried state; the 48 hold the times, doses and indices of
    a sample and its run, and the array headers of the run's vectors.  An
    RK4 step counts ``2 n d + 2``: its state and time and their final
    copies.  The bound is :func:`_memory_limit`, the host's physical memory
    or its cgroup's limit, whichever is smaller.  RK4 also needs
    ``step_h`` to divide every segment it integrates, the last one up to the
    horizon, within floating-point tolerance.
    """
    horizon = _check_horizon(s, horizon)
    rk4 = method == "rk4"
    name = "step_h" if rk4 else "sample_dt"
    if not 0 < step < np.inf:
        raise HorizonError(f"{name} must be positive and finite, got {step}")
    t = s.switch_times()
    if rk4:
        samples, width = horizon / step + 1.0, 2 * s.n * s.d + 2
    else:
        inside = np.count_nonzero((t > 0.0) & (t < horizon))
        samples, width = _grid_count(horizon, step) + inside + 1, 6 * s.n * s.d + 48
    if not np.isfinite(samples):
        raise HorizonError(f"{name} = {step} is too small for horizon {horizon}: "
                           "the sample count overflows")
    size = samples * width * 8.0
    memory, limit = _memory_limit()
    if size > memory:
        raise HorizonError(
            f"{name} = {step} gives {samples:.6g} samples over horizon {horizon}: "
            f"{size:.3g} bytes, more than {limit}"
        )
    if rk4:
        K = _segments_reached(s, horizon)
        span = np.minimum(t[1 : K + 1], horizon) - t[:K]
        nst = np.round(span / step)
        bad = np.flatnonzero((nst < 1) | (np.abs(nst * step - span) > 1e-9 * np.maximum(1.0, span)))
        if bad.size:
            k = int(bad[0])
            raise HorizonError(f"step_h = {step} does not divide segment {k} span {float(span[k])}")
    return horizon


def _grid_count(horizon: float, sample_dt: float) -> float:
    """Points of the regular grid ``{0, sample_dt, 2 sample_dt, ...}`` up to ``horizon``."""
    return np.floor(horizon / sample_dt + 1e-9) + 1.0


def _segments_reached(s: SwitchingSchedule, horizon: float) -> int:
    """How many segments a run to ``horizon`` enters; the last may be cut short by it."""
    return int(np.searchsorted(s.switch_times()[1:], horizon - _EDGE_TOL)) + 1


def _doses_since_run_start(
    s: SwitchingSchedule, K: int, first: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Each sample's dose since its run started, interpolated in prefix sums of ``scale * dwell``.

    The runs starting at segments ``first`` of the first ``K`` lay their
    switch times end to end, each with its prefix sums counted from its own
    start, so one :func:`np.interp` gives what it gives on each run's own
    arrays: a sample at an instant two runs share takes the later run's 0,
    and one past the end the final dose.
    """
    run = np.repeat(np.arange(first.size), np.diff(first, append=K) + 1)
    knots = np.arange(run.size) - run
    cum = np.concatenate(([0.0], np.cumsum(s.scale[:K] * s.dwell[:K])))
    return np.interp(ts, s.switch_times()[knots], cum[knots] - cum[first][run])


def simulate_exact(
    s: SwitchingSchedule, x0, horizon: float, sample_dt: float
) -> Trajectory:
    """Integrate the switched flow exactly via per-graph eigendecompositions.

    Samples the solution on the regular grid ``{0, sample_dt, 2 sample_dt, ...}``
    together with every switching instant and the horizon itself (duplicates
    merged).  A run of one graph ``L = V diag(lam) V^T`` maps its start state
    ``x_r`` to ``V exp(-lam D(t)) V^T x_r`` at each of its samples, where the
    dose ``D(t)`` accumulated since the run started is interpolated in the
    prefix sum of ``scale * dwell``.  The loop over runs only carries the
    state, keeping each run's ``V^T x_r``.  Then each catalog graph forms
    ``exp(-lam D)`` for all of its samples as one block, scales each run's
    columns by its ``V^T x_r``, and gives them all with one product by ``V``.
    A sample at a run's start is the carried state itself.  The graphs the
    runs reach are decomposed together first, by :func:`switching.spectra`
    in order of first run, and held for this call only; one that is not PSD
    is named by the first run to reach it.

    :func:`check_run` rejects the run first, before anything is allocated.
    """
    x = _validated_x0(s, x0)
    horizon = check_run(s, horizon, "exact", sample_dt)
    t_switch = s.switch_times()
    inside = t_switch[(t_switch > 0.0) & (t_switch < horizon)]
    grid = np.arange(int(_grid_count(horizon, sample_dt))) * sample_dt
    ts = np.unique(np.concatenate([grid, inside, [horizon]]))
    keep = np.ones(ts.size, dtype=bool)
    keep[1:] = np.diff(ts) > _DEDUP_TOL
    ts = ts[keep]

    K = _segments_reached(s, horizon)
    first, graphs, doses = s.runs(0, K)
    eigs = spectra(s, graphs.tolist())  # in run order, so the first run names a failure

    decay = np.empty((first.size, x.size))
    with np.errstate(over="ignore"):  # a dose times eigenvalue past the float range decays to 0
        for g, (lam, _) in eigs.items():
            on_g = graphs == g
            decay[on_g] = np.outer(-doses[on_g], lam)
        np.exp(decay, out=decay)
    # the work that must run in order: carry the state from run to run
    starts, ys = [], []
    for g, e in zip(graphs.tolist(), decay):
        V = eigs[g][1]
        y = V.T @ x
        starts.append(x)
        ys.append(y)
        x = V @ (e * y)
    ys = np.array(ys)

    # run r's samples are the count[r] from lo[r] on; the last run takes every
    # remaining sample, up to a horizon just past the end
    lo = np.searchsorted(ts, t_switch[first])
    count = np.diff(lo, append=ts.size)
    owner = np.repeat(graphs, count)
    dose_at = _doses_since_run_start(s, K, first, ts)
    states = np.empty((ts.size, x.size))
    for g, (lam, V) in eigs.items():
        on_g = np.flatnonzero(graphs == g)
        r, one = on_g[0], on_g.size == 1
        # one run's samples are a slice, neither gathered nor scattered
        rows = slice(lo[r], lo[r] + count[r]) if one else np.flatnonzero(owner == g)
        with np.errstate(over="ignore"):
            block = np.outer(-lam, dose_at[rows])
        np.exp(block, out=block)
        block *= ys[r][:, None] if one else np.repeat(ys[on_g].T, count[on_g], axis=1)
        states[rows] = block.T @ V.T
    # a sample at a run's start is the carried state itself; every run starts before the horizon
    at_start = np.flatnonzero(ts[lo] == t_switch[first])
    states[lo[at_start]] = [starts[r] for r in at_start.tolist()]
    return Trajectory(times=ts, states=states, n=s.n, d=s.d)


def simulate_rk4(s: SwitchingSchedule, x0, horizon: float, step_h: float) -> Trajectory:
    """Integrate with the classical fixed-step RK4 scheme.

    Steps never straddle a switching instant: each segment is integrated with
    its own whole number of steps, so ``step_h`` must divide every dwell (and
    the final partial dwell) within floating-point tolerance; :func:`check_run`
    rejects the run first, as it does a grid past the memory limit.  Every
    step endpoint is recorded.  A step past RK4's stability limit makes the
    state overflow; the first segment whose states are not all finite raises
    :class:`HorizonError`.  Its Laplacians are built for the call alone and
    put to :func:`switching.spectra`'s PSD test in order of first run.
    """
    x = _validated_x0(s, x0)
    horizon = check_run(s, horizon, "rk4", step_h)
    t_switch = s.switch_times().tolist()
    chunks_t: list[np.ndarray] = [np.zeros(1)]
    chunks_x: list[np.ndarray] = [x[None, :].copy()]
    K = _segments_reached(s, horizon)
    laplacians = {g: laplacian(s.catalog[s.ids[g]]) for g in dict.fromkeys(s.graph[:K].tolist())}
    for g, L in laplacians.items():  # the first run to reach one that is not PSD names it
        _catalog_eigh(s, g, L)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for k, (g, scale) in enumerate(zip(s.graph[:K].tolist(), s.scale[:K].tolist())):
            a = t_switch[k]
            span = min(t_switch[k + 1], horizon) - a
            nst = int(round(span / step_h))
            L = scale * laplacians[g]
            out = np.empty((nst, x.size))
            h = span / nst
            for i in range(nst):
                k1 = -(L @ x)
                k2 = -(L @ (x + 0.5 * h * k1))
                k3 = -(L @ (x + 0.5 * h * k2))
                k4 = -(L @ (x + h * k3))
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out[i] = x
            if not np.isfinite(out).all():
                raise HorizonError(
                    f"step_h = {step_h} makes RK4 diverge: the state is not finite "
                    f"in segment {k} (start t = {a:g}); use a smaller step_h"
                )
            chunks_t.append(a + h * np.arange(1, nst + 1))
            chunks_x.append(out)
    return Trajectory(
        times=np.concatenate(chunks_t),
        states=np.vstack(chunks_x),
        n=s.n,
        d=s.d,
    )
