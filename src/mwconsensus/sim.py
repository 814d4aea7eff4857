"""Trajectory generation for the switched consensus protocol.

Two integration routes are provided on purpose:

* :func:`simulate_exact` evaluates the piecewise flow spectrally, one maximal
  run of a single graph at a time, reusing one eigendecomposition per catalog
  graph.  The flows of a run's segments commute, so this is exact up to
  roundoff.
* :func:`simulate_rk4` integrates the same dynamics with a fixed-step
  classical Runge-Kutta scheme that never steps across a switching instant.
  It shares no code path with the spectral route beyond the Laplacian itself,
  which makes the two mutually checking oracles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    HorizonError,
    ScheduleExhaustedError,
)
from .switching import SwitchingSchedule

_DEDUP_TOL = 1e-12
_EDGE_TOL = 1e-9


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


def check_run(s: SwitchingSchedule, horizon: float, method: str, step: float) -> float:
    """Reject a run of ``method`` to ``horizon`` that could not complete; return the horizon.

    ``step`` is the exact solver's ``sample_dt`` or RK4's ``step_h``.  Beyond
    :func:`_check_horizon` and a positive ``step``, a grid that would not fit
    in the host's physical memory raises :class:`HorizonError` before
    anything is allocated.  An exact sample counts ``4 n d + 4`` floats: its
    state, the three temporaries of a run's evaluation, and the sample grid's
    four arrays of times.  An RK4 step counts ``2 n d + 2``: its state and
    time and their final copies.  The bound is the host's memory, not a
    container's or cgroup's limit, so a run under it can still fail to
    allocate.  RK4 also needs ``step_h`` to divide every segment it
    integrates, the last one up to the horizon, within floating-point
    tolerance.
    """
    horizon = _check_horizon(s, horizon)
    rk4 = method == "rk4"
    name = "step_h" if rk4 else "sample_dt"
    if not step > 0:
        raise HorizonError(f"{name} must be positive, got {step}")
    t = s.switch_times()
    if rk4:
        samples, width = horizon / step + 1.0, 2 * s.n * s.d + 2
    else:
        inside = np.count_nonzero((t > 0.0) & (t < horizon))
        samples, width = _grid_count(horizon, step) + inside + 1, 4 * s.n * s.d + 4
    if not np.isfinite(samples):
        raise HorizonError(f"{name} = {step} is too small for horizon {horizon}: "
                           "the sample count overflows")
    size = samples * width * 8.0
    memory = _physical_memory()
    if size > memory:
        raise HorizonError(
            f"{name} = {step} gives {samples:.6g} samples over horizon {horizon}: "
            f"{size:.3g} bytes, more than the host's {memory:.3g} bytes of physical memory"
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


def simulate_exact(
    s: SwitchingSchedule, x0, horizon: float, sample_dt: float
) -> Trajectory:
    """Integrate the switched flow exactly via per-graph eigendecompositions.

    Samples the solution on the regular grid ``{0, sample_dt, 2 sample_dt, ...}``
    together with every switching instant and the horizon itself (duplicates
    merged).  A run of one graph ``L = V diag(lam) V^T`` maps its start state
    ``x_r`` to ``V exp(-lam D(t)) V^T x_r`` for all of its samples at once,
    where the dose ``D(t)`` accumulated since the run started is interpolated
    in the prefix sum of ``scale * dwell``.  The graphs the runs reach are
    decomposed together first, by :meth:`SwitchingSchedule.decompose`.

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
    cum = np.concatenate(([0.0], np.cumsum(s.scale[:K] * s.dwell[:K])))
    first, graphs, doses = s.runs(0, K)
    s.decompose([s.ids[g] for g in np.unique(graphs).tolist()])
    states = np.empty((ts.size, x.size))
    idx = 0
    runs = zip(first.tolist(), [*first[1:].tolist(), K], graphs.tolist(), doses)
    with np.errstate(over="ignore"):  # a dose times eigenvalue past the float range decays to 0
        for k0, k1, g, dose in runs:
            # the last run takes every remaining sample, up to a horizon just past the end
            hi = ts.size if k1 == K else int(np.searchsorted(ts, t_switch[k1]))
            lam, V = s.eig_of(s.ids[g])
            y = V.T @ x
            if hi > idx:
                D = np.interp(ts[idx:hi], t_switch[k0 : k1 + 1], cum[k0 : k1 + 1] - cum[k0])
                decay = np.exp(-np.outer(lam, D))
                states[idx:hi] = (V @ (decay * y[:, None])).T
                if ts[idx] == t_switch[k0]:
                    states[idx] = x  # exact at the run start
                idx = hi
            x = V @ (np.exp(-dose * lam) * y)
    return Trajectory(times=ts, states=states, n=s.n, d=s.d)


def simulate_rk4(s: SwitchingSchedule, x0, horizon: float, step_h: float) -> Trajectory:
    """Integrate with the classical fixed-step RK4 scheme.

    Steps never straddle a switching instant: each segment is integrated with
    its own whole number of steps, so ``step_h`` must divide every dwell (and
    the final partial dwell) within floating-point tolerance; :func:`check_run`
    rejects the run first, as it does a grid past physical memory.  Every
    step endpoint is recorded.  A step past RK4's stability limit makes the
    state overflow; the first segment whose states are not all finite raises
    :class:`HorizonError`.
    """
    x = _validated_x0(s, x0)
    horizon = check_run(s, horizon, "rk4", step_h)
    t_switch = s.switch_times().tolist()
    chunks_t: list[np.ndarray] = [np.zeros(1)]
    chunks_x: list[np.ndarray] = [x[None, :].copy()]
    K = _segments_reached(s, horizon)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for k, (g, scale) in enumerate(zip(s.graph[:K].tolist(), s.scale[:K].tolist())):
            a = t_switch[k]
            span = min(t_switch[k + 1], horizon) - a
            nst = int(round(span / step_h))
            L = scale * s.laplacian_of(s.ids[g])
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
