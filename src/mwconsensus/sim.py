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


def _check_memory(name: str, step: float, horizon: float, samples: float, width: int) -> None:
    """Reject ``samples`` rows of ``width`` floats that outgrow physical memory.

    The bound is the host's memory, not a container's or cgroup's limit, so a
    run under it can still fail to allocate.
    """
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


def simulate_exact(
    s: SwitchingSchedule, x0, horizon: float, sample_dt: float
) -> Trajectory:
    """Integrate the switched flow exactly via per-graph eigendecompositions.

    Samples the solution on the regular grid ``{0, sample_dt, 2 sample_dt, ...}``
    together with every switching instant and the horizon itself (duplicates
    merged).  A run of one graph ``L = V diag(lam) V^T`` maps its start state
    ``x_r`` to ``V exp(-lam D(t)) V^T x_r`` for all of its samples at once,
    where the dose ``D(t)`` accumulated since the run started is interpolated
    in the prefix sum of ``scale * dwell``.

    A grid that would not fit in the host's physical memory raises
    :class:`HorizonError` before anything is allocated.  Each sample counts
    ``4 n d + 4`` floats: its state, the three temporaries of a run's
    evaluation, and the sample grid's four arrays of times.
    """
    x = _validated_x0(s, x0)
    horizon = _check_horizon(s, horizon)
    if not sample_dt > 0:
        raise HorizonError(f"sample_dt must be positive, got {sample_dt}")

    samples = np.floor(horizon / sample_dt + 1e-9) + 1.0
    t_switch = s.switch_times()
    inside = t_switch[(t_switch > 0.0) & (t_switch < horizon)]
    _check_memory("sample_dt", sample_dt, horizon, samples + inside.size + 1, 4 * x.size + 4)
    grid = np.arange(int(samples)) * sample_dt
    ts = np.unique(np.concatenate([grid, inside, [horizon]]))
    keep = np.ones(ts.size, dtype=bool)
    keep[1:] = np.diff(ts) > _DEDUP_TOL
    ts = ts[keep]

    # segments [0, K) reach the horizon; the last one may be cut short by it
    K = int(np.searchsorted(t_switch[1:], horizon - _EDGE_TOL)) + 1
    cum = np.concatenate(([0.0], np.cumsum(s.scale[:K] * s.dwell[:K])))
    first, graphs, doses = s.runs(0, K)
    states = np.empty((ts.size, x.size))
    idx = 0
    runs = zip(first.tolist(), [*first[1:].tolist(), K], graphs.tolist(), doses)
    with np.errstate(over="ignore"):  # a dose times eigenvalue past the float range decays to 0
        for k0, k1, g, dose in runs:
            # the last run takes every remaining sample, up to a horizon just past the end
            hi = ts.size if k1 == K else int(np.searchsorted(ts, t_switch[k1]))
            lam, V = s.eig_of(s.ids[g])
            if hi > idx:
                D = np.interp(ts[idx:hi], t_switch[k0 : k1 + 1], cum[k0 : k1 + 1] - cum[k0])
                decay = np.exp(-np.outer(lam, D))
                states[idx:hi] = (V @ (decay * (V.T @ x)[:, None])).T
                if ts[idx] == t_switch[k0]:
                    states[idx] = x  # exact at the run start
                idx = hi
            x = V @ (np.exp(-dose * lam) * (V.T @ x))
    return Trajectory(times=ts, states=states, n=s.n, d=s.d)


def simulate_rk4(s: SwitchingSchedule, x0, horizon: float, step_h: float) -> Trajectory:
    """Integrate with the classical fixed-step RK4 scheme.

    Steps never straddle a switching instant: each segment is integrated with
    its own whole number of steps, so ``step_h`` must divide every dwell (and
    the final partial dwell) within floating-point tolerance.  Every step
    endpoint is recorded.  As in :func:`simulate_exact`, steps that would not
    fit in physical memory raise :class:`HorizonError` up front; each counts
    ``2 n d + 2`` floats, its state and time and their final copies.
    """
    x = _validated_x0(s, x0)
    horizon = _check_horizon(s, horizon)
    if not step_h > 0:
        raise HorizonError(f"step_h must be positive, got {step_h}")
    _check_memory("step_h", step_h, horizon, horizon / step_h + 1.0, 2 * x.size + 2)

    t_switch = s.switch_times().tolist()
    chunks_t: list[np.ndarray] = [np.zeros(1)]
    chunks_x: list[np.ndarray] = [x[None, :].copy()]
    for k, (g, scale) in enumerate(zip(s.graph.tolist(), s.scale.tolist())):
        a, b = t_switch[k], t_switch[k + 1]
        last = b >= horizon - _EDGE_TOL
        end = min(b, horizon)
        span = end - a
        nst = int(round(span / step_h))
        if nst < 1 or abs(nst * step_h - span) > 1e-9 * max(1.0, span):
            raise HorizonError(f"step_h = {step_h} does not divide segment {k} span {span}")
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
        chunks_t.append(a + h * np.arange(1, nst + 1))
        chunks_x.append(out)
        if last:
            break
    return Trajectory(
        times=np.concatenate(chunks_t),
        states=np.vstack(chunks_x),
        n=s.n,
        d=s.d,
    )
