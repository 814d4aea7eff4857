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
    """
    x = _validated_x0(s, x0)
    horizon = _check_horizon(s, horizon)
    if not sample_dt > 0:
        raise HorizonError(f"sample_dt must be positive, got {sample_dt}")

    n_grid = int(np.floor(horizon / sample_dt + 1e-9))
    grid = np.arange(n_grid + 1) * sample_dt
    t_switch = s.switch_times()
    inside = t_switch[(t_switch > 0.0) & (t_switch < horizon)]
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
    endpoint is recorded.
    """
    x = _validated_x0(s, x0)
    horizon = _check_horizon(s, horizon)
    if not step_h > 0:
        raise HorizonError(f"step_h must be positive, got {step_h}")

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
            raise ValueError(
                f"step_h = {step_h} does not divide segment {k} span {span}"
            )
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
