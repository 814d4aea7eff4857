"""Trajectory generation for the switched consensus protocol.

Two integration routes are provided on purpose:

* :func:`simulate_exact` evaluates the piecewise flow spectrally, segment by
  segment, reusing one eigendecomposition per catalog graph.  Within a
  segment the dynamics are linear time-invariant, so this is exact up to
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

    def state_at(self, t: float, tol: float = 1e-9) -> np.ndarray:
        """State at the sample instant nearest to ``t`` (within ``tol``)."""
        k = int(np.searchsorted(self.times, t))
        best, err = None, np.inf
        for c in (k - 1, k):
            if 0 <= c < self.times.size and abs(self.times[c] - t) < err:
                best, err = c, abs(self.times[c] - t)
        if best is None or err > tol:
            raise KeyError(f"no sample within {tol} of t = {t}")
        return self.states[best]

    def agent(self, i: int) -> np.ndarray:
        """All samples of agent ``i``'s d-dimensional state, shape (S, d)."""
        if not 0 <= i < self.n:
            raise DimensionMismatchError(f"agent index {i} out of range 0..{self.n - 1}")
        return self.states[:, i * self.d : (i + 1) * self.d]


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
    merged).  Within segment k the state evolves by
    ``exp(-scale_k L_k (t - t_k))``, evaluated spectrally for all samples of
    the segment at once.
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

    states = np.empty((ts.size, x.size))
    idx = 0
    for k, seg in enumerate(s.segments()):
        a, b = float(t_switch[k]), float(t_switch[k + 1])
        last = b >= horizon - _EDGE_TOL
        end = min(b, horizon)
        hi = int(np.searchsorted(ts, end, side="right" if last else "left"))
        lam, V = s.eig_of(seg.graph_id)
        if hi > idx:
            taus = ts[idx:hi] - a
            decay = np.exp(-np.outer(seg.scale * lam, taus))
            states[idx:hi] = (V @ (decay * (V.T @ x)[:, None])).T
            if taus[0] == 0.0:
                states[idx] = x  # exact at the segment boundary
            idx = hi
        x = V @ (np.exp(-seg.scale * lam * (end - a)) * (V.T @ x))
        if last:
            break
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

    t_switch = s.switch_times()
    chunks_t: list[np.ndarray] = [np.zeros(1)]
    chunks_x: list[np.ndarray] = [x[None, :].copy()]
    for k, seg in enumerate(s.segments()):
        a, b = float(t_switch[k]), float(t_switch[k + 1])
        last = b >= horizon - _EDGE_TOL
        end = min(b, horizon)
        span = end - a
        nst = int(round(span / step_h))
        if nst < 1 or abs(nst * step_h - span) > 1e-9 * max(1.0, span):
            raise ValueError(
                f"step_h = {step_h} does not divide segment {k} span {span}"
            )
        L = seg.scale * s.laplacian_of(seg.graph_id).matrix
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


@dataclass(frozen=True)
class ConvergenceMonitor:
    """Deviation-energy trace of a trajectory against a reference state.

    ``deviations[k] = ||x(t_k) - reference||^2``.  ``converged_at`` is the
    first sample time at which the deviation energy falls to
    ``(conv_tol * ||x(0)||)^2`` or below (None if never).  ``decay_rate`` is a
    per-unit-time geometric rate fitted to the pre-convergence samples (None
    when fewer than two are available).
    """

    times: np.ndarray = field(repr=False)
    deviations: np.ndarray = field(repr=False)
    threshold: float
    converged_at: float | None
    decay_rate: float | None


def monitor_convergence(
    traj: Trajectory, reference, conv_tol: float = 1e-6
) -> ConvergenceMonitor:
    """Track ||x(t) - reference||^2 along a trajectory.

    The convergence threshold scales with the initial state magnitude, so the
    verdict is invariant under rescaling the whole experiment.
    """
    ref = np.asarray(reference, dtype=float).ravel()
    if ref.size != traj.states.shape[1]:
        raise DimensionMismatchError(
            f"reference length {ref.size} != state dimension {traj.states.shape[1]}"
        )
    diffs = traj.states - ref[None, :]
    V = np.einsum("ij,ij->i", diffs, diffs)
    x0_norm = float(np.linalg.norm(traj.states[0]))
    thr = (conv_tol * x0_norm) ** 2
    below = np.nonzero(V <= thr)[0]
    converged_at = float(traj.times[below[0]]) if below.size else None
    pre = np.nonzero(V > thr)[0]
    rate = None
    if pre.size >= 2:
        t = traj.times[pre]
        logv = np.log(V[pre])
        slope = float(np.polyfit(t, logv, 1)[0])
        rate = float(np.exp(slope))
    return ConvergenceMonitor(
        times=traj.times.copy(),
        deviations=V,
        threshold=thr,
        converged_at=converged_at,
        decay_rate=rate,
    )
