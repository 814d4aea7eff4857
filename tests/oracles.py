"""Slow reference paths kept as oracles for the fast code they were replaced by.

``matrix_abs`` re-classifies a weight with ``eigvalsh`` instead of reading
the class cached on its edge, ``laplacian_oracle`` assembles a Laplacian
through it, ``matrix_exp_neg`` exponentiates one matrix spectrally, and
``run_time_scaled_scenario`` predicts the limit of a generated schedule in
closed form.
"""

from __future__ import annotations

import numpy as np

from mwconsensus.graph import MatrixWeightedGraph, laplacian
from mwconsensus.matalg import (
    EIG_TOL,
    SYM_TOL,
    check_symmetric,
    classify_definiteness,
    null_space,
    projector,
    psd_eigh,
)
from mwconsensus.sim import Trajectory, simulate_exact
from mwconsensus.switching import SwitchingSchedule


def matrix_abs(matrix, eig_tol: float = EIG_TOL, sym_tol: float = SYM_TOL) -> np.ndarray:
    """``sign(M) * M`` with the sign classified afresh; raises on indefinite input."""
    M = check_symmetric(matrix, sym_tol)
    return float(classify_definiteness(M, eig_tol, sym_tol).sign) * M


def laplacian_oracle(g: MatrixWeightedGraph) -> np.ndarray:
    """Block Laplacian ``D - A`` with every ``|A_ij|`` from :func:`matrix_abs`."""
    n, d = g.n, g.d
    L = np.zeros((n * d, n * d))
    for e in g.edges:
        i, j, W = e.i, e.j, e.weight
        aW = matrix_abs(W, g.eig_tol)
        L[i * d : (i + 1) * d, i * d : (i + 1) * d] += aW
        L[j * d : (j + 1) * d, j * d : (j + 1) * d] += aW
        L[i * d : (i + 1) * d, j * d : (j + 1) * d] -= W
        L[j * d : (j + 1) * d, i * d : (i + 1) * d] -= W
    return L


def matrix_exp_neg(matrix, tau: float, eig_tol: float = EIG_TOL) -> np.ndarray:
    """``exp(-tau * M)`` for symmetric PSD ``M`` and ``tau >= 0``, spectrally."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    lam, V, _ = psd_eigh(matrix, eig_tol)
    return (V * np.exp(-tau * lam)) @ V.T


def run_time_scaled_scenario(
    kind: str, base_graph: MatrixWeightedGraph, intervals: int, x0
) -> tuple[Trajectory, np.ndarray]:
    """Simulate a unit-dwell generated schedule and predict its limit in closed form.

    ``inverse_square_decay`` (gain 1/k^2) has a converging total dose, so the
    state tends to ``exp(-(sum_k 1/k^2) L) x0``.  ``linear_ramp`` (gain k) has
    a diverging dose, so the state tends to the null-space projection of x0.
    Returns the trajectory and the predicted limit after ``intervals`` intervals.
    """
    s = SwitchingSchedule.generated(
        {"base": base_graph}, kind, {"graph": "base", "intervals": intervals}, alpha=1.0
    )
    x = np.asarray(x0, dtype=float).ravel()
    traj = simulate_exact(s, x, horizon=float(intervals), sample_dt=float(intervals))
    L = laplacian(base_graph).matrix
    if kind == "inverse_square_decay":
        dose = float(sum(1.0 / k**2 for k in range(1, intervals + 1)))
        predicted = matrix_exp_neg(L, dose) @ x
    else:
        predicted = projector(null_space(L)) @ x
    return traj, predicted
