"""Consensus on matrix-weighted switching networks.

Agents carry d-dimensional states coupled through symmetric sign-definite
matrix weights; the network itself switches over a finite catalog.  The
package simulates the protocol, computes the common null space that the
population converges to, classifies the resulting agreement pattern (full,
bipartite, or clustered), and certifies geometric convergence window by
window.
"""

from .analysis import (
    CertificationReport,
    ConsensusKind,
    ConsensusPrediction,
    bipartite_steady_state,
    certify_cluster_consensus,
    group_clusters,
    mu_m_plus_1,
    null_intersection,
    predict_steady_state,
    verify_necessary_condition,
)
from .config import (
    ScenarioConfig,
    SolverConfig,
    Tolerances,
    load_config,
)
from .graph import (
    Bipartition,
    EdgeWeight,
    MatrixWeightedGraph,
    gauge_transform,
    has_positive_negative_spanning_tree,
    is_connected,
    laplacian,
    quadratic_form,
    structural_balance,
)
from .matalg import (
    Definiteness,
    NullSpaceBasis,
    classify_definiteness,
    null_space,
    projector,
)
from .sim import (
    ConvergenceMonitor,
    Trajectory,
    monitor_convergence,
    simulate_exact,
    simulate_rk4,
)
from .switching import (
    IntegralNetwork,
    ScheduleReport,
    Segment,
    SwitchingSchedule,
    Window,
    integral_network,
    simultaneous_structural_balance,
    state_transition,
    validate_schedule,
)
from . import errors, scenarios

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CertificationReport",
    "ConsensusKind",
    "ConsensusPrediction",
    "ConvergenceMonitor",
    "Definiteness",
    "EdgeWeight",
    "IntegralNetwork",
    "MatrixWeightedGraph",
    "NullSpaceBasis",
    "ScenarioConfig",
    "ScheduleReport",
    "Segment",
    "SolverConfig",
    "SwitchingSchedule",
    "Tolerances",
    "Trajectory",
    "Window",
    "bipartite_steady_state",
    "certify_cluster_consensus",
    "classify_definiteness",
    "errors",
    "gauge_transform",
    "group_clusters",
    "has_positive_negative_spanning_tree",
    "integral_network",
    "is_connected",
    "laplacian",
    "load_config",
    "monitor_convergence",
    "mu_m_plus_1",
    "null_intersection",
    "null_space",
    "predict_steady_state",
    "projector",
    "quadratic_form",
    "scenarios",
    "simulate_exact",
    "simulate_rk4",
    "simultaneous_structural_balance",
    "state_transition",
    "structural_balance",
    "validate_schedule",
    "verify_necessary_condition",
]
