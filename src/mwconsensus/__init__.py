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
    load_config,
)
from .graph import (
    Bipartition,
    MatrixWeightedGraph,
    has_positive_negative_spanning_tree,
    laplacian,
)
from .matalg import (
    Definiteness,
    NullSpaceBasis,
    Tolerances,
    classify_stack,
    null_space,
)
from .sim import (
    Trajectory,
    simulate_exact,
    simulate_rk4,
)
from .switching import (
    IntegralNetwork,
    ScheduleReport,
    Segment,
    SwitchingSchedule,
    Window,
    flow_core,
    integral_network,
    simultaneous_structural_balance,
    spectra,
    validate_schedule,
)
from . import errors, scenarios

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CertificationReport",
    "ConsensusKind",
    "ConsensusPrediction",
    "Definiteness",
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
    "certify_cluster_consensus",
    "classify_stack",
    "errors",
    "flow_core",
    "group_clusters",
    "has_positive_negative_spanning_tree",
    "integral_network",
    "laplacian",
    "load_config",
    "mu_m_plus_1",
    "null_intersection",
    "null_space",
    "predict_steady_state",
    "scenarios",
    "simulate_exact",
    "simulate_rk4",
    "simultaneous_structural_balance",
    "spectra",
    "validate_schedule",
    "verify_necessary_condition",
]
