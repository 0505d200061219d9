"""Verification and synthesis toolkit for logical control networks.

Finite-state input/output systems in semitensor-product algebraic form:
decide controllability (strong connectivity of the transition graph)
and observability (cycle reachability in the equal-output pair graph),
apply state-feedback controllers, and search the finite closed-loop
controller space, with exact pruning bounds, to enforce observability
or prove that no state feedback can.
"""

from .analysis import (
    DIAG,
    ControllabilityResult,
    ObservabilityGraph,
    ObservabilityResult,
    ObservabilityWitness,
    StateTransitionGraph,
    export_dot,
    is_controllable,
    is_observable,
    observability_graph,
    output_partition,
    transition_graph,
)
from .feedback import ClosedLoopController, apply_feedback, column_slice, feedback_adjacency
from .model import Lcn, MissingEntryError, StateFeedback, from_truth_table, validate
from .stp import (
    CELL_CAP,
    DenseMatrix,
    LogicalMatrix,
    MatrixSizeError,
    NotLogicalError,
    compress,
    expand,
    identity,
    kron,
    logical_identity,
    logical_stp_column,
    power_reducing_matrix,
    stp,
    swap_matrix,
)
from .synthesis import (
    ControllabilityVerdict,
    Obstruction,
    SynthesisReport,
    Verdict,
    candidate_bounds,
    controllability_synthesis_verdict,
    enumerate_candidates,
    synthesize_observability,
)

__version__ = "0.1.0"

__all__ = [
    "CELL_CAP",
    "DIAG",
    "ClosedLoopController",
    "ControllabilityResult",
    "ControllabilityVerdict",
    "DenseMatrix",
    "Lcn",
    "LogicalMatrix",
    "MatrixSizeError",
    "MissingEntryError",
    "NotLogicalError",
    "Obstruction",
    "ObservabilityGraph",
    "ObservabilityResult",
    "ObservabilityWitness",
    "StateFeedback",
    "StateTransitionGraph",
    "SynthesisReport",
    "Verdict",
    "apply_feedback",
    "candidate_bounds",
    "column_slice",
    "compress",
    "controllability_synthesis_verdict",
    "enumerate_candidates",
    "expand",
    "export_dot",
    "feedback_adjacency",
    "from_truth_table",
    "identity",
    "is_controllable",
    "is_observable",
    "kron",
    "logical_identity",
    "logical_stp_column",
    "observability_graph",
    "output_partition",
    "power_reducing_matrix",
    "stp",
    "swap_matrix",
    "synthesize_observability",
    "transition_graph",
    "validate",
]
