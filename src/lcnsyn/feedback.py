"""Applying state-feedback controllers to LCNs.

Feeding ``u = G x v`` into ``x+ = L x u`` gives the block formula
``x+ = [L_1 G_1, ..., L_N G_N] x v``: the new transition matrix is
assembled per state by picking, for each new input v, the column of
``L_i`` selected by ``G_i``. That index composition (``O(N*P)``) is the
production path; the equivalent STP chain ``L (I_N kron G) M_red x v``
survives only as a test oracle.

A closed-loop controller (P = 1) leaves one constant new input, so the
result is an ordinary Lcn with input dimension 1; every analysis accepts
it unchanged.
"""

from __future__ import annotations

from ._value import Value
from .analysis import transition_graph
from .model import Lcn, StateFeedback
from .stp import DenseMatrix, LogicalMatrix


class ClosedLoopController(Value):
    """``u(t) = g(x(t))``: one input index per state, no external input."""

    __slots__ = ("g",)

    def __init__(self, g: tuple[int, ...]) -> None:
        object.__setattr__(self, "g", tuple(g))

    def as_state_feedback(self, input_dim: int) -> StateFeedback:
        return StateFeedback(len(self.g), input_dim, 1, LogicalMatrix(input_dim, self.g))


def _coerce(lcn: Lcn, fb: StateFeedback | ClosedLoopController) -> StateFeedback:
    if isinstance(fb, ClosedLoopController):
        fb = fb.as_state_feedback(lcn.input_dim)
    if fb.state_dim != lcn.state_dim or fb.input_dim != lcn.input_dim:
        raise ValueError(
            f"feedback for N={fb.state_dim}, M={fb.input_dim} does not fit "
            f"network with N={lcn.state_dim}, M={lcn.input_dim}"
        )
    if fb.G.cols != fb.state_dim * fb.new_input_dim:
        raise ValueError(
            f"G column count {fb.G.cols} != {fb.state_dim * fb.new_input_dim} (N*P)"
        )
    if not all(1 <= v <= lcn.input_dim for v in fb.G.col_indices):
        raise ValueError(f"controller picks inputs outside [1, {lcn.input_dim}]")
    return fb


def apply_feedback(lcn: Lcn, fb: StateFeedback | ClosedLoopController) -> Lcn:
    """The feedback system ``x+ = [L_1 G_1, ..., L_N G_N] x v``.

    Accepts a general controller or a closed-loop one; the result has
    input dimension P (1 for closed-loop) and the same output map.
    """
    fb = _coerce(lcn, fb)
    n, m, p = lcn.state_dim, lcn.input_dim, fb.new_input_dim
    lcols = lcn.L.col_indices
    gcols = fb.G.col_indices
    new_cols = []
    for i in range(n):
        lbase = i * m
        gbase = i * p
        for l in range(p):
            new_cols.append(lcols[lbase + gcols[gbase + l] - 1])
    return Lcn(
        n,
        p,
        lcn.output_dim,
        LogicalMatrix(n, tuple(new_cols)),
        lcn.H,
        state_factors=lcn.state_factors,
        output_factors=lcn.output_factors,
    )


def feedback_adjacency(lcn: Lcn, fb: StateFeedback | ClosedLoopController) -> DenseMatrix:
    """Transition-graph adjacency ``[L_1 G_1 1_P, ..., L_N G_N 1_P]`` of
    the feedback system."""
    return transition_graph(apply_feedback(lcn, fb)).adjacency


def column_slice(fb: StateFeedback, i: int) -> ClosedLoopController:
    """Closed-loop controller taking column i of every block ``G_j``.

    Its pair-graph edges form a subset of the full feedback system's,
    which is what makes closed-loop search complete for observability
    synthesis.
    """
    if not (1 <= i <= fb.new_input_dim):
        raise IndexError(f"column {i} outside [1, {fb.new_input_dim}]")
    p = fb.new_input_dim
    return ClosedLoopController(
        tuple(fb.G.col_indices[j * p + (i - 1)] for j in range(fb.state_dim))
    )
