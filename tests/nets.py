"""Reference networks used across the test suite.

Small hand-checkable systems, mirrored by the JSON files under
fixtures/. The expected analysis results for them (adjacency matrices,
pair-graph edge sets, candidate bounds) are frozen in the tests
alongside the independent oracles that recompute them.
"""

import random

from lcnsyn import Lcn, LogicalMatrix, StateFeedback, logical_identity

# 4-state, 4-input; every state funnels toward state 1; not controllable.
FUNNEL44 = Lcn(4, 4, 4,
               LogicalMatrix(4, (1, 1, 1, 1, 1, 2, 1, 2, 3, 3, 1, 1, 3, 4, 1, 2)),
               logical_identity(4))

# 4-state, 2-input, strongly connected.
RING42 = Lcn(4, 2, 4, LogicalMatrix(4, (2, 2, 1, 3, 4, 4, 2, 2)), logical_identity(4))

# Same transitions with a 2-valued output: states 1..3 share output 1.
H_OUT2 = LogicalMatrix(2, (1, 1, 1, 2))
RING42_OUT2 = Lcn(4, 2, 2, RING42.L, H_OUT2)

# Two-new-input feedback for RING42; applying it kills controllability
# but makes the 2-output system observable.
RING42_FB = StateFeedback(4, 2, 2, LogicalMatrix(2, (1, 2, 2, 2, 1, 2, 1, 2)))
RING42_FB_OUT2 = Lcn(4, 2, 2, LogicalMatrix(4, (2, 2, 3, 3, 4, 4, 2, 2)), H_OUT2)

# Three equal-output states pinned onto state 1: no feedback can help.
SINK42_OUT2 = Lcn(4, 2, 2, LogicalMatrix(4, (1, 1, 1, 1, 1, 1, 2, 3)), H_OUT2)

# 8-state, 4-input network with a 2-class output partition {1..5} / {6..8}.
BIG84 = Lcn(8, 4, 4,
            LogicalMatrix(8, (1, 1, 2, 3, 2, 3, 1, 4, 3, 5, 7, 6, 6, 7, 8, 1,
                              2, 3, 7, 6, 1, 2, 3, 4, 3, 4, 7, 8, 5, 6, 7, 4)),
            LogicalMatrix(4, (1, 1, 1, 1, 1, 2, 2, 2)))
BIG84_G_ONES = (1, 1, 1, 1, 1, 1, 1, 1)
BIG84_G_MIX = (1, 2, 2, 1, 3, 1, 1, 1)
BIG84_CL_ONES = Lcn(8, 1, 4, LogicalMatrix(8, (1, 2, 3, 6, 2, 1, 3, 5)), BIG84.H)
BIG84_CL_MIX = Lcn(8, 1, 4, LogicalMatrix(8, (1, 3, 5, 6, 7, 1, 3, 5)), BIG84.H)

# BIG84 with states 1-8 renamed 1, 3, 5, 7, 8, 2, 4, 6: its output classes
# {1, 3, 5, 7, 8} / {2, 4, 6} interleave.
BIG84_INTERLEAVED = Lcn(8, 4, 4,
                        LogicalMatrix(8, (1, 1, 3, 5, 1, 3, 5, 7, 3, 5, 1, 7, 5, 7, 4, 6,
                                          5, 8, 4, 2, 8, 2, 4, 7, 2, 4, 6, 1, 3, 5, 4, 2)),
                        LogicalMatrix(4, (1, 2, 1, 2, 1, 2, 1, 1)))

# 3-state, 2-input, observable; the closed loop [1,2,1] breaks that.
TRI32 = Lcn(3, 2, 2, LogicalMatrix(3, (1, 3, 3, 2, 1, 1)), LogicalMatrix(2, (1, 1, 2)))
TRI32_CL = Lcn(3, 1, 2, LogicalMatrix(3, (1, 2, 1)), TRI32.H)

ALL_REFERENCE_NETS = (
    FUNNEL44, RING42, RING42_OUT2, RING42_FB_OUT2, SINK42_OUT2,
    BIG84, BIG84_CL_ONES, BIG84_CL_MIX, TRI32, TRI32_CL,
)


def random_network(seed: int, n: int, m: int, q: int) -> Lcn:
    """The benchmark's network generator: L drawn first, then H."""
    rng = random.Random(seed)
    return Lcn(n, m, q, LogicalMatrix(n, tuple(rng.randint(1, n) for _ in range(n * m))),
               LogicalMatrix(q, tuple(rng.randint(1, q) for _ in range(n))))


def paired_classes(n: int) -> Lcn:
    """n/2 two-state output classes {2i-1, 2i}, each state's block {the
    state, its partner}."""
    return Lcn(n, 2, n // 2,
               LogicalMatrix(n, tuple(v for x in range(1, n + 1)
                                      for v in (x, x + 1 if x % 2 else x - 1))),
               LogicalMatrix(n // 2, tuple((x + 1) // 2 for x in range(1, n + 1))))
