"""The seeded random network generator of the earlier backend benchmark.

``perfbench/tests/test_perfbench.py`` checks that
``perfbench/reference.random_network`` draws the same networks as this
one, so the workloads named in ROADMAP.md as ``random_network(seed, N,
M, Q)`` stay the same networks. The end-to-end benchmark is
``perfbench/run.py``.
"""

from __future__ import annotations

import random

from lcnsyn import Lcn, LogicalMatrix


def random_network(seed: int, n: int, m: int, q: int) -> Lcn:
    rng = random.Random(seed)
    return Lcn(
        n, m, q,
        LogicalMatrix(n, tuple(rng.randint(1, n) for _ in range(n * m))),
        LogicalMatrix(q, tuple(rng.randint(1, q) for _ in range(n))),
    )
