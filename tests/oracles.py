"""Independent brute-force oracles.

These deliberately avoid the library's algorithms: observability is
decided by enumerating bounded input sequences, controllability by
plain breadth-first reachability over the step function, and matrix
products by the schoolbook triple loop. They exist so the production
paths have something independent to agree with.
"""

from collections import deque
from itertools import product

from lcnsyn import DIAG, Lcn
from lcnsyn.feedback import apply_feedback
from lcnsyn.model import StateFeedback
from lcnsyn.stp import DenseMatrix, LogicalMatrix


def oracle_observable(lcn: Lcn) -> bool:
    """Distinguishability by bounded input-sequence enumeration.

    A pair of distinct initial states defeats observability iff it can
    keep producing equal outputs for n(n+1)/2 + 1 transitions: the pair
    state space (diagonal included) has n(n+1)/2 elements, so surviving
    that long forces a repeat and hence an infinite witness.
    """
    n, m = lcn.state_dim, lcn.input_dim
    limit = n * (n + 1) // 2 + 1

    def survives(x: int, y: int, depth: int) -> bool:
        if depth == limit:
            return True
        for u in range(1, m + 1):
            a, b = lcn.step(x, u), lcn.step(y, u)
            if lcn.output(a) == lcn.output(b) and survives(a, b, depth + 1):
                return True
        return False

    for x in range(1, n):
        for y in range(x + 1, n + 1):
            if lcn.output(x) == lcn.output(y) and survives(x, y, 0):
                return False
    return True


def oracle_controllable(lcn: Lcn) -> bool:
    """Strong connectivity by BFS from every state over the step function."""
    n, m = lcn.state_dim, lcn.input_dim
    full = set(range(1, n + 1))
    for src in range(1, n + 1):
        seen = {src}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for u in range(1, m + 1):
                t = lcn.step(x, u)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        if seen != full:
            return False
    return True


def naive_matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    assert a.cols == b.rows
    rows = []
    for i in range(1, a.rows + 1):
        rows.append(
            [sum(a.entry(i, k) * b.entry(k, j) for k in range(1, a.cols + 1))
             for j in range(1, b.cols + 1)]
        )
    return DenseMatrix.from_rows(rows)


def naive_observability_graph_edges(lcn: Lcn):
    """Edge set (src, dst, weight) recomputed straight from the definition."""
    n, m = lcn.state_dim, lcn.input_dim
    pairs = [
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if lcn.output(i) == lcn.output(j)
    ]
    weights = {}
    for (i, j) in pairs:
        for u in range(1, m + 1):
            a, b = lcn.step(i, u), lcn.step(j, u)
            if a == b:
                key = ((i, j), DIAG)
            elif lcn.output(a) == lcn.output(b):
                key = ((i, j), (min(a, b), max(a, b)))
            else:
                continue
            weights.setdefault(key, set()).add(u)
    edges = {(src, dst, tuple(sorted(ws))) for (src, dst), ws in weights.items()}
    edges.add((DIAG, DIAG, tuple(range(1, m + 1))))
    return edges


def all_pairs_vertices(lcn: Lcn):
    """The pair graph's vertex list by a scan of every state pair (i, j),
    i < j, in lexicographic order, keeping those with equal outputs."""
    n = lcn.state_dim
    return tuple(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if lcn.output(i) == lcn.output(j)
    )


def all_pairs_obstruction(lcn: Lcn):
    """The first structural obstruction as ``(kind, j, k, target)``, or None,
    by a scan of every state pair (j, k), j < k, in lexicographic order:
    two equal-output states whose blocks are the same constant map
    ("constant_blocks", checked first) or that constantly map onto the
    pair itself ("locked_pair", target None)."""
    n = lcn.state_dim
    const = []  # constant target of each block, or None
    for x in range(1, n + 1):
        cols = set(lcn.block(x).col_indices)
        const.append(next(iter(cols)) if len(cols) == 1 else None)
    for j in range(1, n):
        for k in range(j + 1, n + 1):
            if lcn.output(j) != lcn.output(k):
                continue
            cj, ck = const[j - 1], const[k - 1]
            if cj is None or ck is None:
                continue
            if cj == ck:
                return ("constant_blocks", j, k, cj)
            if (cj == j and ck == k) or (cj == k and ck == j):
                return ("locked_pair", j, k, None)
    return None


def all_closed_loop_maps(lcn: Lcn):
    """Every closed-loop transition map, by brute force over all M^N g's."""
    from lcnsyn.feedback import ClosedLoopController

    n, m = lcn.state_dim, lcn.input_dim
    for g in product(range(1, m + 1), repeat=n):
        yield ClosedLoopController(g), apply_feedback(lcn, ClosedLoopController(g))


def all_general_feedbacks(lcn: Lcn, new_input_dim: int):
    """Every general controller with P new inputs (M^(N*P) of them)."""
    n, m = lcn.state_dim, lcn.input_dim
    for cols in product(range(1, m + 1), repeat=n * new_input_dim):
        yield StateFeedback(n, m, new_input_dim, LogicalMatrix(m, cols))
