"""Independent brute-force oracles.

These deliberately avoid the library's algorithms: observability is
decided by enumerating bounded input sequences, controllability by
plain breadth-first reachability over the step function, and matrix
products by the schoolbook triple loop. They exist so the production
paths have something independent to agree with.
"""

from collections import deque
from itertools import product

from lcnsyn import DIAG, Lcn, ObservabilityResult, ObservabilityWitness, observability_graph
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


def all_sources_controllability_witness(lcn: Lcn):
    """``(controllable, witness)`` by BFS from every source, the greatest
    first: the witness is the first source that misses a state, with the
    least state it misses, or None when every source reaches every state."""
    n, m = lcn.state_dim, lcn.input_dim
    for src in range(n, 0, -1):
        seen = {src}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for u in range(1, m + 1):
                t = lcn.step(x, u)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        if len(seen) < n:
            return False, (src, min(t for t in range(1, n + 1) if t not in seen))
    return True, None


def reach_sets(succs: list[list[int]]) -> list[set[int]]:
    """What each vertex of a 0-based digraph reaches, itself included, by
    a BFS from every vertex."""
    reach = []
    for src in range(len(succs)):
        seen = {src}
        queue = deque([src])
        while queue:
            for w in succs[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach.append(seen)
    return reach


def strong_components(succs: list[list[int]]) -> set[frozenset[int]]:
    """The strongly connected components of a 0-based digraph by mutual
    reachability: v and w share one exactly when each reaches the other."""
    reach = reach_sets(succs)
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in range(len(succs))}


def member_value_components(options: list[list[int]]) -> set[frozenset[int]]:
    """The connected components of the member-value graph, as sets of
    member indices: each grows from its least member by re-scanning every
    pair of members until no member outside shares a value with it."""
    left, components = set(range(len(options))), set()
    while left:
        comp, grown = {min(left)}, True
        while grown:
            grown = False
            for j in sorted(left - comp):
                if any(set(options[j]) & set(options[i]) for i in comp):
                    comp.add(j)
                    grown = True
        left -= comp
        components.add(frozenset(comp))
    return components


def counting_order_fault(options: list[list[int]], blocks: list[list[int]]) -> str | None:
    """The first step at which ``blocks`` (member indices, in the order
    taken) breaks maximum cardinality order, or None. Before each step,
    every remaining member's count of values that taken members offer is
    recomputed from scratch. A block's first member must come when no
    remaining member has such a value; a later member must have one. Either
    way it must have the highest count among the remaining members, ties
    to fewer options, then to the lower index."""
    taken: list[int] = []
    for b, block in enumerate(blocks):
        for pos, i in enumerate(block):
            offered = {v for t in taken for v in options[t]}
            remaining = [j for j in range(len(options)) if j not in taken]
            count = {j: len(set(options[j]) & offered) for j in remaining}
            best = min(remaining, key=lambda j: (-count[j], len(options[j]), j))
            if (pos == 0) != (count[best] == 0):
                return f"block {b} position {pos}: member {best} shares {count[best]} values"
            if i != best:
                return f"block {b} position {pos}: member {i} taken before {best}"
            taken.append(i)
    return None


def budgeted_choice_count(options: list[list[int]], budget: int):
    """(count, budget left) for the pairwise-distinct choices from the
    option lists, members in the given order, or (None, 0) when the nodes
    exceed ``budget``. Every injective choice for the first j members,
    j = 1 .. len - 1, is a node, built one prefix length at a time and
    counted as a whole; the last member's choices are counted, not nodes."""
    prefixes, nodes = [()], 0
    for opts in options[:-1]:
        prefixes = [p + (v,) for p in prefixes for v in opts if v not in p]
        nodes += len(prefixes)
    count = sum(1 for p in prefixes for v in options[-1] if v not in p)
    return (count, budget - nodes) if nodes <= budget else (None, 0)


def naive_matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    assert a.cols == b.rows
    rows = []
    for i in range(1, a.rows + 1):
        rows.append(
            [sum(a.entry(i, k) * b.entry(k, j) for k in range(1, a.cols + 1))
             for j in range(1, b.cols + 1)]
        )
    return DenseMatrix.from_rows(rows)


def transition_dot_from_adjacency(adj: DenseMatrix) -> str:
    """Transition-graph DOT text from an N x N adjacency, whose entry
    (i, j) counts the inputs driving state j to state i: every state,
    then one edge per positive entry, sources and targets ascending."""
    n = adj.rows
    lines = ["digraph transitions {"]
    for v in range(1, n + 1):
        lines.append(f'  "{v}";')
    for src in range(1, n + 1):
        for tgt in range(1, n + 1):
            c = adj.entry(tgt, src)
            if c > 0:
                lines.append(f'  "{src}" -> "{tgt}" [label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def graph_observability(lcn: Lcn) -> ObservabilityResult:
    """``is_observable``'s verdict and witness read off the whole
    materialised pair graph: mark every vertex that reaches a cyclic one
    by a BFS from every vertex, take the least such pair, and run a BFS
    from it to the nearest cyclic vertex, ties broken by edge order."""
    graph = observability_graph(lcn)
    verts = [*graph.vertices, DIAG]
    pos = {v: k for k, v in enumerate(verts)}
    succs = [[] for _ in verts]
    for src, dst, _w in graph.edges:  # sorted edges: each list ascends
        succs[pos[src]].append(pos[dst])
    reach = reach_sets(succs)
    cyclic = [any(v in reach[w] for w in succs[v]) for v in range(len(verts))]
    bad = [any(cyclic[w] for w in reach[v]) for v in range(len(verts))]  # reaches a cyclic vertex
    start = bad.index(True)
    if start == len(verts) - 1:  # no pair reaches a cycle, only DIAG
        return ObservabilityResult(True, None)
    parent = {start: None}
    queue = deque([start])
    while not cyclic[v := queue.popleft()]:
        for w in succs[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = []
    while v is not None:
        path.append(verts[v])
        v = parent[v]
    path.reverse()
    return ObservabilityResult(False, ObservabilityWitness(path[0], tuple(path), path[-1]))


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
