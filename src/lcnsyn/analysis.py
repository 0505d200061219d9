"""Graph analyses: controllability and observability decisions.

Controllability reduces to strong connectivity of the state transition
graph, whose adjacency matrix has the closed form ``[L_1 1_M, ...,
L_N 1_M]`` (column x counts, per target state, the inputs driving x
there). The decision reads each state's successors straight from its
block ``L_x``.

Observability uses the pair graph on unordered equal-output state pairs
``{x, x'}``: an input u induces an edge to ``{f(x,u), f(x',u)}`` when
that target is again a vertex. Pairs whose successors have unequal
outputs contribute no edge for that input. All diagonal pairs ``{x, x}``
are collapsed into a single sentinel vertex :data:`DIAG` carrying an
unconditional self-loop (the diagonal subgraph always contains cycles
and every diagonal vertex stays diagonal, so its internal structure is
irrelevant to the decision). The network is unobservable exactly when
some non-diagonal vertex has a path (possibly empty) to a vertex on a
cycle; DIAG counts as on a cycle.

Both decisions walk one integer adjacency. Observability takes one pass
over Tarjan's strongly connected components in emission order: Tarjan
emits a component only after every component it can reach, so a
component reaches a cycle exactly when it is cyclic itself (two or more
vertices, or a self-loop) or one of its successors was already found to
reach one. The least pair that reaches a cycle is the witness.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from ._value import Value
from .model import Lcn
from .stp import CELL_CAP, DenseMatrix, MatrixSizeError, _check_cells


class _Diag:
    """Sentinel vertex for the collapsed diagonal subgraph."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DIAG"


DIAG = _Diag()

#: A vertex of an observability graph: a sorted state pair or DIAG.
Vertex = tuple | _Diag


def _vertex_key(v):
    return (1,) if v is DIAG else (0, v)


class StateTransitionGraph(Value):
    """State transition graph as an N x N count matrix.

    ``adjacency.entry(i, j)`` is the number of inputs driving state j to
    state i; positive means the edge j -> i exists. Column sums all
    equal the input count M.
    """

    __slots__ = ("n_vertices", "adjacency")

    def __init__(self, n_vertices: int, adjacency: DenseMatrix) -> None:
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "adjacency", adjacency)


class ObservabilityGraph(Value):
    """``vertices`` are the non-diagonal pairs (i, j), i < j."""

    __slots__ = ("vertices", "edges", "n_inputs")

    def __init__(self, vertices: tuple[tuple[int, int], ...],
                 edges: tuple[tuple[Vertex, Vertex, tuple[int, ...]], ...],
                 n_inputs: int) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n_inputs", n_inputs)

    def _decide(self) -> ObservabilityResult:
        """The verdict and witness of :func:`is_observable`, read from
        this graph."""
        verts = [*self.vertices, DIAG]
        pos = {v: k for k, v in enumerate(verts)}
        succs: list[list[int]] = [[] for _ in verts]
        for src, dst, _w in self.edges:  # sorted edges: each list ascends
            succs[pos[src]].append(pos[dst])
        cyclic = [False] * len(verts)
        bad = [False] * len(verts)  # reaches a cyclic vertex
        for comp in _strong_components(succs):
            on_cycle = len(comp) > 1 or comp[0] in succs[comp[0]]
            reaches = on_cycle or any(bad[w] for v in comp for w in succs[v])
            for v in comp:
                cyclic[v], bad[v] = on_cycle, reaches
        start = bad.index(True)
        if start == len(verts) - 1:  # no pair reaches a cycle, only DIAG
            return ObservabilityResult(True, None)
        # shortest path from the least bad pair to a cyclic vertex
        parent: dict = {start: None}
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


class ControllabilityResult(Value):
    """On failure, ``witness`` is a (source, target) state pair with no
    path source -> target."""

    __slots__ = ("controllable", "witness")

    def __init__(self, controllable: bool, witness: tuple[int, int] | None) -> None:
        object.__setattr__(self, "controllable", controllable)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.controllable


class ObservabilityWitness(Value):
    """A pair that cannot be told apart: it reaches a cycle. ``path`` is
    a shortest path from ``pair`` to ``cycle_entry``."""

    __slots__ = ("pair", "path", "cycle_entry")

    def __init__(self, pair: tuple[int, int], path: tuple[Vertex, ...],
                 cycle_entry: Vertex) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "cycle_entry", cycle_entry)


class ObservabilityResult(Value):
    __slots__ = ("observable", "witness")

    def __init__(self, observable: bool, witness: ObservabilityWitness | None) -> None:
        object.__setattr__(self, "observable", observable)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.observable


def transition_graph(lcn: Lcn) -> StateTransitionGraph:
    """Adjacency ``[L_1 1_M, ..., L_N 1_M]`` of the transition graph.

    Raises :class:`MatrixSizeError` when its N*N cells exceed :data:`CELL_CAP`.
    """
    n, m = lcn.state_dim, lcn.input_dim
    _check_cells(n, n)
    counts = [0] * (n * n)
    for x in range(1, n + 1):
        for u in range(1, m + 1):
            t = lcn.step(x, u)
            counts[(t - 1) * n + (x - 1)] += 1
    return StateTransitionGraph(n, DenseMatrix(n, n, tuple(counts)))


def _strong_components(succs: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a 0-based digraph (iterative Tarjan)."""
    n = len(succs)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    next_index = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            recursed = False
            for k in range(pi, len(succs[v])):
                w = succs[v][k]
                if index[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    recursed = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def _reach_set(succs: list[list[int]], src: int) -> set[int]:
    seen = {src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in succs[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _successors(lcn: Lcn) -> list[list[int]]:
    """Each state's distinct successors (its block's columns), ascending, 0-based."""
    m, cols = lcn.input_dim, lcn.L.col_indices
    return [sorted({t - 1 for t in cols[x * m:(x + 1) * m]}) for x in range(lcn.state_dim)]


def _output_classes(lcn: Lcn) -> list[tuple[int, list[int]]]:
    """``(output, its 1-based states ascending)`` per output taken, ascending."""
    by_output: dict[int, list[int]] = {}
    for x, y in enumerate(lcn.H.col_indices, start=1):
        by_output.setdefault(y, []).append(x)
    return sorted(by_output.items())


def is_controllable(lcn: Lcn) -> ControllabilityResult:
    """Controllable iff the transition graph is strongly connected.

    The failure witness is deterministic: among all (source, target)
    pairs with no path, the one with the greatest source and, for that
    source, the least target.
    """
    n = lcn.state_dim
    succs = _successors(lcn)
    if len(_strong_components(succs)) == 1:
        return ControllabilityResult(True, None)
    for src in range(n - 1, -1, -1):
        reach = _reach_set(succs, src)
        if len(reach) == n:
            continue
        tgt = min(t for t in range(n) if t not in reach)
        return ControllabilityResult(False, (src + 1, tgt + 1))
    raise AssertionError("unreachable: >1 SCC implies a failing pair")


def _check_pair_count(class_sizes) -> None:
    """Raise :class:`MatrixSizeError` when output classes of these sizes
    have more equal-output pairs than :data:`CELL_CAP`."""
    n_pairs = sum(c * (c - 1) // 2 for c in class_sizes)
    if n_pairs > CELL_CAP:
        raise MatrixSizeError(
            f"pair graph of {n_pairs} equal-output pairs exceeds cap {CELL_CAP}"
        )


def observability_graph(lcn: Lcn) -> ObservabilityGraph:
    """Pair graph on equal-output state pairs, diagonal collapsed to DIAG.

    Raises :class:`MatrixSizeError`, before building anything, when there
    are more equal-output pairs than :data:`CELL_CAP`.
    """
    m, cols, out = lcn.input_dim, lcn.L.col_indices, lcn.H.col_indices
    classes = [members for _y, members in _output_classes(lcn)]
    _check_pair_count(map(len, classes))
    vertices = tuple(sorted(pair for members in classes for pair in combinations(members, 2)))
    edges = []
    for src in vertices:
        i, j = src
        inputs: dict = {}  # target -> the inputs leading there, ascending
        for u in range(m):
            a, b = cols[(i - 1) * m + u], cols[(j - 1) * m + u]
            if a == b:
                inputs.setdefault(DIAG, []).append(u + 1)
            elif out[a - 1] == out[b - 1]:  # else distinguishable: no edge
                inputs.setdefault((a, b) if a < b else (b, a), []).append(u + 1)
        edges.extend((src, t, tuple(inputs[t])) for t in sorted(inputs, key=_vertex_key))
    edges.append((DIAG, DIAG, tuple(range(1, m + 1))))
    return ObservabilityGraph(vertices, tuple(edges), m)


def is_observable(lcn: Lcn) -> ObservabilityResult:
    """Observable iff no equal-output pair can reach a cycle.

    The failure witness is the least such pair (pairs ordered
    lexicographically) together with its shortest path to a cyclic
    vertex; BFS ties are broken by vertex order, DIAG last.
    """
    return observability_graph(lcn)._decide()


def _pair_name(v: Vertex, wide: bool) -> str:
    if v is DIAG:
        return "DIAG"
    i, j = v
    return f"{i}-{j}" if wide else f"{i}{j}"


def export_dot(graph: StateTransitionGraph | ObservabilityGraph) -> str:
    """Deterministic Graphviz DOT text for either graph kind.

    Observability graphs sort pair vertices lexicographically with DIAG
    last and label edges with the comma-joined input indices of their
    weight; transition graphs label edges with their input multiplicity.
    """
    lines: list[str] = []
    if isinstance(graph, StateTransitionGraph):
        n = graph.n_vertices
        lines.append("digraph transitions {")
        for v in range(1, n + 1):
            lines.append(f'  "{v}";')
        adj = graph.adjacency
        for src in range(1, n + 1):
            for tgt in range(1, n + 1):
                c = adj.entry(tgt, src)
                if c > 0:
                    lines.append(f'  "{src}" -> "{tgt}" [label="{c}"];')
    else:
        wide = any(j > 9 for _i, j in graph.vertices)
        lines.append("digraph observability {")
        for v in sorted(graph.vertices):
            lines.append(f'  "{_pair_name(v, wide)}";')
        lines.append('  "DIAG";')
        for src, dst, ws in graph.edges:
            label = ",".join(str(u) for u in ws)
            lines.append(
                f'  "{_pair_name(src, wide)}" -> "{_pair_name(dst, wide)}" [label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
