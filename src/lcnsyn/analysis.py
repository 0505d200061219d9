"""Graph analyses: controllability and observability decisions.

Controllability reduces to strong connectivity of the state transition
graph. The decision reads each state's successors straight from its
block ``L_x``, and :func:`transition_graph` lists the graph's edges with
their input multiplicities; the closed-form adjacency ``[L_1 1_M, ...,
L_N 1_M]`` is built from those edges only on request.

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

Both decisions read successors straight from ``L``. Controllability
reads Tarjan's strongly connected components. Tarjan's algorithm runs on
a stack of successor iterators, without recursion, and emits each
component only after every component it reaches. So the last one has no
predecessor: the controllability witness source is the greatest state
outside it if it reaches every state, and state N otherwise.
Observability is decided by one depth-first walk over the pairs in
lexicographic order (:func:`_least_unsafe_pair`), which stops at the
first pair that merges into DIAG or steps back onto its own path; that
is all :mod:`lcnsyn.synthesis` reads. :func:`is_observable` then
explores, breadth first, only what the witness pair reaches, leaving out
the pairs the walk proved safe, and finds its shortest path to a cycle
with Tarjan's components; a component is cyclic when it has two or more
vertices or a self-loop. Only :func:`observability_graph`, the DOT
text's source, materialises the pair graph, and it refuses more than
:data:`GRAPH_CAP` pair-input cells (equal-output pairs times inputs).
"""

from __future__ import annotations

from collections import Counter
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

#: Guard of :func:`observability_graph`: the most pair-input cells (equal-
#: output pairs times inputs) it materialises. Peak resident memory of
#: ``export-graph --graph observability``, graph and DOT text together, on
#: ``random_network(0, N, M, 2)`` from N = 400 to 800 (CPython 3.11, 64-bit)
#: grew by about 360, 550, 935 and 1 680 bytes per pair for M = 1, 2, 4 and
#: 8: 170 bytes per pair plus 190 per pair and input, at most 370 bytes per
#: cell. So 2^19 cells peak near 190 MB on top of the interpreter, well
#: inside a 512 MB address space, in which 2 million cells (999 036 pairs
#: at M = 2) die with MemoryError.
GRAPH_CAP = 1 << 19


def _vertex_key(v):
    return (1,) if v is DIAG else (0, v)


class StateTransitionGraph(Value):
    """State transition graph on states 1..N as ``edges``, sorted
    ``(src, dst, multiplicity)`` triples: ``multiplicity`` inputs drive
    ``src`` to ``dst``. Each state's multiplicities sum to the input
    count M.
    """

    __slots__ = ("n_vertices", "edges")

    @property
    def adjacency(self) -> DenseMatrix:
        """The closed form ``[L_1 1_M, ..., L_N 1_M]``: ``entry(i, j)`` is
        the number of inputs driving state j to state i.

        Raises :class:`MatrixSizeError` when its N*N cells exceed :data:`CELL_CAP`.
        """
        n = self.n_vertices
        _check_cells(n, n)
        counts = [0] * (n * n)
        for src, dst, c in self.edges:
            counts[(dst - 1) * n + src - 1] = c
        return DenseMatrix(n, n, tuple(counts))


class ObservabilityGraph(Value):
    """``vertices`` are the non-diagonal pairs (i, j), i < j; ``edges`` are
    ``(src, dst, inputs)`` triples, ``inputs`` ascending."""

    __slots__ = ("vertices", "edges")


class ControllabilityResult(Value):
    """On failure, ``witness`` is a (source, target) state pair with no
    path source -> target."""

    __slots__ = ("controllable", "witness")

    def __bool__(self) -> bool:
        return self.controllable


class ObservabilityWitness(Value):
    """A pair that cannot be told apart: it reaches a cycle. ``path`` is
    a shortest path from ``pair`` to ``cycle_entry``."""

    __slots__ = ("pair", "path", "cycle_entry")


class ObservabilityResult(Value):
    __slots__ = ("observable", "witness")

    def __bool__(self) -> bool:
        return self.observable


def transition_graph(lcn: Lcn) -> StateTransitionGraph:
    """The transition graph's edges, counted from each block ``L_x`` in O(N*M)."""
    m, cols = lcn.input_dim, lcn.L.col_indices
    edges = []
    for x in range(lcn.state_dim):
        block = Counter(cols[x * m:(x + 1) * m])
        edges.extend((x + 1, t, c) for t, c in sorted(block.items()))
    return StateTransitionGraph(lcn.state_dim, tuple(edges))


def _strong_components(succs: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a 0-based digraph, each emitted
    after every component it reaches: Tarjan's algorithm on a stack of
    successor iterators. ``index[v]`` is v's place on Tarjan's stack, and
    ``n`` once v's component is emitted, so only vertices still on that
    stack lower a low link."""
    n = len(succs)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []  # Tarjan's stack, empty again after each root
    components: list[list[int]] = []
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = 0
        stack.append(root)
        work = [(root, iter(succs[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if index[w] == -1:
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succs[w])))
                    break
                low[v] = min(low[v], index[w])
            else:  # every successor of v is done
                work.pop()
                if low[v] == index[v]:
                    comp = stack[index[v]:]
                    del stack[index[v]:]
                    for w in comp:
                        index[w] = n
                    components.append(comp[::-1])  # in the order Tarjan pops them
                elif work:  # hand v's low link to its parent
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return components


def _reach_set(succs: list[list[int]], src: int) -> set[int]:
    seen, todo = {src}, [src]
    while todo:
        for w in succs[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _successors(lcn: Lcn) -> list[list[int]]:
    """Each state's distinct successors (its block's columns), ascending, 0-based."""
    m, cols = lcn.input_dim, lcn.L.col_indices
    return [sorted({t - 1 for t in cols[x * m:(x + 1) * m]}) for x in range(lcn.state_dim)]


def output_partition(lcn: Lcn) -> dict[int, tuple[int, ...]]:
    """The states grouped by output, the one grouping every layer reads:
    each output index in use, ascending, maps to the tuple of its 1-based
    states, ascending. Synthesis numbers the classes from 1 in this order."""
    by_output: dict[int, list[int]] = {}
    for x, y in enumerate(lcn.H.col_indices, start=1):
        by_output.setdefault(y, []).append(x)
    return {y: tuple(by_output[y]) for y in sorted(by_output)}


def is_controllable(lcn: Lcn) -> ControllabilityResult:
    """Controllable iff the transition graph is strongly connected.

    The failure witness is deterministic: among all (source, target)
    pairs with no path, the one with the greatest source and, for that
    source, the least target. Only the last Tarjan component can reach
    every state; if it does, that source is the greatest state outside
    it, and otherwise state N.
    """
    n = lcn.state_dim
    succs = _successors(lcn)
    components = _strong_components(succs)
    if len(components) == 1:
        return ControllabilityResult(True, None)
    last = components[-1]  # no predecessor: only its states can reach every state
    src = n - 1
    if len(_reach_set(succs, last[0])) == n:
        src = max(set(range(n)).difference(last))
    tgt = min(set(range(n)).difference(_reach_set(succs, src)))
    return ControllabilityResult(False, (src + 1, tgt + 1))


def _pair_count(class_sizes) -> int:
    """The number of equal-output pairs of output classes of these sizes."""
    return sum(c * (c - 1) // 2 for c in class_sizes)


def _check_pair_count(class_sizes) -> None:
    """Raise :class:`MatrixSizeError` when output classes of these sizes
    have more equal-output pairs than :data:`CELL_CAP`."""
    n_pairs = _pair_count(class_sizes)
    if n_pairs > CELL_CAP:
        raise MatrixSizeError(
            f"pair graph of {n_pairs} equal-output pairs exceeds cap {CELL_CAP}"
        )


def _pair_targets(m: int, cols, out, i: int, j: int) -> dict:
    """Where input u takes pair (i, j): each target, DIAG for a merged
    pair, with its inputs ascending. Targets with unequal outputs have no edge."""
    inputs: dict = {}
    for u in range(m):
        a, b = cols[(i - 1) * m + u], cols[(j - 1) * m + u]
        if a == b:
            inputs.setdefault(DIAG, []).append(u + 1)
        elif out[a - 1] == out[b - 1]:
            inputs.setdefault((a, b) if a < b else (b, a), []).append(u + 1)
    return inputs


def observability_graph(lcn: Lcn) -> ObservabilityGraph:
    """Pair graph on equal-output state pairs, diagonal collapsed to DIAG.

    Raises :class:`MatrixSizeError`, before building anything, when the
    equal-output pairs times the inputs exceed :data:`GRAPH_CAP`.
    """
    m, cols, out = lcn.input_dim, lcn.L.col_indices, lcn.H.col_indices
    classes = output_partition(lcn).values()
    n_pairs = _pair_count(map(len, classes))
    if n_pairs * m > GRAPH_CAP:
        raise MatrixSizeError(f"pair graph of {n_pairs} equal-output pairs and {m} inputs "
                              f"exceeds cap {GRAPH_CAP} pair-input cells")
    vertices = tuple(sorted(pair for members in classes for pair in combinations(members, 2)))
    edges = []
    for src in vertices:
        inputs = _pair_targets(m, cols, out, *src)
        edges.extend((src, t, tuple(inputs[t])) for t in sorted(inputs, key=_vertex_key))
    edges.append((DIAG, DIAG, tuple(range(1, m + 1))))
    return ObservabilityGraph(vertices, tuple(edges))


def _held_too_many(held: int) -> MatrixSizeError:
    return MatrixSizeError(f"observability decision holding {held} "
                           f"equal-output pairs exceeds cap {CELL_CAP}")


def _least_unsafe_pair(lcn: Lcn, partition: dict[int, tuple[int, ...]]):
    """(root, safe): the least equal-output pair (pairs ordered
    lexicographically) that reaches a cycle of the pair graph, None when
    no pair does, and the keys ``i*(N+1)+j`` of the pairs (i, j) proven
    to reach no cycle. ``partition`` is ``lcn``'s :func:`output_partition`.

    Each root not yet proven safe is walked depth first, without
    recursion, on a stack of ``(i, j, next input)`` frames; one dict maps
    each pair taken to False while it is on the current path and True once
    it is safe. The walk stops at the first input that merges a pair
    (DIAG is on a cycle) or steps back onto the current path, self-loops
    included: that root is the answer. A pair whose inputs are all taken
    reaches only safe pairs, so it is safe. Raises
    :class:`MatrixSizeError` at the first pair taken past
    :data:`CELL_CAP`.
    """
    n, m, cols, out = lcn.state_dim, lcn.input_dim, lcn.L.col_indices, lcn.H.col_indices
    cap, width = CELL_CAP, n + 1
    state: dict[int, bool] = {}

    def unsafe(stack):  # the answer, with the current path set aside
        for i, j, _u in stack:
            del state[i * width + j]
        return stack[0][:2], state.keys()

    for x in range(1, n + 1):
        for y in partition[out[x - 1]]:  # ascending: pairs come sorted
            if y <= x or x * width + y in state:
                continue  # not a root, or safe
            state[x * width + y] = False
            if len(state) > cap:
                raise _held_too_many(len(state))
            stack = [(x, y, 0)]
            while stack:
                i, j, u = stack[-1]
                bi, bj = (i - 1) * m, (j - 1) * m
                while u < m:
                    a, b = cols[bi + u], cols[bj + u]
                    u += 1
                    if a == b:
                        return unsafe(stack)  # merged
                    if out[a - 1] != out[b - 1]:
                        continue  # no edge
                    if a > b:
                        a, b = b, a
                    on_path = state.get(a * width + b)
                    if on_path is None:  # a new pair: step onto it
                        state[a * width + b] = False
                        if len(state) > cap:
                            raise _held_too_many(len(state))
                        stack[-1] = (i, j, u)
                        stack.append((a, b, 0))
                        break
                    if not on_path:
                        return unsafe(stack)  # back onto the current path
                else:  # every input taken
                    stack.pop()
                    state[i * width + j] = True
    return None, state.keys()


def is_observable(lcn: Lcn) -> ObservabilityResult:
    """Observable iff no equal-output pair can reach a cycle.

    :func:`_least_unsafe_pair` decides, and names the witness pair: the
    least such pair (pairs ordered lexicographically). Only then is the
    part of the pair graph that pair reaches, the safe pairs aside,
    explored breadth first for its shortest path to a cyclic vertex; BFS
    ties are broken by vertex order, DIAG last. Safe pairs reach only safe
    pairs, so setting them aside changes no path to a cycle.

    Raises :class:`MatrixSizeError` at the first pair taken past
    :data:`CELL_CAP` equal-output pairs held: the safe ones and the current
    walk, or the safe ones and the witness pair's exploration.
    """
    root, safe = _least_unsafe_pair(lcn, output_partition(lcn))
    if root is None:
        return ObservabilityResult(True, None)
    m, cols, out, width = lcn.input_dim, lcn.L.col_indices, lcn.H.col_indices, lcn.state_dim + 1
    verts, pos, parent, succs = [root], {root: 0}, [None], []
    held = len(safe) + 1
    for k, v in enumerate(verts):  # breadth first over what root reaches, safe pairs aside
        targets = [v] if v is DIAG else _pair_targets(m, cols, out, *v)
        targets = sorted(targets, key=_vertex_key)
        for t in targets:
            if t not in pos and (t is DIAG or t[0] * width + t[1] not in safe):
                pos[t] = len(verts)
                verts.append(t)
                parent.append(k)
                if t is not DIAG and (held := held + 1) > CELL_CAP:
                    raise _held_too_many(held)
        succs.append([pos[t] for t in targets if t in pos])
    cyclic = [min(c) for c in _strong_components(succs) if len(c) > 1 or c[0] in succs[c[0]]]
    path, k = [], min(cyclic)  # BFS discovers vertices in order of distance
    while k is not None:
        path.append(verts[k])
        k = parent[k]
    path.reverse()
    return ObservabilityResult(False, ObservabilityWitness(root, tuple(path), path[-1]))


def _pair_name(v, top: int) -> str:
    """``v``'s name in DOT text, ``top`` being the greatest state of any
    equal-output pair: "14", or "1-4" when ``top`` is above 9."""
    if v is DIAG:
        return "DIAG"
    i, j = v
    return f"{i}-{j}" if top > 9 else f"{i}{j}"


def export_dot(graph: StateTransitionGraph | ObservabilityGraph) -> str:
    """Deterministic Graphviz DOT text for either graph kind.

    Both kinds write their edges in their sorted order. Observability
    graphs sort pair vertices lexicographically with DIAG last and label
    edges with the comma-joined input indices of their weight; transition
    graphs label edges with their input multiplicity.
    """
    lines: list[str] = []
    if isinstance(graph, StateTransitionGraph):
        lines.append("digraph transitions {")
        lines.extend(f'  "{v}";' for v in range(1, graph.n_vertices + 1))
        lines.extend(f'  "{src}" -> "{dst}" [label="{c}"];' for src, dst, c in graph.edges)
    else:
        top = max((j for _i, j in graph.vertices), default=0)
        lines.append("digraph observability {")
        for v in sorted(graph.vertices):
            lines.append(f'  "{_pair_name(v, top)}";')
        lines.append('  "DIAG";')
        for src, dst, ws in graph.edges:
            label = ",".join(str(u) for u in ws)
            lines.append(
                f'  "{_pair_name(src, top)}" -> "{_pair_name(dst, top)}" [label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
