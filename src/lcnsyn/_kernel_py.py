"""The sweep kernel: the hot inner loops of closed-loop candidate sweeps.

Call convention (plain lists of ints, 0-based), as ``synthesis._Problem``
prepares it once per problem: states are numbered by walk position, the
output classes one after another, so class k holds the positions
``ends[k]`` to ``ends[k + 1] - 1``, and ``succ[p]`` gives position p's
distinct candidate successors as positions. No state enters or leaves
the kernel, and nothing else of the outputs enters: two positions have
equal outputs exactly when they lie in the same class.

A candidate is one choice of successor per position, injective within
each class; candidates are visited in lexicographic order of the chosen
values, each compared by its place in ``succ[p]`` (the order of the
states they stand for), class by class. Used values are per
class, so the candidates are the product of the classes' choices, and
``candidates`` steps that product as an odometer, the last class
fastest. The odometer finds each class's choices once, by a walk over
the class's positions on a stack of option iterators, and keeps them in
a list, so most candidates cost one slice assignment; the lists of all
classes together hold at most ``CELL_CAP`` cells, and a class that would
pass that walks its positions afresh on every entry. The odometer hands
the last class it steps to its caller whole, a list at a time, so a
candidate there costs the caller's slice assignment and no resume of
the walk. ``candidates`` is the one definition of the order, and
``synthesis.enumerate_candidates`` yields all of it.

The sweep steps a class exactly when it lies on a cycle of the class
graph and some member has two options; every other class stands at its
first choice. The class graph has an edge c -> d when two members of c
have options u != v that both lie in d. A closed loop is unobservable
exactly when it has two distinct equivalent states. They have equal
outputs, so they lie in one class, and since a candidate gives
equal-output positions distinct successors, their successors are again
two distinct equivalent states, along an edge of the class graph. Their
walk repeats a pair at last, so some cycle of pairs, all in classes on
cycles, dooms the closed loop, and it reads only those classes'
successors. A class on no cycle therefore gives every choice of the
other classes, with any of its own choices, the verdict that its first
choice gave; a class whose members each have one option has one choice
at most, and a one-state class has no edge at all. The sweep builds the
graph before any walk, holds every class it does not step at its first
choice, which one walk of the held classes writes into the candidate,
and steps the others only: the last of them hands out its list whole
even when held classes follow it. The sweep's ``checked`` is still the
rank in the full order, the number of candidates up to and including
the witness, or all of them, read off the odometer's digits as a
mixed-radix number whose radices are the classes' numbers of choices
(a held class's counted by ``_choice_count``, as the report counts it),
a held class's digit being 0; it is not the number of leaf checks,
which can be much lower. The first witness, if any, has every held
class at its first choice, as that candidate ranks no later and has the
same verdict.

A class's walk can thrash: an early position takes a value that a much
later position of the same class needs, and the walk tries every choice
of the positions in between before it steps back that far. So the walk
counts its dead ends, positions just entered that find no free value,
since the class's last choice. Past as many dead ends as the class has
positions, each dead end also steps back over every prefix that leaves
the remaining positions no system of distinct representatives
(``_has_distinct_choice``, Hall 1935; Régin 1994 filters all-different
constraints the same way). Such a prefix has no choice below it, so the
rule skips only subtrees without a leaf, and the candidates and their
order stay as they are. The count keeps the matchings off the walks
that do not thrash. The matching and the count of a class's choices
(``_choice_count``, per component of the member-value graph) live here,
and ``synthesis`` imports both, for its zero-choice test and its counts:
a kernel that imported ``synthesis`` would close an import cycle.

A leaf is a closed loop ``x+ = succ0[x]``, ``y = out[x]``, a Moore
machine with one input, and it is observable exactly when no two of its
states are equivalent (same output sequence forever). Observability
does not depend on how states are numbered. The sweep labels each
position with its class's index for ``out``: the leaf check only asks
whether two outputs are equal, and so does refinement, which depends
only on the partition it starts from. ``_unsafe_pair`` first walks a
hint: the pair that doomed the previous leaf. A walk depends only on
the successors of the states it passes through, and consecutive leaves
differ mostly in their last positions, so that pair usually dooms the
next leaf too, and the check ends after a few steps with one small set
of seen pairs. Only when the
hint pair is safe does ``_least_equivalent_pair`` refine the states by
pointer doubling, in O(N log N) time and O(N) space, and return the
least pair of equivalent states. Whether a leaf has an unsafe pair at
all does not depend on the hint, so the hint changes how soon an unsafe
pair is found, never a result.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf, prod

from .analysis import _strong_components
from .stp import CELL_CAP

FOUND = 0
EXHAUSTED = 1
CAP_REACHED = 2


def _least_equivalent_pair(succ0, out):
    """The least pair ``(i, j)``, ``i < j``, of equivalent states of the
    closed loop ``succ0`` with outputs ``out`` (0-based), or None when no
    two states are equivalent.

    Pointer doubling: ``label[x]`` names the output word of length 2^k
    read from x, and ``jump`` is the map applied 2^k times. The word of
    length 2^(k+1) is the one of length 2^k followed by the one read from
    ``jump[x]``, so each round relabels those label pairs and squares
    ``jump``. Refinement stops once a round splits no class: the
    partitions by words of lengths L and 2L are then equal, and so is
    every one between them, which is Moore's stopping rule. It stops at
    the latest once words reach length N.
    """
    n = len(out)
    base = max(n, max(out) + 1)  # above every label, so a * base + b names the pair (a, b)
    label, jump = out, succ0
    count = len(set(out))
    while count < n:
        ids: dict[int, int] = {}
        label = [ids.setdefault(a * base + label[b], len(ids)) for a, b in zip(label, jump)]
        if len(ids) == count:
            break
        count = len(ids)
        jump = [jump[b] for b in jump]
    if count == n:
        return None
    first: dict[int, int] = {}  # label -> least state carrying it
    best = None
    for x, c in enumerate(label):
        i = first.setdefault(c, x)
        if i != x and (best is None or i < best[0]):
            best = i, x  # x is the second state of the least class with two
    return best


def _unsafe_pair(succ0, out, hint):
    """A pair of states that reaches a merge or a cycle under the closed
    loop ``succ0`` (0-based successors), or None when none does, that is
    when the closed loop is observable.

    Each equal-output pair has at most one successor pair, so the walk
    from the ``hint`` pair (or None) is a path in a functional graph: it
    closes a cycle on a pair in ``seen``, and then the hint is returned,
    or it reaches a pair of successors with unequal outputs, and then the
    hint is safe and the answer is the least pair of equivalent states.
    A pair that merges stays on the diagonal, where it closes a cycle
    within N steps; in a sweep no pair merges, as a candidate gives
    equal-output states distinct successors. The sweep passes the leaf
    and the hint in positions; any numbering works, as long as the leaf,
    ``out`` and the hint share it. A hint that maps onto itself is
    returned before any set is built: in the sweep that is how most
    doomed leaves end (21 155 of the 22 454 before the witness of
    ``random_network(0, 12, 4, 2)``).
    """
    if hint is not None:
        i, j = hint
        a, b = succ0[i], succ0[j]
        if a == i and b == j or a == j and b == i:
            return hint  # a cycle of one pair
        n = len(out)
        seen = set()
        while (key := i * n + j) not in seen:
            seen.add(key)
            i, j = succ0[i], succ0[j]
            if out[i] != out[j]:
                break  # distinguished: the hint is safe
            if i > j:
                i, j = j, i
        else:
            return hint  # the walk closed a cycle
    return _least_equivalent_pair(succ0, out)


def _has_distinct_choice(options) -> bool:
    """Whether the members can get pairwise-distinct successors at all: a
    system of distinct representatives (Hall 1935). Matches each member
    in turn along an augmenting path, searched with an explicit stack."""
    holder, chosen = {}, []  # value -> its member, member -> its value
    for root in range(len(options)):
        reached_from, stack, free = {}, [root], None  # value -> member that reached it
        while stack and free is None:
            i = stack.pop()
            for v in options[i]:
                if v not in reached_from:
                    reached_from[v] = i
                    if v not in holder:
                        free = v
                        break
                    stack.append(holder[v])
        if free is None:
            return False
        chosen.append(None)
        while free is not None:  # each member on the path takes the value it reached
            i = reached_from[free]
            holder[free] = i
            chosen[i], free = free, chosen[i]
    return True


def _components(options):
    """The option lists of each connected component of the bipartite
    member-value graph (two members are joined when they share a value),
    members in counting order. One maximum cardinality search (Tarjan and
    Yannakakis 1984) finds both: the next member taken offers the most
    values that taken members offer, ties to fewer options, then to the
    given order; a member that shares none starts the next component.
    Choices in different components never collide, and a member that many
    earlier members compete with has few free values left when counted."""
    offering: dict[int, list[int]] = {}  # value -> the members offering it
    for i, opts in enumerate(options):
        for v in opts:
            offering.setdefault(v, []).append(i)
    shared = [0] * len(options)  # per member, how many of its values are taken ones'
    heap = [(0, len(opts), i) for i, opts in enumerate(options)]
    heapify(heap)
    taken, blocks = set(), []
    while heap:
        key, _size, i = heappop(heap)
        if key != -shared[i]:
            continue  # stale: only a member's latest entry holds its count, and pops once
        taken.add(i)
        if not key:
            blocks.append([])
        blocks[-1].append(options[i])
        for v in options[i]:
            for j in offering.pop(v, ()):  # each value once, when first taken
                if j not in taken:
                    shared[j] += 1
                    heappush(heap, (-shared[j], len(options[j]), j))
    return blocks


def _distinct_choice_count(options, budget, stop=-1) -> tuple[int | None, int]:
    """(count, budget left) for the pairwise-distinct choices, or (None, 0)
    once more than ``budget`` nodes are visited; with ``stop >= 0``,
    ``stop + 1`` as soon as the count passes ``stop``. Depth first on a
    stack of option iterators, one per member, and one set of used values.
    The second-to-last member does not step into the last: each free value
    v it takes adds the last member's free options, less v if it is one.
    That number, ``free``, is kept up to date as values are taken and
    freed, so every node does constant work."""
    *walk, last = options
    if not walk:
        return (stop + 1 if 0 <= stop < len(last) else len(last)), budget
    last = set(last)
    top = len(walk) - 1  # the second-to-last member
    used, chosen = set(), [0] * top
    its = [iter(walk[0])] + [None] * (top - 1)
    total, pos, free = 0, 0, len(last)  # free: the last member's options not used
    while budget >= 0:
        if pos == top:
            for v in walk[top]:
                if v not in used:
                    total += free - (v in last)
                    budget -= 1
            if 0 <= stop < total:
                return stop + 1, budget
        else:
            for v in its[pos]:
                if v not in used:
                    break
            else:
                v = -1
            if v >= 0:
                budget -= 1
                used.add(v)
                if v in last:
                    free -= 1
                chosen[pos] = v
                pos += 1
                if pos < top:
                    its[pos] = iter(walk[pos])
                continue
        pos -= 1  # no free value left: step back and free the previous member's
        if pos < 0:
            break
        v = chosen[pos]
        used.discard(v)
        if v in last:
            free += 1
    return (total, budget) if budget >= 0 else (None, 0)


def _choice_count(options, budget=inf, stop=-1) -> int | None:
    """The number of pairwise-distinct choices from the option lists: the
    product, over the components of :func:`_components`, of each one's
    :func:`_distinct_choice_count`, the components sharing one budget of
    nodes, and None once it runs out. With ``stop >= 0``, ``stop + 1`` as
    soon as the product passes ``stop``: each component counts no further
    than the stop over the product before it. A component that counts 0
    ends the product at 0."""
    total = 1
    for block in _components(options):
        count, budget = _distinct_choice_count(block, budget, stop // total)
        if not count:
            return count  # 0, or None past the budget
        total *= count
    return stop + 1 if 0 <= stop < total else total


def candidates(succ, ends):
    """Every candidate in sweep order; the one definition of that order.

    Yields one successor list per candidate, indexed by position and
    holding positions: the same list every time, changed in place when
    the walk resumes, so copy it to keep it. See ``_walk``.
    """
    succ0, spans = [0] * len(succ), list(zip(ends, ends[1:]))
    last = _last_slice(spans, len(succ))
    for choices in _walk(succ, spans, succ0):
        for choice in choices:
            succ0[last] = choice
            yield succ0


def _last_slice(spans, n):
    """The slice of a candidate that the walk's handed-out choices fill:
    the last span, open-ended when it ends the candidate, as a slice
    without a stop assigns faster; empty when there is no span."""
    a, b = spans[-1] if spans else (0, 0)
    return slice(a, None if b == n else b)


def _looped(succ, ends, out):
    """Per class, whether it lies on a cycle of the class graph; ``out``
    labels each position with its class.

    The class graph has an edge c -> d when two members of c have options
    u != v that both lie in d: the one way that a pair of distinct states
    of c can step to a pair of distinct states of d. A class lies on a
    cycle when its strong component (``analysis._strong_components``,
    Tarjan 1972) has two or more classes, or when it has an edge to itself.
    The edge c -> d is there exactly when two members of c reach d and
    two values of d are reached.
    """
    graph = []
    for a, b in zip(ends, ends[1:]):
        # per class reached: its first member and value, and whether another came
        member, value, members, values = {}, {}, set(), set()
        for p in range(a, b):
            for v in succ[p]:
                d = out[v]
                if member.setdefault(d, p) != p:
                    members.add(d)
                if value.setdefault(d, v) != v:
                    values.add(d)
        graph.append(list(members & values))
    looped = [False] * len(graph)
    for component in _strong_components(graph):
        for c in component:
            looped[c] = len(component) > 1 or c in graph[c]
    return looped


def _walk(succ, spans, succ0, index=None, counts=None):
    """Walk the candidate space in sweep order, as ``candidates`` yields it.

    The walk steps the classes of ``spans``; every other class stands in
    ``succ0`` already, where the sweep writes the classes it holds. It
    fills ``succ0`` (one cell per position)
    and yields the last span's choices in order: with each of them put at
    ``succ0[a:b]`` in turn, where ``(a, b)`` is the last span, ``succ0`` is
    the next candidate. Every earlier class stands in ``succ0`` until the
    caller asks for more. A last class that keeps a row yields it whole;
    otherwise each choice comes alone, in a tuple of one.

    The walk is a mixed-radix odometer over the classes, the last class
    fastest (Knuth, TAOCP 4A, 7.2.1.1). Used values are per class, so a
    class's choices never depend on another class's, and the product of
    the classes' choices, each in lexicographic order, is the candidate
    order. ``index[k]`` is the odometer's digit for class k: the place of
    the class's choice in ``succ0`` among its choices, and for the last
    class that of the first choice it yields. ``counts[k]`` is the number
    of class k's choices once the walk has gone through the class in full.

    A class's choices are found once, by a walk over its positions on a
    stack of option iterators and one set of used values (its last
    position adds nothing and takes each free value in turn), and kept
    in ``rows[k]``; a later entry into the class steps through that
    list, so a leaf costs one slice assignment. The rows of all classes
    together hold at most ``CELL_CAP`` cells (one per position per
    choice): a class that would pass that drops its row and walks its
    positions afresh on every entry. A class with no choice ends the walk,
    as the product is then empty. The walk does not count a class it does
    not step; the sweep counts those with ``_choice_count``.

    A class's walk counts its dead ends since its last choice (a resume
    always follows a choice, so the count starts at 0 on every entry).
    Past ``b - a`` of them, each dead end steps back, beyond the position
    before it, over every prefix under which the positions from p on have
    no pairwise-distinct choice among the values not taken. No leaf lies
    below such a prefix, so the yield order is unchanged.
    """
    n, last = len(succ), len(spans) - 1
    index = [0] * (last + 1) if index is None else index
    counts = [0] * (last + 1) if counts is None else counts
    its = [None] * n  # per position of a walking class, its option iterator
    rows = [[] for _ in spans]  # per class, its choices so far; None: it streams
    done = [False] * (last + 1)  # per class, whether rows[k] holds all its choices
    cells, k, fresh = 0, 0, True
    while k >= 0:
        a, b = spans[k]
        if done[k]:
            if k == last:
                index[k] = 0
                yield rows[k]
                k, fresh = k - 1, False
                continue
            i = index[k] = 0 if fresh else index[k] + 1
            if i == counts[k]:
                k, fresh = k - 1, False
            else:
                succ0[a:b] = rows[k][i]
                k, fresh = k + 1, True
            continue
        if fresh:
            p, its[a], taken, index[k] = a, iter(succ[a]), set(), -1
        else:  # resume at the class's last position; its used values are
            # rebuilt, so that no class waiting for a later one holds a set
            p, taken = b - 1, set(succ0[a:b - 1])
        row, dead, entered = rows[k], 0, fresh  # dead ends since the last choice
        while True:
            for v in its[p]:
                if v not in taken:
                    break
            else:  # no free value left: step back and free the previous position's;
                # past b - a dead ends, a dead end steps back over every prefix
                # that leaves the positions from p on no distinct choice
                if entered:  # a dead end
                    dead += 1
                hall, entered = entered and dead > b - a, False
                p -= 1
                while p >= a:
                    taken.discard(succ0[p])
                    if not hall or _has_distinct_choice(
                            [[u for u in succ[q] if u not in taken] for q in range(p, b)]):
                        break
                    p -= 1
                if p < a:
                    break
                continue
            succ0[p] = v
            if p + 1 < b:
                taken.add(v)
                p += 1
                its[p] = iter(succ[p])
                entered = True
                continue
            dead, entered = 0, False
            index[k] += 1  # a new choice of the class
            if row is not None:
                row.append(succ0[a:b])
                cells += b - a
                if cells > CELL_CAP:
                    cells -= len(row) * (b - a)
                    rows[k] = row = None
            if k < last:
                break
            yield (succ0[a:b],)
        if p < a:  # the class is exhausted
            counts[k] = index[k] + 1
            if not counts[k]:
                return
            done[k] = row is not None
            k, fresh = k - 1, False
        else:
            k, fresh = k + 1, True


def sweep_first_observable(succ, ends, cap: int = -1):
    """Search the candidate space for the first observable closed loop.

    Returns ``(status, checked, witness)`` where status is FOUND,
    EXHAUSTED or CAP_REACHED, ``checked`` is the number of candidates in
    sweep order up to and including the witness, or all of them, and
    witness is the observable candidate's successor tuple, indexed by
    position and holding positions (None unless FOUND). Each position's
    output is its class's index. With ``cap >= 0`` it returns
    CAP_REACHED with ``checked = cap`` when the witness's rank, or the
    total when there is no witness, passes ``cap``, and so evaluates at
    most ``cap`` candidates.

    The class graph (``_looped``) is built first. A class on a cycle of
    it with a member of two options is stepped; every other class is
    held at its first choice, which one walk of the held classes writes
    into the candidate (a held class with no choice leaves no candidate):
    no cycle of equal-output pairs reads a held class's successors, or it
    has one choice, so each of its other choices gives every choice of
    the other classes the verdict that the first choice gave it. ``_walk``
    steps the other classes, and the rank is read off its digits:
    ``1 + sum(index[k] * W[k])`` over every class, where ``W[k]`` is the
    product of the numbers of choices of the classes after k, and a held
    class's digit is 0. A stepped class's number is known by the time an
    earlier digit moves, as the odometer has then gone through the class;
    a held class's is counted when a rank first needs it, by
    ``_choice_count``, the per-component count the report's bounds use,
    with no node budget and no further than the cap. The held classes'
    walk keeps its first choice only, one row of one choice per class.
    EXHAUSTED reports the product of all.
    """
    out = []  # each position's class index
    for k in range(len(ends) - 1):
        out += [k] * (ends[k + 1] - ends[k])
    loop, gaps = [], [[]]  # the stepped classes; the held ones before each, then after the last
    for a, b, looped in zip(ends, ends[1:], _looped(succ, ends, out)):
        if looped and sum(map(len, succ[a:b])) > b - a:  # a member has two options
            loop.append((a, b))
            gaps.append([])
        else:
            gaps[-1].append((a, b))
    succ0 = [0] * len(succ)
    held = [span for gap in gaps for span in gap]
    if held and next(_walk(succ, held, succ0), None) is None:
        return EXHAUSTED, 0, None  # a held class has no choice
    index, counts, weights = [0] * len(loop), [0] * len(loop), [None] * len(gaps)

    def weight(i):  # gap i's held classes' number of choices, past cap once it passes it
        if weights[i] is None:
            weights[i] = 1
            for a, b in gaps[i]:
                weights[i] *= _choice_count(succ[a:b], stop=cap // weights[i])
        return weights[i]

    def position():  # r: choice j of the row handed out ranks 1 + (r + j) * weight(len(loop))
        r = 0
        for i, digit in enumerate(index):
            r = r * counts[i] * weight(i) + digit if r else digit
        return r

    # with no stepped class, the one candidate stands in succ0, and one empty choice checks it
    walk = _walk(succ, loop, succ0, index, counts) if loop else [([],)]
    last, capped, hint = _last_slice(loop, len(succ)), False, None
    for choices in walk:
        if cap >= 0:
            keep = (cap - 1) // weight(len(loop)) - position() + 1  # the choices ranked up to cap
            if keep < len(choices):
                choices, capped = choices[:max(keep, 0)], True
        for choice in choices:
            succ0[last] = choice
            hint = _unsafe_pair(succ0, out, hint)
            if hint is None:
                r = position() + choices.index(choice)
                return FOUND, 1 + (r and r * weight(len(loop))), tuple(succ0)
        if capped:
            return CAP_REACHED, cap, None
    total = prod(counts) * prod(map(weight, range(len(gaps))))
    if 0 <= cap < total:
        return CAP_REACHED, cap, None
    return EXHAUSTED, total, None
