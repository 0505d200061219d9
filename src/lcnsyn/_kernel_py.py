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
fastest. A class whose members each have one option has one choice at
most; it is written into the candidate once, before the walk starts,
and the odometer never enters it. The odometer finds each other class's
choices once, by a walk over the class's positions on a stack of option
iterators, and keeps them in a list, so most candidates cost one slice
assignment; the lists of all classes together hold at most ``CELL_CAP``
cells, and a class that would pass that walks its positions afresh on
every entry. The odometer hands the last class it steps to its caller
whole, a list at a time, so a candidate there costs the caller's slice
assignment and no resume of the walk. ``candidates`` is the one
definition of the order, and ``synthesis.enumerate_candidates`` yields
all of it.

The sweep checks the first candidate alone. If it is doomed, the sweep
holds each class that lies on no cycle of the class graph at its first
choice. That graph has an edge c -> d when two members of c have
options u != v that both lie in d. A closed loop is unobservable
exactly when it has two distinct equivalent states. They have equal
outputs, so they lie in one class, and since a candidate gives
equal-output positions distinct successors, their successors are again
two distinct equivalent states, along an edge of the class graph. Their
walk repeats a pair at last, so some cycle of pairs, all in classes on
cycles, dooms the closed loop, and it reads only those classes'
successors. A held class's other choices therefore give every choice of
the other classes the verdict that its first choice gave. So a held
class stands in the candidate like a class of one choice, and the
odometer steps the looped classes only: the last of them hands out its
list whole even when held classes follow it. A one-state class has no
edge at all, and is the simplest held class. The sweep's ``checked`` is
still the rank in the full order, the number of candidates up to and
including the witness, or all of them, read off the odometer's digits
as a mixed-radix number whose radices are the classes' numbers of
choices, a held class's digit being 0; it is not the number of leaf
checks, which can be much lower. The first witness, if any, has every
held class at its first choice, as that candidate ranks no later and
has the same verdict.

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
that do not thrash. The matching lives here, and ``synthesis`` imports
it for its zero-choice test and its counts: a kernel that imported
``synthesis`` would close an import cycle.

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

from math import prod

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


def candidates(succ, ends):
    """Every candidate in sweep order; the one definition of that order.

    Yields one successor list per candidate, indexed by position and
    holding positions: the same list every time, changed in place when
    the walk resumes, so copy it to keep it. See ``_walk``.
    """
    succ0 = [0] * len(succ)
    spans = _spans(succ, ends, succ0)
    if spans is None:
        return
    last = _last_slice(spans, len(succ))
    for choices in _walk(succ, spans, succ0):
        for choice in choices:
            succ0[last] = choice
            yield succ0


def _spans(succ, ends, succ0):
    """The spans ``(a, b)`` of the classes that the walk steps, in order,
    or None when a class of one-option members has no choice, as two of
    them share their option.

    A class whose members each have one option has at most one choice.
    When its options are distinct, it is written into ``succ0`` here, once,
    and left out of the walk; so is every such class but the last when all
    classes are like that, as the walk steps at least one class.
    """
    spans = []
    for a, b in zip(ends, ends[1:]):
        if len(succ[a]) > 1 or sum(map(len, succ[a:b])) > b - a:  # a member has two options
            spans.append((a, b))
            continue
        only = [s[0] for s in succ[a:b]]
        if len(set(only)) < b - a:
            return None
        succ0[a:b] = only
    return spans or [(ends[-2], ends[-1])]


def _last_slice(spans, n):
    """The slice of a candidate that the walk's handed-out choices fill:
    the last span, open-ended when it ends the candidate, as a slice
    without a stop assigns faster."""
    a, b = spans[-1]
    return slice(a, None if b == n else b)


def _held(succ, ends, spans, succ0):
    """Per span, its choice in ``succ0`` when its class lies on no cycle
    of the class graph, else None.

    The class graph has an edge c -> d when two members of c have options
    u != v that both lie in d: the one way that a pair of distinct states
    of c can step to a pair of distinct states of d. A class lies on a
    cycle when its strong component (``analysis._strong_components``,
    Tarjan 1972) has two or more classes, or when it has an edge to itself.
    The edge c -> d is there exactly when two members of c reach d and
    two values of d are reached.
    """
    where = [k for k in range(len(ends) - 1) for _ in range(ends[k], ends[k + 1])]
    graph = []
    for a, b in zip(ends, ends[1:]):
        # per class reached: its first member and value, and whether another came
        member, value, members, values = {}, {}, set(), set()
        for p in range(a, b):
            for v in succ[p]:
                d = where[v]
                if member.setdefault(d, p) != p:
                    members.add(d)
                if value.setdefault(d, v) != v:
                    values.add(d)
        graph.append(list(members & values))
    looped = [False] * len(graph)
    for component in _strong_components(graph):
        for c in component:
            looped[c] = len(component) > 1 or c in graph[c]
    return [None if looped[where[a]] else succ0[a:b] for a, b in spans]


def _walk(succ, spans, succ0, index=None, counts=None, keep=True):
    """Walk the candidate space in sweep order, as ``candidates`` yields it.

    The walk steps the classes of ``spans``; every other class stands in
    ``succ0`` already (``_spans`` writes a class of one choice there, and
    the sweep a held class). It fills ``succ0`` (one cell per position)
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
    positions afresh on every entry, and with ``keep`` false every class
    does. A class with no choice ends the walk, as the product is then
    empty.

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
    rows = [[] if keep else None for _ in spans]  # per class, its choices so far; None: it streams
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


def _count(succ, span, stop):
    """The number of choices of the class at ``span``, by a walk of the
    class alone that keeps no row; with ``stop >= 0`` the walk ends as
    soon as the number passes ``stop``, and returns ``stop + 1``."""
    count = 0
    for count, _ in enumerate(_walk(succ, [span], [0] * len(succ), keep=False), 1):
        if count > stop >= 0:
            break
    return count


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

    The first candidate is checked alone. If it is doomed, each class on
    no cycle of the class graph (``_held``) stays at its first choice, as
    a class of one choice does: no cycle of equal-output pairs reads its
    successors, so each of its other choices gives every choice of the
    other classes the verdict that the first choice gave it. ``_walk``
    steps the looped classes only, and the rank is read off its digits:
    ``1 + sum(index[k] * W[k])`` over every class, where ``W[k]`` is the
    product of the numbers of choices of the classes after k, and a held
    class's digit is 0. A looped class's number is known by the time an
    earlier digit moves, as the odometer has then gone through the class;
    a held class's is counted by ``_count`` when a rank first needs it,
    and no further than the cap. EXHAUSTED reports the product of all.
    """
    out = []  # each position's class index
    for k in range(len(ends) - 1):
        out += [k] * (ends[k + 1] - ends[k])
    succ0 = [0] * len(succ)
    spans = _spans(succ, ends, succ0)
    if spans is None:
        return EXHAUSTED, 0, None
    index, counts = [0] * len(spans), [0] * len(spans)
    walk = _walk(succ, spans, succ0, index, counts)
    if next(walk, None) is None:
        return EXHAUSTED, 0, None  # no candidate
    if cap == 0:
        return CAP_REACHED, 0, None
    hint = _unsafe_pair(succ0, out, None)  # the first candidate, which now stands in succ0
    if hint is None:
        return FOUND, 1, tuple(succ0)
    loop, gaps = [], [[]]  # the looped classes; the held ones before each, then after the last
    for span, held in zip(spans, _held(succ, ends, spans, succ0)):
        if held is None:
            loop.append(span)
            gaps.append([])
        else:
            gaps[-1].append(span)
    weights = [None] * len(gaps)

    def weight(i):  # gap i's held classes' number of choices, past cap once it passes it
        if weights[i] is None:
            weights[i] = 1
            for span in gaps[i]:
                weights[i] *= _count(succ, span, cap // weights[i])
        return weights[i]

    def position():  # (r, t): choice j of the row just handed out ranks 1 + (r + j) * t
        r = 0
        for i, digit in enumerate(index):
            r = r * counts[i] * weight(i) + digit if r else digit
        return r, weight(len(loop))

    if len(loop) < len(spans):  # step the looped classes only, from the first candidate again
        index, counts = index[:len(loop)], counts[:len(loop)]
        walk = _walk(succ, loop, succ0, index, counts) if loop else iter(())
        next(walk, None)
    last, capped = _last_slice(loop, len(succ)) if loop else None, False
    for choices in walk:
        if cap >= 0:
            r, t = position()
            keep = (cap - 1) // t - r + 1  # the choices ranked up to cap
            if keep < len(choices):
                choices, capped = choices[:max(keep, 0)], True
        for choice in choices:
            succ0[last] = choice
            hint = _unsafe_pair(succ0, out, hint)
            if hint is None:
                r, t = position()
                return FOUND, 1 + (r + choices.index(choice)) * t, tuple(succ0)
        if capped:
            return CAP_REACHED, cap, None
    total = prod(counts) * prod(map(weight, range(len(gaps))))
    if 0 <= cap < total:
        return CAP_REACHED, cap, None
    return EXHAUSTED, total, None
