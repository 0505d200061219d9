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
fastest. It finds each class's choices once, by a walk over the class's
positions on a stack of option iterators, and keeps them in a list, so
most candidates cost one slice assignment; the lists of all classes
together hold at most ``CELL_CAP`` cells, and a class that would pass
that walks its positions afresh on every entry. The odometer hands the
last class's list to its caller whole, so a candidate there costs the
caller's slice assignment and no resume of the walk. ``candidates`` is
the one definition of the order, and ``synthesis.enumerate_candidates``
yields all of it.

The sweep walks the same order, but holds each one-state class (a class
of one position) at its first option. A pair walk only reads the
successors of two distinct positions of one class, as a candidate gives
equal-output positions distinct successors; so no leaf check reads a
one-state class's successor, and each of its other options gives every
choice of the later classes the verdict that the first option gave. The
sweep counts those candidates instead of checking them: stepping back
past the class adds its other options times the later classes' numbers
of choices, which the walk knows, as it has just walked each of them in
full. So the sweep's ``checked`` is the rank in the full order, the
number of candidates up to and including the witness, or all of them;
it is not the number of leaf checks, which can be much lower.

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
    succ0, a = [0] * len(succ), ends[-2]
    for choices in _walk(succ, ends, succ0, None):
        for choice in choices:
            succ0[a:] = choice
            yield succ0


def _walk(succ, ends, succ0, skipped):
    """Walk the candidate space in sweep order, as ``candidates`` yields
    it; with a list ``skipped``, hold each one-state class at its first
    option, as the sweep walks it.

    The walk fills ``succ0`` (one cell per position) and yields the last
    class's choices in order: with each of them put at
    ``succ0[ends[-2]:]`` in turn, ``succ0`` is the next candidate. Every
    earlier class stands in ``succ0`` until the caller asks for more. A
    last class that keeps a row yields it whole; otherwise each choice
    comes alone, in a tuple of one.

    The walk is a mixed-radix odometer over the classes, the last class
    fastest (Knuth, TAOCP 4A, 7.2.1.1). Used values are per class, so a
    class's choices never depend on another class's, and the product of
    the classes' choices, each in lexicographic order, is the candidate
    order.

    A class's choices are found once, by a walk over its positions on a
    stack of option iterators and one set of used values (its last
    position adds nothing and takes each free value in turn), and kept
    in ``rows[k]``; a later entry into the class steps through that
    list, so a leaf costs one slice assignment. The rows of all classes
    together hold at most ``CELL_CAP`` cells (one per position per
    choice): a class that would pass that drops its row and walks its
    positions afresh on every entry. A class with no choice ends the
    walk, as the product is then empty. ``counts[k]`` is the number of
    class k's choices once its latest walk is complete, whether it keeps
    a row or streams.

    A held class takes its first option on every entry and keeps no row.
    When the walk steps back past it, every later class has just been
    walked in full, so the candidates passed over, its other options
    times the later classes' choices, are known and are added to
    ``skipped[0]``: the rank of a candidate is the number of candidates
    handed out so far, itself included, plus ``skipped[0]``.

    A class's walk counts its dead ends since its last choice (a resume
    always follows a choice, so the count starts at 0 on every entry).
    Past ``b - a`` of them, each dead end steps back, beyond the position
    before it, over every prefix under which the positions from p on have
    no pairwise-distinct choice among the values not taken. No leaf lies
    below such a prefix, so the yield order is unchanged.
    """
    n, last = len(succ), len(ends) - 2
    its = [None] * n  # per position of a walking class, its option iterator
    rows = [[] for _ in range(last + 1)]  # per class, its choices so far; None once it streams
    done = [False] * (last + 1)  # per class, whether rows[k] holds all its choices
    cursor = [None] * (last + 1)  # per done class, an iterator over its row
    counts = [0] * (last + 1)  # per class, its choices, once its latest walk is complete
    held = [0] * (last + 1)  # per held class, its options past the first
    if skipped is not None:
        for k in range(last + 1):
            a = ends[k]
            if ends[k + 1] - a == 1 and len(succ[a]) > 1:
                counts[k], held[k] = len(succ[a]), len(succ[a]) - 1
    cells, k, fresh = 0, 0, True
    while k >= 0:
        a, b = ends[k], ends[k + 1]
        if done[k]:
            if k == last:
                yield rows[k]
                k, fresh = k - 1, False
                continue
            if fresh:
                cursor[k] = iter(rows[k])
            choice = next(cursor[k], None)
            if choice is None:
                k, fresh = k - 1, False
            else:
                succ0[a:b] = choice
                k, fresh = k + 1, True
            continue
        if held[k]:  # at its first option; the candidates with another are counted
            if fresh:
                succ0[a] = succ[a][0]
                if k < last:
                    k += 1
                    continue
                yield (succ0[a:b],)
            skipped[0] += held[k] * prod(counts[k + 1:])
            k, fresh = k - 1, False
            continue
        if fresh:
            p, its[a], taken, counts[k] = a, iter(succ[a]), set(), 0
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
            if row is not None:  # a new choice of the class
                row.append(succ0[a:b])
                cells += b - a
                if cells > CELL_CAP:
                    cells -= len(row) * (b - a)
                    counts[k], rows[k], row = len(row), None, None
            else:
                counts[k] += 1
            if k < last:
                break
            yield (succ0[a:b],)
        if p < a:  # the class is exhausted
            if row is not None:
                if not row:
                    return
                done[k], counts[k] = True, len(row)
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

    A one-state class is held at its first option (``_walk``): its
    state is in no equal-output pair, so no pair walk reads its
    successor, and each of its other options gives every later choice
    the verdict that the first option gave it. Those candidates are
    counted, not evaluated, and the first witness, if any, has the first
    option there.
    """
    out = []  # each position's class index
    for k in range(len(ends) - 1):
        out += [k] * (ends[k + 1] - ends[k])
    skipped = [0]  # the candidates passed over, each as doomed as its evaluated twin
    evaluated, hint, capped = 0, None, False
    succ0, a = [0] * len(succ), ends[-2]
    for choices in _walk(succ, ends, succ0, skipped):
        # the walk adds to skipped[0] only between rows, so this row's
        # candidates have the ranks evaluated + skipped[0] + 1, + 2, ...
        if 0 <= cap < evaluated + skipped[0] + len(choices):  # evaluate up to rank cap
            choices, capped = choices[:max(cap - evaluated - skipped[0], 0)], True
        for choice in choices:
            succ0[a:] = choice
            hint = _unsafe_pair(succ0, out, hint)
            if hint is None:
                rank = evaluated + skipped[0] + choices.index(choice) + 1
                return FOUND, rank, tuple(succ0)
        if capped:
            return CAP_REACHED, cap, None
        evaluated += len(choices)
    checked = evaluated + skipped[0]
    if 0 <= cap < checked:
        return CAP_REACHED, cap, None
    return EXHAUSTED, checked, None
