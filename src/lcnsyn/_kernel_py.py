"""The sweep kernel: the hot inner loops of closed-loop candidate sweeps.

Call convention (plain sequences of ints, 0-based in and out), as
``synthesis`` prepares it once per problem: ``classes`` lists each
output class's states ascending, classes in ascending output order;
``succ`` gives each state's sorted distinct candidate successors; and
``out``, read only by the leaf check, each state's output index.

A candidate is one choice of successor per state, injective within
each class; candidates are visited in lexicographic order of the chosen
values, class by class. One iterative walker, ``candidates``, defines
that order on a stack of option iterators, one per position; the sweep
here and ``synthesis.enumerate_candidates`` consume it. A candidate,
the sweep's witness too, is a 0-based successor list indexed by state.

A leaf is a closed loop ``x+ = succ0[x]``, ``y = out[x]``, a Moore
machine with one input, and it is observable exactly when no two of its
states are equivalent (same output sequence forever). ``_unsafe_pair``
first walks a hint: the pair that doomed the previous leaf. A walk
depends only on the successors of the states it passes through, and
consecutive leaves differ mostly in their last positions, so that pair
usually dooms the next leaf too, and the check ends after a few steps
with one small set of seen pairs. Only when the hint pair is safe does
``_least_equivalent_pair`` refine the states by pointer doubling, in
O(N log N) time and O(N) space, and return the least pair of equivalent
states. That is the first unsafe pair in lexicographic order, so the
hint changes how soon an unsafe pair is found, never a result.
"""

from __future__ import annotations

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
    merges, closes a cycle on a pair in ``seen``, or reaches a pair of
    successors with unequal outputs. In the first two cases the hint is
    returned; in the last it is safe, and the answer is the least pair of
    equivalent states. A hint that maps onto itself is returned before
    any set is built: in the sweep that is how most doomed leaves end
    (21 147 of the 22 454 before the witness of ``random_network(0, 12,
    4, 2)``).
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
            if i == j:
                return hint  # the pair merges
            if out[i] != out[j]:
                break  # distinguished: the hint is safe
            if i > j:
                i, j = j, i
        else:
            return hint  # the walk closed a cycle
    return _least_equivalent_pair(succ0, out)


def candidates(classes, succ):
    """Walk the candidate space in sweep order; the one definition of that order.

    Yields one 0-based successor list per candidate (indexed by state).
    The same list is yielded every time and changed in place when the
    walk resumes, so copy it to keep it, and do not change it: the walk
    reads the values it chose back from it. The walk keeps one option
    iterator per position and one set of used values per output class.
    The last position adds nothing: it yields each free value in turn.
    """
    members, used = [], []  # per position, its state and its class's set
    for cls in classes:
        members += cls
        used += [set()] * len(cls)
    options = [succ[x] for x in members]
    n = len(members)
    succ0 = [0] * n
    its = [iter(options[0])] + [None] * (n - 1)
    last, pos = n - 1, 0
    while True:
        taken = used[pos]
        for v in its[pos]:
            if v not in taken:
                break
        else:  # no free value left: step back and free the previous position's
            pos -= 1
            if pos < 0:
                return
            used[pos].discard(succ0[members[pos]])
            continue
        succ0[members[pos]] = v
        if pos == last:
            yield succ0
        else:
            taken.add(v)
            pos += 1
            its[pos] = iter(options[pos])


def sweep_first_observable(classes, succ, out, cap: int = -1):
    """Search the candidate space for the first observable closed loop.

    Evaluates at most ``cap`` candidates when ``cap >= 0``. Returns
    ``(status, checked, witness)`` where status is FOUND, EXHAUSTED or
    CAP_REACHED and witness is the observable candidate's 0-based
    successor tuple (None unless FOUND).
    """
    checked, hint = 0, None
    for succ0 in candidates(classes, succ):
        if 0 <= cap <= checked:
            return CAP_REACHED, checked, None
        checked += 1
        hint = _unsafe_pair(succ0, out, hint)
        if hint is None:
            return FOUND, checked, tuple(succ0)
    return EXHAUSTED, checked, None
