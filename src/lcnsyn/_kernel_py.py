"""The sweep kernel: the hot inner loops of closed-loop candidate sweeps.

Call convention (plain sequences of ints, 0-based in and out), as
``synthesis`` prepares it once per problem: ``classes`` lists each
output class's states ascending, classes in ascending output order,
and ``succ`` gives each state's sorted distinct candidate successors.
Nothing else of the outputs enters: two states have equal outputs
exactly when they lie in the same class.

A candidate is one choice of successor per state, injective within
each class; candidates are visited in lexicographic order of the chosen
values, class by class. Used values are per class, so the candidates
are the product of the classes' choices, and ``_walk`` steps that
product as an odometer, the last class fastest. It finds each class's
choices once, by a walk over the class's states on a stack of option
iterators, and keeps them in a list, so most candidates cost one slice
assignment; the lists of all classes together hold at most
``CELL_CAP`` cells, and a class that would pass that walks its states
afresh on every entry. ``_walk`` is the one definition of the order;
the sweep here consumes it, and ``candidates`` translates it for
``synthesis.enumerate_candidates``.

Inside the kernel states are numbered by walk position (``_positions``):
position p holds state ``members[p]``, so each class is a contiguous
slice, and the walk renumbers each successor it chooses the same way.
Observability does not depend on how states are numbered. A candidate that leaves the
kernel, the sweep's witness too, is a 0-based successor list indexed by
state.

A leaf is a closed loop ``x+ = succ0[x]``, ``y = out[x]``, a Moore
machine with one input, and it is observable exactly when no two of its
states are equivalent (same output sequence forever). The sweep labels
each position with its class's index for ``out``: the leaf check only
asks whether two outputs are equal, and so does refinement, which
depends only on the partition it starts from. ``_unsafe_pair``
first walks a hint: the pair, in kernel numbering, that doomed the
previous leaf. A walk depends only on the successors of the states it
passes through, and consecutive leaves differ mostly in their last
positions, so that pair usually dooms the next leaf too, and the check
ends after a few steps with one small set of seen pairs. Only when the
hint pair is safe does ``_least_equivalent_pair`` refine the states by
pointer doubling, in O(N log N) time and O(N) space, and return the
least pair of equivalent states. Whether a leaf has an unsafe pair at
all does not depend on the hint, so the hint changes how soon an unsafe
pair is found, never a result.
"""

from __future__ import annotations

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
    merges, closes a cycle on a pair in ``seen``, or reaches a pair of
    successors with unequal outputs. In the first two cases the hint is
    returned; in the last it is safe, and the answer is the least pair of
    equivalent states. The sweep passes the leaf and the hint in kernel
    numbering (walk positions); any numbering works, as long as the
    leaf, ``out`` and the hint share it. A hint that maps onto itself is
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
            if i == j:
                return hint  # the pair merges
            if out[i] != out[j]:
                break  # distinguished: the hint is safe
            if i > j:
                i, j = j, i
        else:
            return hint  # the walk closed a cycle
    return _least_equivalent_pair(succ0, out)


def _positions(classes):
    """The kernel numbering of a problem: ``(members, ends)``.

    Position p holds state ``members[p]``; classes come one after
    another, so class k holds the contiguous positions ``ends[k]`` to
    ``ends[k + 1] - 1``.
    """
    members, ends = [], [0]
    for cls in classes:
        members += cls
        ends.append(len(members))
    return members, ends


def _walk(members, succ, ends):
    """Walk the candidate space in sweep order, in kernel numbering; the
    one definition of that order.

    Yields one successor list per candidate, indexed by position and
    holding positions: the same list every time, changed in place when
    the walk resumes. The walk is a mixed-radix odometer over the
    classes, the last class fastest (Knuth, TAOCP 4A, 7.2.1.1). Used
    values are per class, so a class's choices never depend on another
    class's, and the product of the classes' choices, each in
    lexicographic order, is the candidate order.

    A class's choices are found once, by a walk over its positions on a
    stack of option iterators and one set of used values (its last
    position adds nothing and takes each free value in turn), and kept
    in ``rows[k]``; a later entry into the class steps through that
    list, so a leaf costs one slice assignment. The rows of all classes
    together hold at most ``CELL_CAP`` cells (one per position per
    choice): a class that would pass that drops its row and walks its
    positions afresh on every entry. A class with no choice ends the
    walk, as the product is then empty.

    Options and used values stay states (``succ`` is indexed by state);
    only a chosen successor is renumbered, as it is written into the
    candidate, so the problem's options need no renumbered copy.
    """
    n, last = len(members), len(ends) - 2
    where = [0] * n  # state -> its position
    for p, x in enumerate(members):
        where[x] = p
    succ0, its = [0] * n, [None] * n  # its: per position of a walking class, its option iterator
    rows = [[] for _ in range(last + 1)]  # per class, its choices so far; None once it streams
    done = [False] * (last + 1)  # per class, whether rows[k] holds all its choices
    cursor = [None] * (last + 1)  # per done class, an iterator over its row
    cells, k, fresh = 0, 0, True
    while k >= 0:
        a, b = ends[k], ends[k + 1]
        if done[k]:
            if k == last:
                for choice in rows[k]:
                    succ0[a:b] = choice
                    yield succ0
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
        if fresh:
            p, its[a], taken = a, iter(succ[members[a]]), set()
        else:  # resume at the class's last position; its used values are
            # rebuilt, so that no class waiting for a later one holds a set
            p, taken = b - 1, {members[q] for q in succ0[a:b - 1]}
        row = rows[k]
        while True:
            for v in its[p]:  # v names a state, taken holds states
                if v not in taken:
                    break
            else:  # no free value left: step back and free the previous position's
                p -= 1
                if p < a:
                    break
                taken.discard(members[succ0[p]])
                continue
            succ0[p] = where[v]
            if p + 1 < b:
                taken.add(v)
                p += 1
                its[p] = iter(succ[members[p]])
                continue
            if row is not None:  # a new choice of the class
                row.append(succ0[a:b])
                cells += b - a
                if cells > CELL_CAP:
                    cells -= len(row) * (b - a)
                    rows[k] = row = None
            if k < last:
                break
            yield succ0
        if p < a:  # the class is exhausted
            if row is not None:
                if not row:
                    return
                done[k] = True
            k, fresh = k - 1, False
        else:
            k, fresh = k + 1, True


def _in_states(members, succ0, state):
    """Write the kernel-numbered candidate ``succ0`` into ``state``, a list
    indexed by state and holding states, and return it."""
    for x, p in zip(members, succ0):
        state[x] = members[p]
    return state


def candidates(classes, succ):
    """Walk the candidate space in sweep order, in state numbering.

    Yields one 0-based successor list per candidate (indexed by state),
    translated from :func:`_walk`'s kernel numbering. The same list is
    yielded every time and changed in place when the walk resumes, so
    copy it to keep it.
    """
    members, ends = _positions(classes)
    state = [0] * len(members)
    for succ0 in _walk(members, succ, ends):
        yield _in_states(members, succ0, state)


def sweep_first_observable(classes, succ, cap: int = -1):
    """Search the candidate space for the first observable closed loop.

    Evaluates at most ``cap`` candidates when ``cap >= 0``. Returns
    ``(status, checked, witness)`` where status is FOUND, EXHAUSTED or
    CAP_REACHED and witness is the observable candidate's 0-based
    successor tuple (None unless FOUND). The leaves and the hint pair
    are in kernel numbering (:func:`_positions`), and each position's
    output is its class's index; only the witness is translated back to
    states.
    """
    members, ends = _positions(classes)
    out = [k for k, cls in enumerate(classes) for _ in cls]
    checked, hint = 0, None
    for succ0 in _walk(members, succ, ends):
        if 0 <= cap <= checked:
            return CAP_REACHED, checked, None
        checked += 1
        hint = _unsafe_pair(succ0, out, hint)
        if hint is None:
            return FOUND, checked, tuple(_in_states(members, succ0, [0] * len(members)))
    return EXHAUSTED, checked, None
