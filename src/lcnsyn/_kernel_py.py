"""The sweep kernel: the hot inner loops of closed-loop candidate sweeps.

Call convention (plain sequences of ints, states and successors
0-based), as ``synthesis`` prepares it once per problem:

* ``members`` -- all N states in walk order: output classes in
  ascending output order, members ascending inside each class.
* ``options`` -- per member (same order), its sorted distinct
  candidate successors.
* ``out``     -- output index per state, length N.
* ``pairs``   -- the state pairs ``(i, j)``, ``i < j``, with equal
  outputs, in lexicographic order.

A candidate is one choice of successor per state, injective among
equal-output states; candidates are visited in lexicographic order of
the chosen values along ``members``. One iterative walker,
``candidates``, defines that order: the sweep here and
``synthesis.enumerate_candidates`` consume it. An assignment is
returned as the tuple of 1-based successors indexed by state (position
s-1 = successor of state s).

A leaf is checked by ``_unsafe_pair`` over ``pairs``, with walk marks
kept in a dict of only the pairs its walks touch. The check walks first
a hint: the pair whose walk doomed the previous leaf. A walk depends
only on the successors of the states it passes through, and consecutive
leaves differ mostly in their last positions, so that pair usually
dooms the next leaf too and the check ends after a few steps instead of
a scan of every pair. The verdict still covers every pair, so the hint
changes how soon an unsafe pair is found, never a result.
"""

from __future__ import annotations

from itertools import chain

FOUND = 0
EXHAUSTED = 1
CAP_REACHED = 2


def _unsafe_pair(succ0, out, pairs, hint: int) -> int:
    """Index in ``pairs`` of a pair that reaches a merge or a cycle under the
    closed-loop map ``succ0`` (0-based successors), or -1 when none does,
    that is when the closed loop is observable.

    Each equal-output pair has at most one outgoing edge, so the pair
    graph is functional: walk it from ``pairs[hint]`` first, then from
    every pair in order, marking pairs safe (dead end, no cycle ahead)
    until a walk merges or closes a cycle. ``status`` maps each pair the
    walks touched, keyed ``ci * n + cj``, to 1 (on the current walk) or
    2 (safe); an absent pair is unknown.
    """
    if not pairs:
        return -1
    n = len(out)
    status: dict[int, int] = {}
    for k in chain((hint,), range(len(pairs))):
        ci, cj = pairs[k]
        path = []
        while True:
            idx = ci * n + cj
            st = status.get(idx)
            if st == 1:
                return k  # the walk closed a cycle
            if st:
                break  # known safe
            status[idx] = 1
            path.append(idx)
            a, b = succ0[ci], succ0[cj]
            if a == b:
                return k  # pair merges: edge into the diagonal
            if out[a] != out[b]:
                break  # successors distinguishable: dead end
            ci, cj = (a, b) if a < b else (b, a)
        for idx in path:
            status[idx] = 2
    return -1


def candidates(members, options, out):
    """Walk the candidate space in sweep order; the one definition of that order.

    Yields one 0-based successor list per candidate (indexed by state).
    The same list is yielded every time and changed in place when the
    walk resumes, so copy it to keep it. The walk keeps an option cursor
    and a chosen value per position and one used-value row per output.
    """
    n = len(members)
    used = {y: bytearray(n) for y in out}
    rows = [used[out[x]] for x in members]
    # one tuple per position: a single index fetches all the forward step reads
    slots = [(row, opts, len(opts)) for row, opts in zip(rows, options)]
    succ0 = [0] * n
    chosen = [0] * n
    cursor = [0] * n
    pos = 0
    while True:
        if pos == n:
            yield succ0
        else:
            row, opts, end = slots[pos]
            k = cursor[pos]
            while k < end and row[opts[k]]:
                k += 1
            if k < end:
                v = opts[k]
                row[v] = 1
                chosen[pos] = v
                succ0[members[pos]] = v
                cursor[pos] = k + 1
                pos += 1
                continue
            cursor[pos] = 0  # exhausted: rewind for the next visit
        pos -= 1
        if pos < 0:
            return
        rows[pos][chosen[pos]] = 0


def sweep_first_observable(members, options, out, pairs, cap: int = -1):
    """Search the candidate space for the first observable closed loop.

    Evaluates at most ``cap`` candidates when ``cap >= 0``. Returns
    ``(status, checked, assignment)`` where status is FOUND, EXHAUSTED
    or CAP_REACHED and assignment is the successful successor tuple
    (None unless FOUND).
    """
    checked = hint = 0
    for succ0 in candidates(members, options, out):
        if 0 <= cap <= checked:
            return CAP_REACHED, checked, None
        checked += 1
        hint = _unsafe_pair(succ0, out, pairs, hint)
        if hint < 0:
            return FOUND, checked, tuple(s + 1 for s in succ0)
    return EXHAUSTED, checked, None
