"""Pure-Python evaluation kernels for closed-loop candidate sweeps.

These are the reference implementations of the hot inner loops; the
compiled twin in ``_kernel_cy`` must produce bit-identical results
(same candidate order, same counts). See ``kernel`` for selection.

Call convention shared by both backends (everything 1-based, plain
sequences of ints):

* ``out``      -- output index per state, length N.
* ``members``  -- all N states in enumeration order: output classes in
  ascending output order, members ascending inside each class.
* ``class_sizes`` -- class sizes in the same order (sums to N).
* ``options_flat`` / ``option_offsets`` -- per member (same order), the
  sorted candidate successor values; member k's options live at
  ``options_flat[option_offsets[k]:option_offsets[k+1]]``.

A candidate is one choice of successor per state, injective within each
class; candidates are visited in lexicographic order of the chosen
values along ``members``. One iterative walker, ``candidates``, defines
that order: both sweeps here and ``synthesis.enumerate_candidates``
consume it. An assignment is returned as the tuple of successors
indexed by state (position s-1 = successor of state s).

A leaf is checked by ``_unsafe_pair`` over the list of equal-output
pairs, which each sweep builds once. The check walks first a hint: the
pair whose walk doomed the previous leaf. A walk depends only on the
successors of the states it passes through, and consecutive leaves
differ mostly in their last positions, so that pair usually dooms the
next leaf too and the check ends after a few steps instead of a scan
of every pair. The verdict still covers every pair, so the hint changes
how soon an unsafe pair is found, never a result.
"""

from __future__ import annotations

from itertools import chain

FOUND = 0
EXHAUSTED = 1
CAP_REACHED = 2


def _equal_output_pairs(out0) -> list[tuple[int, int]]:
    """The 0-based state pairs ``(i, j)``, ``i < j``, with equal outputs,
    in lexicographic order."""
    n = len(out0)
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n) if out0[i] == out0[j]]


def _unsafe_pair(succ0, out0, pairs, hint: int) -> int:
    """Index in ``pairs`` of a pair that reaches a merge or a cycle under the
    closed-loop map ``succ0`` (0-based successors), or -1 when none does,
    that is when the closed loop is observable.

    Each equal-output pair has at most one outgoing edge, so the pair
    graph is functional: walk it from ``pairs[hint]`` first, then from
    every pair in order, marking pairs safe (dead end, no cycle ahead)
    until a walk merges or closes a cycle. ``status`` codes: 0 unknown,
    1 on the current walk, 2 safe.
    """
    if not pairs:
        return -1
    n = len(out0)
    status = bytearray(n * n)
    for k in chain((hint,), range(len(pairs))):
        ci, cj = pairs[k]
        path = []
        while True:
            idx = ci * n + cj
            st = status[idx]
            if st == 1:
                return k  # the walk closed a cycle
            if st:
                break  # known safe
            status[idx] = 1
            path.append(idx)
            a, b = succ0[ci], succ0[cj]
            if a == b:
                return k  # pair merges: edge into the diagonal
            if out0[a] != out0[b]:
                break  # successors distinguishable: dead end
            ci, cj = (a, b) if a < b else (b, a)
        for idx in path:
            status[idx] = 2
    return -1


def closed_loop_observable(succ, out) -> bool:
    """Observability of the autonomous system ``x+ = succ[x]``, ``y = out[x]``.

    ``succ`` and ``out`` are 1-based per-state sequences of length N.
    """
    out0 = list(out)
    return _unsafe_pair([s - 1 for s in succ], out0, _equal_output_pairs(out0), 0) < 0


def candidates(members, class_sizes, options_flat, option_offsets):
    """Walk the candidate space in sweep order; the one definition of that order.

    Yields one 0-based successor list per candidate (indexed by state).
    The same list is yielded every time and changed in place when the
    walk resumes, so copy it to keep it. The walk keeps an option cursor
    and a chosen value per position and one used-value row per class,
    like the compiled ``_sweep``.
    """
    n = len(members)
    members0 = [m - 1 for m in members]
    used = [bytearray(n + 1) for _ in class_sizes]
    rows = [row for row, size in zip(used, class_sizes) for _ in range(size)]
    succ0 = [0] * n
    chosen = [0] * n
    cursor = list(option_offsets)
    pos = 0
    while True:
        if pos == n:
            yield succ0
        else:
            row = rows[pos]
            k, end = cursor[pos], option_offsets[pos + 1]
            while k < end and row[options_flat[k]]:
                k += 1
            if k < end:
                v = options_flat[k]
                row[v] = 1
                chosen[pos] = v
                succ0[members0[pos]] = v - 1
                cursor[pos] = k + 1
                pos += 1
                continue
            cursor[pos] = option_offsets[pos]  # exhausted: rewind for the next visit
        pos -= 1
        if pos < 0:
            return
        rows[pos][chosen[pos]] = 0


def sweep_first_observable(out, members, class_sizes, options_flat,
                           option_offsets, cap: int = -1):
    """Search the candidate space for the first observable closed loop.

    Evaluates at most ``cap`` candidates when ``cap >= 0``. Returns
    ``(status, checked, assignment)`` where status is FOUND, EXHAUSTED
    or CAP_REACHED and assignment is the successful successor tuple
    (None unless FOUND).
    """
    out0 = list(out)
    pairs = _equal_output_pairs(out0)
    checked = hint = 0
    for succ0 in candidates(members, class_sizes, options_flat, option_offsets):
        if 0 <= cap <= checked:
            return CAP_REACHED, checked, None
        checked += 1
        hint = _unsafe_pair(succ0, out0, pairs, hint)
        if hint < 0:
            return FOUND, checked, tuple(s + 1 for s in succ0)
    return EXHAUSTED, checked, None


def sweep_count_observable(out, members, class_sizes, options_flat, option_offsets):
    """Evaluate every candidate; return ``(total, observable_count)``."""
    out0 = list(out)
    pairs = _equal_output_pairs(out0)
    total = good = hint = 0
    for succ0 in candidates(members, class_sizes, options_flat, option_offsets):
        total += 1
        k = _unsafe_pair(succ0, out0, pairs, hint)
        if k < 0:
            good += 1
        else:
            hint = k
    return total, good
