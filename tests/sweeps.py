"""Reference sweeps and leaf checks for the kernel's tests.

``sweep_first_observable`` stops at the first observable candidate;
these evaluate every candidate or one closed loop, so the tests can
check the sweep's order, counts and verdicts against them.
``scan_unsafe_pair`` is the leaf check the kernel used before its
Moore refinement: a scan of every equal-output pair, kept as the
reference that the refinement must agree with, pair for pair.
``reference_candidates`` is the candidate walk the kernel used before
its per-class odometer, one option iterator per position, and
``reference_sweep`` the sweep over it: the references for the
kernel's candidate order and sweep results.
"""

from itertools import chain

from lcnsyn import _kernel_py


def equal_output_pairs(out) -> list[tuple[int, int]]:
    """The 0-based state pairs ``(i, j)``, ``i < j``, with equal outputs,
    in lexicographic order."""
    n = len(out)
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n) if out[i] == out[j]]


def scan_unsafe_pair(succ0, out, pairs, hint: int) -> int:
    """Index in ``pairs`` of a pair that reaches a merge or a cycle under the
    closed-loop map ``succ0`` (0-based successors), or -1 when none does.

    Walks the functional pair graph from ``pairs[hint]`` first, then from
    every pair in order, marking pairs safe (dead end, no cycle ahead)
    until a walk merges or closes a cycle. ``status`` maps each pair the
    walks touched, keyed ``ci * n + cj``, to 1 (on the current walk) or
    2 (safe).
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


def closed_loop_observable(succ, out, kernel=_kernel_py) -> bool:
    """Observability of the autonomous system ``x+ = succ[x]``, ``y = out[x]``,
    by ``kernel``'s leaf check.

    ``succ`` and ``out`` are 1-based per-state sequences of length N.
    """
    return kernel._unsafe_pair([s - 1 for s in succ], out, None) is None


def sweep_count_observable(classes, succ, out, kernel=_kernel_py):
    """Evaluate every candidate of ``kernel``'s walk; return
    ``(total, observable_count)``."""
    total = good = 0
    hint = None
    for succ0 in kernel.candidates(classes, succ):
        total += 1
        pair = kernel._unsafe_pair(succ0, out, hint)
        if pair is None:
            good += 1
        else:
            hint = pair
    return total, good


def reference_candidates(classes, succ):
    """The per-position candidate walk the kernel used before its per-class
    odometer, kept as the reference for the candidate order.

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


def reference_sweep(classes, succ, out, cap: int = -1):
    """``_kernel_py.sweep_first_observable`` over the reference walk, in
    state numbering, with each state's output ``out[x]`` given instead of
    read off the classes: ``(status, checked, witness)``."""
    checked, hint = 0, None
    for succ0 in reference_candidates(classes, succ):
        if 0 <= cap <= checked:
            return _kernel_py.CAP_REACHED, checked, None
        checked += 1
        hint = _kernel_py._unsafe_pair(succ0, out, hint)
        if hint is None:
            return _kernel_py.FOUND, checked, tuple(succ0)
    return _kernel_py.EXHAUSTED, checked, None
