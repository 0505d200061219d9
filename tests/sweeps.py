"""Reference sweeps built from the kernel's own walk and leaf check.

``sweep_first_observable`` stops at the first observable candidate;
these evaluate every candidate or one closed loop, so the tests can
check the sweep's order, counts and verdicts against them.
"""

from lcnsyn import _kernel_py


def equal_output_pairs(out) -> list[tuple[int, int]]:
    """The 0-based state pairs ``(i, j)``, ``i < j``, with equal outputs,
    in lexicographic order."""
    n = len(out)
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n) if out[i] == out[j]]


def closed_loop_observable(succ, out, kernel=_kernel_py) -> bool:
    """Observability of the autonomous system ``x+ = succ[x]``, ``y = out[x]``,
    by ``kernel``'s leaf check.

    ``succ`` and ``out`` are 1-based per-state sequences of length N.
    """
    return kernel._unsafe_pair([s - 1 for s in succ], out, equal_output_pairs(out), 0) < 0


def sweep_count_observable(members, options, out, pairs, kernel=_kernel_py):
    """Evaluate every candidate of ``kernel``'s walk; return
    ``(total, observable_count)``."""
    total = good = hint = 0
    for succ0 in kernel.candidates(members, options, out):
        total += 1
        k = kernel._unsafe_pair(succ0, out, pairs, hint)
        if k < 0:
            good += 1
        else:
            hint = k
    return total, good
