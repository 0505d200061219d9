# cython: language_level=3
# cython: boundscheck=False, wraparound=False, initializedcheck=False
"""Compiled evaluation kernels for closed-loop candidate sweeps.

Bit-identical twin of ``_kernel_py`` (same call convention, same
candidate order, same counts); see that module for the interface
documentation.
"""

from libc.stdlib cimport calloc, free
from libc.string cimport memset

FOUND = 0
EXHAUSTED = 1
CAP_REACHED = 2

cdef int _STATUS_FOUND = 0
cdef int _STATUS_EXHAUSTED = 1
cdef int _STATUS_CAP = 2


cdef int _observable0(int* succ0, int* out0, int n, char* status, int* path) noexcept nogil:
    """1 when the closed-loop map is observable, else 0.

    Walks the functional pair graph; ``status``/``path`` are n*n scratch
    buffers (status is zeroed here). Codes: 0 unknown, 1 on current
    walk, 2 safe, 3 unsafe.
    """
    cdef int i, j, ci, cj, a, b, idx, st, verdict, k, plen
    memset(status, 0, n * n)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if out0[i] != out0[j] or status[i * n + j]:
                continue
            plen = 0
            ci = i
            cj = j
            while True:
                idx = ci * n + cj
                st = status[idx]
                if st != 0:
                    verdict = 2 if st == 2 else 3
                    break
                status[idx] = 1
                path[plen] = idx
                plen += 1
                a = succ0[ci]
                b = succ0[cj]
                if a == b:
                    verdict = 3  # pair merges: edge into the diagonal
                    break
                if out0[a] != out0[b]:
                    verdict = 2  # successors distinguishable: dead end
                    break
                if a < b:
                    ci = a
                    cj = b
                else:
                    ci = b
                    cj = a
            for k in range(plen):
                status[path[k]] = verdict
            if verdict == 3:
                return 0
    return 1


cdef int* _copy_ints(object seq, Py_ssize_t extra) except NULL:
    cdef Py_ssize_t n = len(seq)
    cdef int* buf = <int*> calloc(n + extra if n + extra > 0 else 1, sizeof(int))
    if buf == NULL:
        raise MemoryError()
    cdef Py_ssize_t k
    for k in range(n):
        buf[k] = seq[k]
    return buf


def closed_loop_observable(succ, out):
    """Observability of the autonomous system ``x+ = succ[x]``, ``y = out[x]``."""
    cdef int n = len(succ)
    if n == 0:
        return True
    cdef int* succ0 = _copy_ints(succ, 0)
    cdef int* out0 = NULL
    cdef char* status = NULL
    cdef int* path = NULL
    cdef int k, res
    try:
        out0 = _copy_ints(out, 0)
        status = <char*> calloc(n * n, sizeof(char))
        path = <int*> calloc(n * n, sizeof(int))
        if status == NULL or path == NULL:
            raise MemoryError()
        for k in range(n):
            succ0[k] -= 1
        with nogil:
            res = _observable0(succ0, out0, n, status, path)
        return res == 1
    finally:
        free(succ0)
        free(out0)
        free(status)
        free(path)


cdef struct SweepState:
    int n
    int n_classes
    int* out0
    int* members0
    int* class_of
    int* offsets
    int* options
    char* used       # n_classes x (n + 1)
    int* succ0
    int* kptr
    int* chosen
    char* status
    int* path


cdef int _sweep(SweepState* s, long long cap, bint count_all,
                long long* checked, long long* good, int* found_succ) noexcept nogil:
    """Backtracking over candidates in the order of ``_kernel_py.candidates``.

    In first-hit mode (count_all == 0) returns FOUND/EXHAUSTED/CAP and
    writes the successful assignment into ``found_succ``; in count mode
    walks everything, tallying into ``checked``/``good``.
    """
    cdef int n = s.n
    cdef int pos = 0
    cdef int k, v, end, row, m0
    cdef bint advanced
    s.kptr[0] = s.offsets[0]
    while True:
        if pos == n:
            if count_all:
                checked[0] += 1
                if _observable0(s.succ0, s.out0, n, s.status, s.path):
                    good[0] += 1
            else:
                if cap >= 0 and checked[0] >= cap:
                    return _STATUS_CAP
                checked[0] += 1
                if _observable0(s.succ0, s.out0, n, s.status, s.path):
                    for k in range(n):
                        found_succ[k] = s.succ0[k] + 1
                    return _STATUS_FOUND
            pos -= 1
            s.used[s.class_of[pos] * (n + 1) + s.chosen[pos]] = 0
            continue
        advanced = False
        k = s.kptr[pos]
        end = s.offsets[pos + 1]
        row = s.class_of[pos] * (n + 1)
        while k < end:
            v = s.options[k]
            if not s.used[row + v]:
                advanced = True
                break
            k += 1
        if advanced:
            s.used[row + v] = 1
            s.chosen[pos] = v
            s.succ0[s.members0[pos]] = v - 1
            s.kptr[pos] = k + 1
            pos += 1
            if pos < n:
                s.kptr[pos] = s.offsets[pos]
        else:
            pos -= 1
            if pos < 0:
                return _STATUS_EXHAUSTED
            s.used[s.class_of[pos] * (n + 1) + s.chosen[pos]] = 0


cdef void _free_state(SweepState* s) noexcept:
    free(s.out0)
    free(s.members0)
    free(s.class_of)
    free(s.offsets)
    free(s.options)
    free(s.used)
    free(s.succ0)
    free(s.kptr)
    free(s.chosen)
    free(s.status)
    free(s.path)


cdef int _init_state(SweepState* s, out, members, class_sizes,
                     options_flat, option_offsets) except -1:
    cdef int n = len(out)
    cdef int k, c, size, p
    s.n = n
    s.n_classes = len(class_sizes)
    s.out0 = _copy_ints(out, 0)
    s.members0 = _copy_ints(members, 0)
    for k in range(n):
        s.members0[k] -= 1
    s.class_of = <int*> calloc(n if n else 1, sizeof(int))
    p = 0
    for c in range(s.n_classes):
        size = class_sizes[c]
        for k in range(size):
            s.class_of[p] = c
            p += 1
    s.offsets = _copy_ints(option_offsets, 0)
    s.options = _copy_ints(options_flat, 0)
    s.used = <char*> calloc(s.n_classes * (n + 1) if s.n_classes else 1, sizeof(char))
    s.succ0 = <int*> calloc(n if n else 1, sizeof(int))
    s.kptr = <int*> calloc(n + 1, sizeof(int))
    s.chosen = <int*> calloc(n if n else 1, sizeof(int))
    s.status = <char*> calloc(n * n if n else 1, sizeof(char))
    s.path = <int*> calloc(n * n if n else 1, sizeof(int))
    if (s.class_of == NULL or s.used == NULL or s.succ0 == NULL or
            s.kptr == NULL or s.chosen == NULL or s.status == NULL or s.path == NULL):
        raise MemoryError()
    return 0


def sweep_first_observable(out, members, class_sizes, options_flat,
                           option_offsets, cap=-1):
    """Search the candidate space for the first observable closed loop."""
    cdef SweepState s
    memset(&s, 0, sizeof(SweepState))
    cdef long long checked = 0
    cdef long long good = 0
    cdef long long ccap = cap
    cdef int status
    cdef int* found_succ = NULL
    cdef int n = len(out)
    cdef int k
    try:
        _init_state(&s, out, members, class_sizes, options_flat, option_offsets)
        found_succ = <int*> calloc(n if n else 1, sizeof(int))
        if found_succ == NULL:
            raise MemoryError()
        with nogil:
            status = _sweep(&s, ccap, 0, &checked, &good, found_succ)
        found = None
        if status == _STATUS_FOUND:
            out_list = []
            for k in range(n):
                out_list.append(found_succ[k])
            found = tuple(out_list)
        return status, int(checked), found
    finally:
        _free_state(&s)
        free(found_succ)


def sweep_count_observable(out, members, class_sizes, options_flat, option_offsets):
    """Evaluate every candidate; return ``(total, observable_count)``."""
    cdef SweepState s
    memset(&s, 0, sizeof(SweepState))
    cdef long long checked = 0
    cdef long long good = 0
    try:
        _init_state(&s, out, members, class_sizes, options_flat, option_offsets)
        with nogil:
            _sweep(&s, -1, 1, &checked, &good, NULL)
        return int(checked), int(good)
    finally:
        _free_state(&s)
