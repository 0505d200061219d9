"""Exact integer matrix algebra for the semitensor product (STP).

Everything in this package is computed over nonnegative Python integers,
so all results are exact; there is no floating point anywhere. Two
representations are used:

* ``DenseMatrix`` -- row-major integer entries; the generic carrier for
  Kronecker products, the STP, and adjacency matrices.
* ``LogicalMatrix`` -- a 0/1 matrix with exactly one 1 per column,
  compressed to the list of row positions of those 1s. This is the
  delta notation ``delta_n[i_1, ..., i_s]``: the n-row matrix whose j-th
  column is column ``i_j`` of the identity ``I_n``. A single-column
  logical matrix is a basis vector ``delta_n^i``.

Column indices are 1-based at every interface, matching the delta
notation used in the on-disk file formats.

The STP of ``A`` (m x n) and ``B`` (p x q) is
``(A kron I_{a/n}) @ (B kron I_{a/p})`` with ``a = lcm(n, p)``; when
``n == p`` it reduces to the ordinary matrix product. All computations
on logical matrices reduce to index arithmetic, so the dense routines
exist mainly to validate the compressed fast paths.
"""

from __future__ import annotations

from math import lcm

from ._value import Value

#: Allocation guard: operations refuse to build a matrix with more cells
#: than this. Keeps runaway Kronecker/STP dimensions from exhausting
#: memory; raise it deliberately if a larger computation is intended.
CELL_CAP = 1 << 20


class MatrixSizeError(Exception):
    """A requested matrix would exceed the :data:`CELL_CAP` guard."""


class NotLogicalError(ValueError):
    """A dense matrix has no logical (single 1 per column) form."""


def _check_cells(rows: int, cols: int) -> None:
    if rows * cols > CELL_CAP:
        raise MatrixSizeError(
            f"{rows}x{cols} matrix ({rows * cols} cells) exceeds cap {CELL_CAP}"
        )


class DenseMatrix(Value):
    """Row-major matrix of nonnegative integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        if any(e < 0 for e in entries):
            raise ValueError("entries must be nonnegative integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(rows) -> DenseMatrix:
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0:
            raise ValueError("matrix needs at least one row")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(v for r in rows for v in r)
        return DenseMatrix(n, m, flat)

    def entry(self, i: int, j: int) -> int:
        """Entry at row ``i``, column ``j`` (1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def transpose(self) -> DenseMatrix:
        r, c, e = self.rows, self.cols, self.entries
        return DenseMatrix(c, r, tuple(e[i * c + j] for j in range(c) for i in range(r)))


class LogicalMatrix(Value):
    """``delta_rows[col_indices]``: one 1-based row index per column.

    Construction does not range-check the indices (model validation
    reports violations instead of refusing to represent them);
    :func:`expand` and the algebra routines require ``is_valid()``.
    """

    __slots__ = ("rows", "col_indices")

    def __init__(self, rows: int, col_indices: tuple[int, ...]) -> None:
        if rows < 1:
            raise ValueError("row dimension must be positive")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "col_indices", tuple(col_indices))

    @property
    def cols(self) -> int:
        return len(self.col_indices)

    def is_valid(self) -> bool:
        return all(1 <= v <= self.rows for v in self.col_indices)


def identity(n: int) -> DenseMatrix:
    _check_cells(n, n)
    e = [0] * (n * n)
    for i in range(n):
        e[i * n + i] = 1
    return DenseMatrix(n, n, tuple(e))


def logical_identity(n: int) -> LogicalMatrix:
    """``delta_n[1, 2, ..., n]``."""
    return LogicalMatrix(n, tuple(range(1, n + 1)))


def kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Kronecker product, dimensions ``(a.rows*b.rows) x (a.cols*b.cols)``."""
    rr, cc = a.rows * b.rows, a.cols * b.cols
    _check_cells(rr, cc)
    out = [0] * (rr * cc)
    for i in range(a.rows):
        for j in range(a.cols):
            s = a.entries[i * a.cols + j]
            if s == 0:
                continue
            base = i * b.rows * cc + j * b.cols
            for p in range(b.rows):
                row = base + p * cc
                off = p * b.cols
                for q in range(b.cols):
                    out[row + q] = s * b.entries[off + q]
    return DenseMatrix(rr, cc, tuple(out))


def _matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    _check_cells(a.rows, b.cols)
    n, m, k = a.rows, b.cols, a.cols
    out = [0] * (n * m)
    for i in range(n):
        arow = a.entries[i * k : (i + 1) * k]
        orow = i * m
        for t in range(k):
            s = arow[t]
            if s == 0:
                continue
            boff = t * m
            for j in range(m):
                out[orow + j] += s * b.entries[boff + j]
    return DenseMatrix(n, m, tuple(out))


def stp(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Semitensor product of two dense matrices.

    Total on any pair of dimensions; equals the conventional product
    when ``a.cols == b.rows``.
    """
    al = lcm(a.cols, b.rows)
    left = a if al == a.cols else kron(a, identity(al // a.cols))
    right = b if al == b.rows else kron(b, identity(al // b.rows))
    return _matmul(left, right)


def swap_matrix(m: int, n: int) -> LogicalMatrix:
    """The mn x mn permutation ``[I_n kron d_m^1, ..., I_n kron d_m^m]``.

    Swaps the factors of a Kronecker-stacked vector: ``W (P kron Q) =
    Q kron P`` for basis vectors P (m-dim) and Q (n-dim).
    """
    if m < 1 or n < 1:
        raise ValueError("swap dimensions must be positive")
    _check_cells(m * n, m * n)
    idx = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            idx.append((j - 1) * m + i)
    return LogicalMatrix(m * n, tuple(idx))


def power_reducing_matrix(k: int) -> LogicalMatrix:
    """Block-diagonal ``d_k^1 (+) ... (+) d_k^k``, a k^2 x k logical matrix.

    Satisfies ``P stp P = M stp P`` for every basis vector P of size k.
    """
    if k < 1:
        raise ValueError("dimension must be positive")
    _check_cells(k * k, k)
    return LogicalMatrix(k * k, tuple((i - 1) * k + i for i in range(1, k + 1)))


def expand(lm: LogicalMatrix) -> DenseMatrix:
    """Expand a compressed logical matrix to its dense 0/1 form."""
    if not lm.is_valid():
        raise ValueError(f"column indices out of range for {lm.rows} rows: {lm.col_indices}")
    s = lm.cols
    _check_cells(lm.rows, s)
    out = [0] * (lm.rows * s)
    for j, v in enumerate(lm.col_indices):
        out[(v - 1) * s + j] = 1
    return DenseMatrix(lm.rows, s, tuple(out))


def compress(dm: DenseMatrix) -> LogicalMatrix:
    """Inverse of :func:`expand`; fails unless every column is a basis vector."""
    idx = []
    for j in range(dm.cols):
        hit = 0
        for i in range(dm.rows):
            v = dm.entries[i * dm.cols + j]
            if v == 0:
                continue
            if v != 1 or hit:
                raise NotLogicalError(f"column {j + 1} is not a basis vector")
            hit = i + 1
        if not hit:
            raise NotLogicalError(f"column {j + 1} is all zeros")
        idx.append(hit)
    return LogicalMatrix(dm.rows, tuple(idx))


def logical_stp_column(l: LogicalMatrix, col_selector: int) -> int:
    """Row index selected by ``l stp d^col_selector`` (reads one column).

    Fast path for multiplying a logical matrix by a basis vector: the
    product is column ``col_selector`` of ``l``.
    """
    if not (1 <= col_selector <= l.cols):
        raise IndexError(f"column {col_selector} outside [1, {l.cols}]")
    return l.col_indices[col_selector - 1]
