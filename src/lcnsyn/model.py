"""Logical control network (LCN) model in algebraic form.

An LCN with N states, M inputs and Q outputs is stored by two structure
matrices: the transition matrix ``L`` (N rows, N*M columns) and the
output matrix ``H`` (Q rows, N columns). ``L`` is state-major: column
``(x-1)*M + u`` holds the successor of state ``x`` under input ``u``,
because the basis vectors compose as ``d_N^x kron d_M^u =
d_{NM}^{(x-1)M+u}``. All state/input/output values are 1-based basis
indices; for scalar semantics, index ``i`` of a k-valued node stands
for the level ``(k-i)/(k-1)`` (index 1 is the top level, index k the
bottom). The toolkit works on the index side only.

Networks whose node update rules are given as truth tables enter
through :func:`from_truth_table`; there is deliberately no parser for
logical formulas.
"""

from __future__ import annotations

from math import prod

from ._value import Value
from .stp import LogicalMatrix


class MissingEntryError(ValueError):
    """A truth table does not cover its full domain."""


class Lcn(Value):
    """An LCN in algebraic form. Immutable; construction does not
    validate -- run :func:`validate` to collect violations."""

    __slots__ = ("state_dim", "input_dim", "output_dim", "L", "H",
                 "state_factors", "input_factors", "output_factors")

    _defaults = {"state_factors": None, "input_factors": None, "output_factors": None}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for name in self._defaults:  # the factor lists, as tuples
            factors = getattr(self, name)
            if factors is not None:
                object.__setattr__(self, name, tuple(factors))

    def block(self, i: int) -> LogicalMatrix:
        """The i-th block ``L_i`` (N x M): columns of ``L`` for state i."""
        n, m = self.state_dim, self.input_dim
        if not (1 <= i <= n):
            raise IndexError(f"state {i} outside [1, {n}]")
        return LogicalMatrix(n, self.L.col_indices[(i - 1) * m : i * m])

    def step(self, x: int, u: int) -> int:
        """Successor state of ``x`` under input ``u``."""
        n, m = self.state_dim, self.input_dim
        if not (1 <= x <= n):
            raise IndexError(f"state {x} outside [1, {n}]")
        if not (1 <= u <= m):
            raise IndexError(f"input {u} outside [1, {m}]")
        return self.L.col_indices[(x - 1) * m + (u - 1)]

    def output(self, x: int) -> int:
        """Output index of state ``x``."""
        if not (1 <= x <= self.state_dim):
            raise IndexError(f"state {x} outside [1, {self.state_dim}]")
        return self.H.col_indices[x - 1]


class StateFeedback(Value):
    """A state-feedback controller ``u = G x v`` with P new inputs.

    ``G`` has M rows and N*P columns, state-major: block ``G_i`` (M x P)
    occupies columns ``(i-1)*P+1 .. i*P``. ``P == 1`` is the closed-loop
    case (no external input left).
    """

    __slots__ = ("state_dim", "input_dim", "new_input_dim", "G")

    def block(self, i: int) -> LogicalMatrix:
        n, p = self.state_dim, self.new_input_dim
        if not (1 <= i <= n):
            raise IndexError(f"state {i} outside [1, {n}]")
        return LogicalMatrix(self.input_dim, self.G.col_indices[(i - 1) * p : i * p])


def _check_factors(label: str, factors, dim: int, out: list[str]) -> None:
    if factors is None:
        return
    if any(f < 2 for f in factors):
        out.append(f"{label} must all be >= 2, got {list(factors)}")
    if prod(factors) != dim:
        out.append(f"product of {label} {list(factors)} != {dim}")


#: The violation :func:`validate` reports for a network without ``H``.
MISSING_H = "H is missing; full state observation is logical_identity(N)"


def validate(lcn: Lcn) -> list[str]:
    """Check every model invariant; return all violations (empty = ok)."""
    v: list[str] = []
    n, m, q = lcn.state_dim, lcn.input_dim, lcn.output_dim
    if n < 1 or m < 1 or q < 1:
        v.append(f"dimensions must be positive, got N={n} M={m} Q={q}")
        return v
    if lcn.L.rows != n:
        v.append(f"L row dimension {lcn.L.rows} != {n}")
    if lcn.L.cols != n * m:
        v.append(f"L column count {lcn.L.cols} != {n * m} (N*M)")
    for j, t in enumerate(lcn.L.col_indices, start=1):
        if not (1 <= t <= n):
            v.append(f"L index out of range: column {j} targets {t}, not in [1, {n}]")
    if lcn.H is None:
        v.append(MISSING_H)
    else:
        if lcn.H.rows != q:
            v.append(f"H row dimension {lcn.H.rows} != {q}")
        if lcn.H.cols != n:
            v.append(f"H column count {lcn.H.cols} != {n} (N)")
        for j, t in enumerate(lcn.H.col_indices, start=1):
            if not (1 <= t <= q):
                v.append(f"H index out of range: column {j} targets {t}, not in [1, {q}]")
    _check_factors("state_factors", lcn.state_factors, n, v)
    _check_factors("input_factors", lcn.input_factors, m, v)
    _check_factors("output_factors", lcn.output_factors, q, v)
    return v


def _as_table(table, keys, what: str) -> dict:
    """Normalize a mapping or (nested) sequence to a dict over ``keys``."""
    if hasattr(table, "keys"):
        got = dict(table)
    elif keys and isinstance(keys[0], tuple):
        # nested sequence: row per state, entry per input
        got = {}
        for x, row in enumerate(table, start=1):
            for u, val in enumerate(row, start=1):
                got[(x, u)] = val
    else:
        got = {x: val for x, val in enumerate(table, start=1)}
    missing = [k for k in keys if k not in got]
    if missing:
        raise MissingEntryError(f"{what} table is missing entries for {missing[:8]}")
    domain = set(keys)
    extra = [k for k in got if k not in domain]
    if extra:
        raise ValueError(f"{what} table has entries outside the domain: {extra[:8]}")
    return got


def from_truth_table(n_states: int, m_inputs: int, q_outputs: int,
                     transition, output) -> Lcn:
    """Build an Lcn from total transition/output tables.

    ``transition`` maps ``(state, input) -> state`` (a dict keyed by
    pairs, or a nested sequence with one row per state); ``output`` maps
    ``state -> output`` (a dict or a sequence). Raises
    :class:`MissingEntryError` when a table is partial, and ValueError
    naming every entry out of range, one per line.
    """
    tkeys = [(x, u) for x in range(1, n_states + 1) for u in range(1, m_inputs + 1)]
    tmap = _as_table(transition, tkeys, "transition")
    omap = _as_table(output, list(range(1, n_states + 1)), "output")
    bad = [f"transition{k} = {tmap[k]} outside [1, {n_states}]"
           for k in tkeys if not 1 <= tmap[k] <= n_states]
    bad += [f"output({x}) = {omap[x]} outside [1, {q_outputs}]"
            for x in range(1, n_states + 1) if not 1 <= omap[x] <= q_outputs]
    if bad:
        raise ValueError("\n".join(bad))
    lcols = tuple(tmap[k] for k in tkeys)
    hcols = tuple(omap[x] for x in range(1, n_states + 1))
    return Lcn(n_states, m_inputs, q_outputs,
               LogicalMatrix(n_states, lcols), LogicalMatrix(q_outputs, hcols))
