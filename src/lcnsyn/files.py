"""Network and controller files (JSON).

A network file is a JSON object with integer dimensions ``N``, ``M``,
``Q``, optional factor lists ``state_factors`` / ``input_factors`` /
``output_factors``, and exactly one of:

* ``L`` -- N*M transition indices, state-major (the delta-notation
  column list of the transition structure matrix), or
* ``truth_table`` -- ``{"transition": [[...], ...], "output": [...]}``
  with one transition row per state and one entry per input.

``H`` (N output indices) is optional; omitting it means full state
observation and requires ``Q == N``. All indices are 1-based.

A controller file holds either ``g`` (N input indices, closed-loop) or
``P`` with ``G`` (N*P indices, state-major blocks).
"""

from __future__ import annotations

import json
from pathlib import Path

from .feedback import ClosedLoopController
from .model import MISSING_H, Lcn, StateFeedback, from_truth_table, validate
from .stp import LogicalMatrix, logical_identity


class FileFormatError(ValueError):
    """Input file is malformed; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _require_int(doc, key: str, violations: list[str]) -> int | None:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        violations.append(f"{key} must be an integer, got {v!r}")
        return None
    return v


def _is_int_list(v) -> bool:
    """Whether ``v`` is a list of integers, bools excluded. Each entry's
    type is read once; only the distinct types are then checked."""
    return isinstance(v, list) and all(issubclass(t, int) and t is not bool
                                       for t in set(map(type, v)))


def _opt_int_list(doc, key: str, violations: list[str]):
    v = doc.get(key)
    if v is None:
        return None
    if not _is_int_list(v):
        violations.append(f"{key} must be a list of integers")
        return None
    return tuple(v)


def network_from_dict(doc: dict) -> Lcn:
    if not isinstance(doc, dict):
        raise FileFormatError(["network file must hold a JSON object"])
    violations: list[str] = []
    n = _require_int(doc, "N", violations)
    m = _require_int(doc, "M", violations)
    q = _require_int(doc, "Q", violations)
    factors = {
        key: _opt_int_list(doc, key, violations)
        for key in ("state_factors", "input_factors", "output_factors")
    }
    lcols = _opt_int_list(doc, "L", violations)
    hcols = _opt_int_list(doc, "H", violations)
    table = doc.get("truth_table")
    if violations:
        raise FileFormatError(violations)
    if (lcols is None) == (table is None):
        raise FileFormatError(["exactly one of L and truth_table must be present"])
    if n < 1 or m < 1 or q < 1:
        raise FileFormatError([f"dimensions must be positive, got N={n} M={m} Q={q}"])

    if table is not None:
        if not isinstance(table, dict) or "transition" not in table or "output" not in table:
            raise FileFormatError(["truth_table must hold transition and output tables"])
        rows, outs = table["transition"], table["output"]
        if not isinstance(rows, list) or not all(_is_int_list(r) for r in rows):
            raise FileFormatError(["truth_table transition must be a list of integer lists"])
        if not _is_int_list(outs):
            raise FileFormatError(["truth_table output must be a list of integers"])
        if len(rows) != n or any(len(r) != m for r in rows) or len(outs) != n:
            raise FileFormatError(
                [f"truth_table needs {n} transition rows of {m} entries and {n} outputs"]
            )
        try:
            lcn = from_truth_table(n, m, q, rows, outs)
        except ValueError as exc:  # indices out of range, one per line
            raise FileFormatError(str(exc).splitlines()) from exc
        if hcols is not None:
            raise FileFormatError(["truth_table already defines the output map; drop H"])
        lmat, hmat = lcn.L, lcn.H
    else:
        if hcols is None and q != n:
            raise FileFormatError(
                [f"H omitted (identity output) requires Q == N, got Q={q} N={n}"]
            )
        # an omitted H is the identity: valid, and O(N) to build, so it is
        # built only once validation has checked L against the declared N
        lmat, hmat = LogicalMatrix(n, lcols), None if hcols is None else LogicalMatrix(q, hcols)
    factor_args = (factors["state_factors"], factors["input_factors"], factors["output_factors"])
    lcn = Lcn(n, m, q, lmat, hmat, *factor_args)
    violations = validate(lcn)
    if hmat is None:  # the identity stands in for it; see above
        violations.remove(MISSING_H)
    if violations:
        raise FileFormatError(violations)
    if hmat is None:
        return Lcn(n, m, q, lmat, logical_identity(n), *factor_args)
    return lcn


def network_to_dict(lcn: Lcn) -> dict:
    doc: dict = {
        "N": lcn.state_dim,
        "M": lcn.input_dim,
        "Q": lcn.output_dim,
        "L": list(lcn.L.col_indices),
        "H": list(lcn.H.col_indices),
    }
    for key, val in (
        ("state_factors", lcn.state_factors),
        ("input_factors", lcn.input_factors),
        ("output_factors", lcn.output_factors),
    ):
        if val is not None:
            doc[key] = list(val)
    return doc


def controller_from_dict(doc: dict, input_dim: int) -> StateFeedback | ClosedLoopController:
    """Build a controller for a network with ``input_dim`` inputs.

    The file itself carries no input dimension; it binds to the network
    the controller is applied to.
    """
    if not isinstance(doc, dict):
        raise FileFormatError(["controller file must hold a JSON object"])
    violations: list[str] = []
    g = _opt_int_list(doc, "g", violations)
    gmat = _opt_int_list(doc, "G", violations)
    if violations:
        raise FileFormatError(violations)
    if (g is None) == (gmat is None):
        raise FileFormatError(["exactly one of g and {P, G} must be present"])
    if g is not None:
        if not g:
            raise FileFormatError(["g must be nonempty"])
        if not all(1 <= v <= input_dim for v in g):
            raise FileFormatError([f"g indices must lie in [1, {input_dim}]"])
        return ClosedLoopController(g)
    p = _require_int(doc, "P", violations)
    if violations:
        raise FileFormatError(violations)
    if p < 1:
        raise FileFormatError([f"P must be positive, got {p}"])
    if len(gmat) % p != 0:
        raise FileFormatError([f"G length {len(gmat)} is not a multiple of P={p}"])
    if not all(1 <= v <= input_dim for v in gmat):
        raise FileFormatError([f"G indices must lie in [1, {input_dim}]"])
    return StateFeedback(len(gmat) // p, input_dim, p, LogicalMatrix(input_dim, gmat))


def controller_to_dict(ctrl: StateFeedback | ClosedLoopController) -> dict:
    if isinstance(ctrl, ClosedLoopController):
        return {"g": list(ctrl.g)}
    return {"P": ctrl.new_input_dim, "G": list(ctrl.G.col_indices)}


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileFormatError([f"cannot read {path}: {exc}"]) from exc
    # bad syntax or encoding, an integer past the digit limit, too deep nesting
    except (ValueError, RecursionError) as exc:
        raise FileFormatError([f"{path} is not valid JSON: {exc}"]) from exc


def load_network(path) -> Lcn:
    return network_from_dict(_load_json(path))


def save_network(lcn: Lcn, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(lcn), indent=2) + "\n")


def load_controller(path, input_dim: int) -> StateFeedback | ClosedLoopController:
    return controller_from_dict(_load_json(path), input_dim)


def save_controller(ctrl: StateFeedback | ClosedLoopController, path) -> None:
    Path(path).write_text(json.dumps(controller_to_dict(ctrl), indent=2) + "\n")
