"""State-feedback synthesis for observability, and the controllability verdict.

Whether any state feedback (any number of new inputs) can make an
unobservable network observable is decided by searching closed-loop
controllers only: slicing one column per block out of a general
controller yields a closed loop whose pair-graph edges are a subset of
the general feedback system's, so if some feedback works, some closed
loop works too. The closed-loop space is finite, and two controllers
inducing the same transition map are interchangeable, so the search
enumerates transition maps directly:

* every choice assigns each state a successor from the columns of its
  own transition block;
* two equal-output states must get distinct successors, otherwise their
  pair merges into the diagonal and the closed loop is unobservable --
  so choices are restricted to be injective within each output class.

The number of such choices per class (``injective_choice_count``,
counted from the members' option lists that ``_Problem`` derives once
per call) multiplies into the refined candidate bound; the unrestricted
product of block column counts is the naive bound. A class with zero injective
choices, or a structural obstruction (two equal-output states with
identical constant blocks, or a pair locked onto itself), proves that
no state feedback whatsoever can help.

Controllability is the opposite story: feedback only ever removes
transition-graph edges, so an uncontrollable network can never be made
controllable and the only verdicts are "already controllable" (which
feedback may still destroy) and "never synthesizable".
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping
from itertools import combinations
from math import prod
from types import MappingProxyType

from . import _kernel_py
from ._value import Value
from .analysis import (_check_pair_count, _output_classes, _successors, is_controllable,
                       is_observable)
from .feedback import ClosedLoopController
from .model import Lcn
from .stp import MatrixSizeError


class OutputClass(Value):
    """States sharing one output value, ascending."""

    __slots__ = ("output_index", "members")

    def __init__(self, output_index: int, members: tuple[int, ...]) -> None:
        object.__setattr__(self, "output_index", output_index)
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)


class OutputClassPartition(Value):
    """Partition of the state set by output value, classes in ascending
    output order."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[OutputClass, ...]) -> None:
        object.__setattr__(self, "classes", classes)


class Verdict(enum.Enum):
    SYNTHESIZED = "SYNTHESIZED"
    NOT_SYNTHESIZABLE = "NOT_SYNTHESIZABLE"
    DECISION_INCOMPLETE = "DECISION_INCOMPLETE"


class ControllabilityVerdict(enum.Enum):
    #: Controllable as given; note feedback can still destroy this.
    ALREADY_CONTROLLABLE = "ALREADY_CONTROLLABLE"
    #: Uncontrollable, and no state feedback of any size can help.
    NEVER_SYNTHESIZABLE = "NEVER_SYNTHESIZABLE"


class Obstruction(Value):
    """Two equal-output states whose blocks rule out synthesis outright.

    kind "constant_blocks": both blocks are the same constant map onto
    ``target`` (their pair always merges). kind "locked_pair": each
    block constantly maps onto one of the two states (their pair loops
    forever).
    """

    __slots__ = ("kind", "j", "k", "target")

    def __init__(self, kind: str, j: int, k: int, target: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "target", target)


class SynthesisReport(Value):
    __slots__ = ("verdict", "witness", "naive_bound", "refined_bound", "num_factors",
                 "candidates_checked", "pruned_by", "already_observable", "obstruction",
                 "zero_choice_class")

    def __init__(self, verdict: Verdict, witness: ClosedLoopController | None,
                 naive_bound: int, refined_bound: int, num_factors: tuple[int, ...],
                 candidates_checked: int, pruned_by: Mapping[str, int] = MappingProxyType({}),
                 already_observable: bool = False, obstruction: Obstruction | None = None,
                 zero_choice_class: int | None = None) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "naive_bound", naive_bound)
        object.__setattr__(self, "refined_bound", refined_bound)
        object.__setattr__(self, "num_factors", num_factors)
        object.__setattr__(self, "candidates_checked", candidates_checked)
        object.__setattr__(self, "pruned_by", MappingProxyType(dict(pruned_by)))
        object.__setattr__(self, "already_observable", already_observable)
        object.__setattr__(self, "obstruction", obstruction)
        object.__setattr__(self, "zero_choice_class", zero_choice_class)


def output_partition(lcn: Lcn) -> OutputClassPartition:
    return OutputClassPartition(
        tuple(OutputClass(y, tuple(members)) for y, members in _output_classes(lcn))
    )


def structural_obstruction(out, succ) -> Obstruction | None:
    """First obstruction over the equal-output state pairs (j, k), j < k, in
    lexicographic order; "constant_blocks" is checked before "locked_pair"
    for each pair. ``out`` and ``succ`` give each 0-based state's output and
    sorted distinct 0-based successors. Only pairs of two constant-block
    states can be obstructed, so only those are checked, class by class."""
    groups: dict[int, list[tuple[int, int]]] = {}  # output -> (state, target), 1-based
    for x, opts in enumerate(succ):
        if len(opts) == 1:
            groups.setdefault(out[x], []).append((x + 1, opts[0] + 1))
    firsts = [o for o in (next(_obstructions(g), None) for g in groups.values()) if o is not None]
    return min(firsts, key=lambda o: (o.j, o.k), default=None)


def _obstructions(group):
    """The obstructed pairs of one class's constant-block states, given as
    ascending (state, target) tuples, in lexicographic order."""
    for a, (j, cj) in enumerate(group):
        for k, ck in group[a + 1:]:
            if cj == ck:
                yield Obstruction("constant_blocks", j, k, cj)
            elif (cj == j and ck == k) or (cj == k and ck == j):
                yield Obstruction("locked_pair", j, k)


def injective_choice_count(options) -> int:
    """Number of ways to give one output class's members pairwise-distinct
    successors, member i drawing from its option list ``options[i]``.
    Depth-first count with a used-value set."""
    used: set[int] = set()

    def count(pos: int) -> int:
        if pos == len(options):
            return 1
        total = 0
        for v in options[pos]:
            if v in used:
                continue
            used.add(v)
            total += count(pos + 1)
            used.discard(v)
        return total

    return count(0)


class _Problem:
    """One synthesis problem, prepared once per call: the only reader of
    ``L`` and ``H`` while synthesis runs. Builds the output partition,
    refuses more than ``CELL_CAP`` equal-output pairs before anything
    else, then derives what the pre-checks and the sweep share: each
    state's sorted distinct successors ``succ``, the walk order
    ``members`` (classes in ascending output order), each member's
    ``options`` (its ``succ`` entry), the naive bound (their product)
    and the outputs ``out``, all 0-based and indexed by state as
    ``_kernel_py`` takes them.
    """

    __slots__ = ("partition", "succ", "members", "options", "naive", "out")

    def __init__(self, lcn: Lcn) -> None:
        self.partition = output_partition(lcn)
        _check_pair_count(cls.size for cls in self.partition.classes)  # before any counting
        self.succ = _successors(lcn)
        self.members = [x - 1 for cls in self.partition.classes for x in cls.members]
        self.options = [self.succ[x] for x in self.members]
        self.naive = prod(len(opts) for opts in self.options)
        self.out = lcn.H.col_indices

    def equal_output_pairs(self) -> list[tuple[int, int]]:
        """The 0-based equal-output state pairs in lexicographic order,
        the sweep's leaf check list. Built on demand: only the sweep
        reads them, and a class of n states has n(n-1)/2 of them."""
        return sorted(pair for cls in self.partition.classes
                      for pair in combinations([x - 1 for x in cls.members], 2))

    def class_counts(self) -> tuple[int, ...]:
        """The per-class injective choice counts, whose product is the
        refined bound. A class too large for the recursive count raises
        :class:`MatrixSizeError` naming it."""
        nums = []
        for i, cls in enumerate(self.partition.classes, start=1):
            try:
                nums.append(injective_choice_count([self.succ[x - 1] for x in cls.members]))
            except RecursionError:
                raise MatrixSizeError(
                    f"output class {i} of {cls.size} states is too large to count"
                ) from None
        return tuple(nums)


def candidate_bounds(lcn: Lcn) -> tuple[int, int]:
    """(naive, refined) candidate counts: product of block column counts
    versus product of per-class injective choice counts."""
    problem = _Problem(lcn)
    return problem.naive, prod(problem.class_counts())


def controller_for_map(lcn: Lcn, successors) -> ClosedLoopController:
    """Canonical closed loop realizing a transition map: per state, the
    least input producing the wanted successor."""
    m, cols = lcn.input_dim, lcn.L.col_indices
    return ClosedLoopController(
        tuple(cols.index(t, x * m, (x + 1) * m) - x * m + 1 for x, t in enumerate(successors))
    )


def enumerate_candidates(lcn: Lcn) -> Iterator[ClosedLoopController]:
    """All within-class-injective closed-loop candidates, one per distinct
    transition map, in lexicographic order of chosen successor values
    (classes in ascending output order, members ascending, values
    ascending). Yields exactly the refined bound."""
    problem = _Problem(lcn)
    for succ0 in _kernel_py.candidates(problem.members, problem.options, problem.out):
        yield controller_for_map(lcn, [s + 1 for s in succ0])


def synthesize_observability(lcn: Lcn, max_candidates: int | None = None,
                             backend: str = "auto") -> SynthesisReport:
    """Decide whether observability is enforceable by state feedback.

    Already-observable networks short-circuit to SYNTHESIZED with the
    constant-first-input controller as witness (restricting every pair
    to one input removes edges only, so it preserves observability).
    Otherwise the structural obstructions and the zero-choice class test
    run first; then candidates are swept in order until one verifies
    observable. Exhausting them proves no state feedback of any size can
    help. A candidate cap (``max_candidates``) turns exhaustion into
    DECISION_INCOMPLETE instead of guessing; a negative cap raises
    ValueError. ``backend`` names the sweep kernel and must be "auto" or
    "python", the only one there is.
    """
    if max_candidates is not None and max_candidates < 0:
        raise ValueError(f"max_candidates must be non-negative, got {max_candidates}")
    if backend not in ("auto", "python"):
        raise ValueError(f"unknown backend {backend!r}; expected auto or python")
    problem = _Problem(lcn)
    naive, nums = problem.naive, problem.class_counts()
    refined = prod(nums)

    if is_observable(lcn):
        witness = ClosedLoopController((1,) * lcn.state_dim)
        return SynthesisReport(Verdict.SYNTHESIZED, witness, naive, refined, nums,
                               candidates_checked=0, already_observable=True)

    pruned: dict[str, int] = {}
    obstruction = structural_obstruction(problem.out, problem.succ)
    if obstruction is not None:
        pruned[obstruction.kind] = 1
    zero_class = next((i + 1 for i, v in enumerate(nums) if v == 0), None)
    if zero_class is not None:
        pruned["zero_choice_class"] = 1
    if obstruction is not None or zero_class is not None:
        return SynthesisReport(Verdict.NOT_SYNTHESIZABLE, None, naive, refined, nums,
                               candidates_checked=0, pruned_by=pruned,
                               obstruction=obstruction, zero_choice_class=zero_class)

    cap = -1 if max_candidates is None else max_candidates
    status, checked, assignment = _kernel_py.sweep_first_observable(
        problem.members, problem.options, problem.out, problem.equal_output_pairs(), cap
    )
    if status == _kernel_py.FOUND:
        return SynthesisReport(Verdict.SYNTHESIZED, controller_for_map(lcn, assignment),
                               naive, refined, nums, candidates_checked=checked)
    if status == _kernel_py.CAP_REACHED:
        return SynthesisReport(Verdict.DECISION_INCOMPLETE, None, naive, refined, nums,
                               candidates_checked=checked)
    return SynthesisReport(Verdict.NOT_SYNTHESIZABLE, None, naive, refined, nums,
                           candidates_checked=checked)


def controllability_synthesis_verdict(lcn: Lcn) -> ControllabilityVerdict:
    """Feedback never adds transition edges, so there is nothing to search."""
    if is_controllable(lcn):
        return ControllabilityVerdict.ALREADY_CONTROLLABLE
    return ControllabilityVerdict.NEVER_SYNTHESIZABLE
