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

A structural obstruction (two equal-output states with identical
constant blocks, or a pair locked onto itself), or a class whose members
cannot all get distinct successors (no bipartite matching), proves that
no state feedback whatsoever can help. The verdict comes from the
open-loop observability decision (a depth-first walk of the pair graph
that stops at the first merge or cycle and builds no witness path),
these pre-checks and the sweep, in that order; the per-class counts come
last and decide nothing. The sweep ranks every candidate but verifies
fewer: a class whose members each have one option has one choice, and
a class on no cycle of the class graph (an edge c -> d when two members
of c have distinct options in d) never decides a verdict, so it stays
at its first choice, like a class of one choice, and the rank counts
its other choices as a mixed-radix number over the classes' counts.
Each class's number of injective choices (``injective_choice_count``)
multiplies into the refined candidate bound; the product of block
column counts is the naive bound. Members in different connected
components of the member-successor graph never collide, so a class
counts per component, in maximum cardinality search order, exponential
only in the largest component, under a node budget per class: past it
the count is unknown (None), and so is the refined bound. Each node of a count does constant work: the last member's number
of free options is kept up to date as values are taken and freed.

Controllability is the opposite story: feedback only ever removes
transition-graph edges, so an uncontrollable network can never be made
controllable and the only verdicts are "already controllable" (which
feedback may still destroy) and "never synthesizable".
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import prod

from . import _kernel_py
from ._kernel_py import _has_distinct_choice
from ._value import Value
# is_observable is unused here, but stays a name of this module: the
# benchmark's tracer tests (perfbench/tests) read synthesis.is_observable
from .analysis import (_check_pair_count, _least_unsafe_pair, is_controllable, is_observable,
                       output_partition)
from .feedback import ClosedLoopController
from .model import Lcn


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
    _defaults = {"target": None}


class SynthesisReport(Value):
    """A verdict and its evidence; ``num_factors`` entries are None past the count
    budget, and ``zero_choice_class`` is 1-based among classes in use, not an output index."""

    __slots__ = ("verdict", "witness", "naive_bound", "refined_bound", "num_factors",
                 "candidates_checked", "already_observable", "obstruction", "zero_choice_class")

    _defaults = {"already_observable": False, "obstruction": None, "zero_choice_class": None}

    @property
    def pruned_by(self) -> dict[str, int]:
        """The pre-checks that decided the verdict, each counted once: the
        obstruction's kind, then "zero_choice_class". A fresh dict per read."""
        pruned = {}
        if self.obstruction is not None:
            pruned[self.obstruction.kind] = 1
        if self.zero_choice_class is not None:
            pruned["zero_choice_class"] = 1
        return pruned


def structural_obstruction(members, ends, succ) -> Obstruction | None:
    """First obstruction over the equal-output state pairs (j, k), j < k, in
    lexicographic order; "constant_blocks" is checked before "locked_pair"
    for each pair. Takes :class:`_Problem`'s walk positions and reports
    1-based states. Only pairs of two constant-block states can be
    obstructed, so only those are checked, class by class."""
    groups = ([(members[p] + 1, members[succ[p][0]] + 1)  # 1-based states
               for p in range(a, b) if len(succ[p]) == 1] for a, b in zip(ends, ends[1:]))
    firsts = [o for o in (next(_obstructions(g), None) for g in groups) if o is not None]
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


def _components(options):
    """The option lists of each connected component of the bipartite
    member-value graph (two members are joined when they share a value),
    members in counting order. One maximum cardinality search (Tarjan and
    Yannakakis 1984) finds both: the next member taken offers the most
    values that taken members offer, ties to fewer options, then to the
    given order; a member that shares none starts the next component.
    Choices in different components never collide, and a member that many
    earlier members compete with has few free values left when counted."""
    offering: dict[int, list[int]] = {}  # value -> the members offering it
    for i, opts in enumerate(options):
        for v in opts:
            offering.setdefault(v, []).append(i)
    shared = [0] * len(options)  # per member, how many of its values are taken ones'
    heap = [(0, len(opts), i) for i, opts in enumerate(options)]
    heapify(heap)
    taken, blocks = set(), []
    while heap:
        key, _size, i = heappop(heap)
        if key != -shared[i]:
            continue  # stale: only a member's latest entry holds its count, and pops once
        taken.add(i)
        if not key:
            blocks.append([])
        blocks[-1].append(options[i])
        for v in options[i]:
            for j in offering.pop(v, ()):  # each value once, when first taken
                if j not in taken:
                    shared[j] += 1
                    heappush(heap, (-shared[j], len(options[j]), j))
    return blocks


#: The nodes one output class's count may visit (a node is a member that
#: takes a value, the last member of a component excepted); past it the
#: count is unknown. Counting is a 0/1 permanent, #P-complete (Valiant
#: 1979), so no budget fits every class.
COUNT_BUDGET = 1 << 23


def _distinct_choice_count(options, budget: int) -> tuple[int | None, int]:
    """(count, budget left) for the pairwise-distinct choices, or (None, 0)
    once more than ``budget`` nodes are visited. Depth first on a stack of
    option iterators, one per member, and one set of used values. The
    second-to-last member does not step into the last: each free value v
    it takes adds the last member's free options, less v if it is one.
    That number, ``free``, is kept up to date as values are taken and
    freed, so every node does constant work."""
    *walk, last = options
    if not walk:
        return len(last), budget
    last = set(last)
    top = len(walk) - 1  # the second-to-last member
    used, chosen = set(), [0] * top
    its = [iter(walk[0])] + [None] * (top - 1)
    total, pos, free = 0, 0, len(last)  # free: the last member's options not used
    while budget >= 0:
        if pos == top:
            for v in walk[top]:
                if v not in used:
                    total += free - (v in last)
                    budget -= 1
        else:
            for v in its[pos]:
                if v not in used:
                    break
            else:
                v = -1
            if v >= 0:
                budget -= 1
                used.add(v)
                if v in last:
                    free -= 1
                chosen[pos] = v
                pos += 1
                if pos < top:
                    its[pos] = iter(walk[pos])
                continue
        pos -= 1  # no free value left: step back and free the previous member's
        if pos < 0:
            break
        v = chosen[pos]
        used.discard(v)
        if v in last:
            free += 1
    return (total, budget) if budget >= 0 else (None, 0)


def injective_choice_count(options) -> int | None:
    """Number of ways to give one output class's members pairwise-distinct
    successors, member i drawing from its option list ``options[i]``.
    Zero when :func:`_has_distinct_choice` finds no way at all; otherwise
    the product, over the connected components of the member-value graph,
    of each component's count, so the work is exponential in the largest
    component rather than in the class. One maximum cardinality search
    (:func:`_components`) splits the class into components and orders each
    component's members, and each count runs in that order. The components
    share one budget of ``COUNT_BUDGET`` nodes; None when it runs out."""
    # synthesize_observability has run this matching already, for
    # zero_choice_class, and it runs again here on purpose. The count is
    # also called on its own (candidate_bounds, ``lcnsyn bounds``), and a
    # class with no injective choice must read 0 there even past the
    # budget: [range(39)] * 40 reads 0, not None. Handing the count the
    # pre-check's verdict would take a flag or a second entry point, and
    # the benchmark's tracer and the call-order test read exactly one call
    # per class.
    if not _has_distinct_choice(options):
        return 0
    total, budget = 1, COUNT_BUDGET
    for block in _components(options):
        count, budget = _distinct_choice_count(block, budget)
        if count is None:
            return None
        total *= count
    return total


class _Problem:
    """One synthesis problem, prepared once per call, and the only view of
    the outputs that synthesis passes on. Keeps the network's
    ``partition`` (:func:`output_partition`, 1-based), which the
    observability decision reads too, and refuses more than ``CELL_CAP``
    equal-output pairs before anything else. Then it numbers the states
    once, by walk position, the numbering ``_kernel_py`` takes: output
    classes in ascending output order, states ascending inside a class.
    ``members[p]`` is the 0-based state at position p, class k holds
    positions ``ends[k]`` to ``ends[k + 1] - 1``, and ``succ[p]`` lists
    position p's distinct successors as positions. They are listed in
    ascending order of the states they stand for, not of positions: the
    candidate order is lexicographic in successor states. ``options[k]``
    is class k's slice of ``succ``, which the zero-choice test and the
    counts share. Only this constructor, :func:`controller_for_map` and
    :func:`structural_obstruction` translate between states and positions.
    """

    __slots__ = ("partition", "members", "ends", "succ", "options")

    def __init__(self, lcn: Lcn) -> None:
        self.partition = part = output_partition(lcn)
        _check_pair_count(map(len, part.values()))  # before any counting
        self.members = members = [x - 1 for cls in part.values() for x in cls]
        where = [0] * len(members)  # state -> its position
        for p, x in enumerate(members):
            where[x] = p
        m, cols = lcn.input_dim, lcn.L.col_indices
        self.succ = succ = [[where[t - 1] for t in sorted(set(cols[x * m:(x + 1) * m]))]
                            for x in members]
        self.ends = ends = [0, *accumulate(map(len, part.values()))]
        self.options = [succ[a:b] for a, b in zip(ends, ends[1:])]

    def bounds(self) -> tuple[int, int | None, tuple[int | None, ...]]:
        """(naive, refined, per-class counts): the naive bound is the
        product of the members' option counts, the refined bound that of
        the injective choice counts, one per class. A count over its budget
        is None, and so is the refined bound, unless another class counts 0."""
        nums = tuple(map(injective_choice_count, self.options))
        known = [n for n in nums if n is not None]
        refined = prod(known) if len(known) == len(nums) or 0 in known else None
        return prod(map(len, self.succ)), refined, nums


def candidate_bounds(lcn: Lcn) -> tuple[int, int | None]:
    """(naive, refined) candidate counts: product of block column counts
    versus product of per-class injective choice counts; the refined one
    is None when a class's count runs over its budget."""
    naive, refined, _nums = _Problem(lcn).bounds()
    return naive, refined


def controller_for_map(lcn: Lcn, members, succ0) -> ClosedLoopController:
    """Canonical closed loop realizing a transition map given in walk
    positions (``succ0[p]`` is position p's successor, and position p
    holds state ``members[p]``): per state, the least (1-based) input
    producing the wanted successor."""
    m, cols = lcn.input_dim, lcn.L.col_indices
    inputs = [0] * len(members)
    for x, t in zip(members, succ0):
        inputs[x] = cols.index(members[t] + 1, x * m, (x + 1) * m) - x * m + 1
    return ClosedLoopController(tuple(inputs))


def enumerate_candidates(lcn: Lcn) -> Iterator[ClosedLoopController]:
    """All within-class-injective closed-loop candidates, one per distinct
    transition map, in lexicographic order of chosen successor values
    (classes in ascending output order, members ascending, values
    ascending). Yields exactly the refined bound."""
    problem = _Problem(lcn)
    for succ0 in _kernel_py.candidates(problem.succ, problem.ends):
        yield controller_for_map(lcn, problem.members, succ0)


#: The verdict of each sweep outcome.
_SWEEP_VERDICTS = {_kernel_py.FOUND: Verdict.SYNTHESIZED,
                   _kernel_py.EXHAUSTED: Verdict.NOT_SYNTHESIZABLE,
                   _kernel_py.CAP_REACHED: Verdict.DECISION_INCOMPLETE}


def synthesize_observability(lcn: Lcn, max_candidates: int | None = None,
                             backend: str = "auto") -> SynthesisReport:
    """Decide whether observability is enforceable by state feedback.

    Already-observable networks short-circuit to SYNTHESIZED with the
    constant-first-input controller as witness (restricting every pair
    to one input removes edges only, so it preserves observability).
    That check is ``analysis._least_unsafe_pair``'s verdict alone: an
    unobservable network needs no witness path here.
    Otherwise the structural obstruction, then a matching per class (the
    zero-choice test), then a sweep of the candidates in order until one
    verifies observable; exhausting them proves no state feedback of any
    size can help. The counts come last, for every outcome.
    ``candidates_checked`` is the number of candidates in sweep order up
    to and including the witness, or all of them; it is not the number of
    closed loops verified. An output class on no cycle of the class graph
    (``_kernel_py._held``; a class of one state is one) never decides a
    verdict: the sweep verifies its first choice only, and reads the rank
    off the classes' numbers of choices as a mixed-radix number, so it
    counts the candidates with the others, which share those verdicts.
    The sweep learns those numbers itself and never calls
    ``injective_choice_count``. A candidate cap
    (``max_candidates``) turns exhaustion into DECISION_INCOMPLETE
    instead of guessing, with ``candidates_checked`` equal to the cap,
    and bounds the closed loops verified; a cap that is not an int (a
    bool included) raises TypeError, a negative one ValueError, both
    before any work.
    ``backend`` names the sweep kernel: "auto" or "python", the only one.
    """
    if max_candidates is not None:
        if isinstance(max_candidates, bool) or not isinstance(max_candidates, int):
            raise TypeError(f"max_candidates must be an int or None, got {max_candidates!r}")
        if max_candidates < 0:
            raise ValueError(f"max_candidates must be non-negative, got {max_candidates}")
    if backend not in ("auto", "python"):
        raise ValueError(f"unknown backend {backend!r}; expected auto or python")
    problem = _Problem(lcn)
    def report(verdict, witness=None, checked=0, **pruned) -> SynthesisReport:
        return SynthesisReport(verdict, witness, *problem.bounds(),
                               candidates_checked=checked, **pruned)

    if _least_unsafe_pair(lcn, problem.partition)[0] is None:
        witness = ClosedLoopController((1,) * lcn.state_dim)
        return report(Verdict.SYNTHESIZED, witness, already_observable=True)

    obstruction = structural_obstruction(problem.members, problem.ends, problem.succ)
    zero_class = next((i + 1 for i, options in enumerate(problem.options)
                       if not _has_distinct_choice(options)), None)
    if obstruction is not None or zero_class is not None:
        return report(Verdict.NOT_SYNTHESIZABLE, obstruction=obstruction,
                      zero_choice_class=zero_class)

    cap = -1 if max_candidates is None else max_candidates
    status, checked, succ0 = _kernel_py.sweep_first_observable(problem.succ, problem.ends, cap)
    witness = None if succ0 is None else controller_for_map(lcn, problem.members, succ0)
    return report(_SWEEP_VERDICTS[status], witness, checked)


def controllability_synthesis_verdict(lcn: Lcn) -> ControllabilityVerdict:
    """Feedback never adds transition edges, so there is nothing to search."""
    if is_controllable(lcn):
        return ControllabilityVerdict.ALREADY_CONTROLLABLE
    return ControllabilityVerdict.NEVER_SYNTHESIZABLE
