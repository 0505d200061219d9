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
last and decide nothing. Each class's number of injective choices
(``injective_choice_count``) multiplies into the refined candidate
bound; the product of block column counts is the naive bound. Members in
different connected components of the member-successor graph never
collide, so a class counts per component, in maximum cardinality search
order, exponential only in the largest component, under a node budget
per class: past it the count is unknown (None), and so is the refined
bound. Each node of a count does constant work: the last member's number
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
from math import prod

from . import _kernel_py
from ._value import Value
# is_observable is unused here, but stays a name of this module: the
# benchmark's tracer tests (perfbench/tests) read synthesis.is_observable
from .analysis import (_check_pair_count, _least_unsafe_pair, _successors, is_controllable,
                       is_observable, output_partition)
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


def structural_obstruction(classes, succ) -> Obstruction | None:
    """First obstruction over the equal-output state pairs (j, k), j < k, in
    lexicographic order; "constant_blocks" is checked before "locked_pair"
    for each pair. ``classes`` lists each output class's ascending 0-based
    states, and ``succ`` each state's sorted distinct 0-based successors.
    Only pairs of two constant-block states can be obstructed, so only
    those are checked, class by class."""
    groups = ([(x + 1, succ[x][0] + 1) for x in cls if len(succ[x]) == 1]  # 1-based
              for cls in classes)
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


def _has_distinct_choice(options) -> bool:
    """Whether the members can get pairwise-distinct successors at all: a
    system of distinct representatives (Hall 1935). Matches each member
    in turn along an augmenting path, searched with an explicit stack."""
    holder, chosen = {}, []  # value -> its member, member -> its value
    for root in range(len(options)):
        reached_from, stack, free = {}, [root], None  # value -> member that reached it
        while stack and free is None:
            i = stack.pop()
            for v in options[i]:
                if v not in reached_from:
                    reached_from[v] = i
                    if v not in holder:
                        free = v
                        break
                    stack.append(holder[v])
        if free is None:
            return False
        chosen.append(None)
        while free is not None:  # each member on the path takes the value it reached
            i = reached_from[free]
            holder[free] = i
            chosen[i], free = free, chosen[i]
    return True


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
    observability decision reads too, and lists each output class's
    ascending states as ``classes`` (classes in ascending output order).
    Refuses more than ``CELL_CAP`` equal-output pairs before anything
    else, then derives each state's sorted distinct successors ``succ``,
    which the pre-checks and the sweep share, and each class's member
    option lists ``options``, which the zero-choice test and the counts
    share. ``classes`` and ``succ`` are 0-based, as ``_kernel_py`` takes
    them: the sweep reads the outputs only through ``classes``.
    """

    __slots__ = ("partition", "classes", "succ", "options")

    def __init__(self, lcn: Lcn) -> None:
        self.partition = output_partition(lcn)
        self.classes = [[x - 1 for x in members] for members in self.partition.values()]
        _check_pair_count(map(len, self.classes))  # before any counting
        self.succ = succ = _successors(lcn)
        self.options = [[succ[x] for x in cls] for cls in self.classes]

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


def controller_for_map(lcn: Lcn, succ0) -> ClosedLoopController:
    """Canonical closed loop realizing a 0-based transition map: per
    state, the least (1-based) input producing the wanted successor."""
    m, cols = lcn.input_dim, lcn.L.col_indices
    return ClosedLoopController(
        tuple(cols.index(t + 1, x * m, (x + 1) * m) - x * m + 1 for x, t in enumerate(succ0))
    )


def enumerate_candidates(lcn: Lcn) -> Iterator[ClosedLoopController]:
    """All within-class-injective closed-loop candidates, one per distinct
    transition map, in lexicographic order of chosen successor values
    (classes in ascending output order, members ascending, values
    ascending). Yields exactly the refined bound."""
    problem = _Problem(lcn)
    for succ0 in _kernel_py.candidates(problem.classes, problem.succ):
        yield controller_for_map(lcn, succ0)


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
    size can help. The counts come last, for every outcome. A candidate
    cap (``max_candidates``) turns exhaustion into DECISION_INCOMPLETE
    instead of guessing; a cap that is not an int (a bool included)
    raises TypeError, a negative one ValueError, both before any work.
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

    obstruction = structural_obstruction(problem.classes, problem.succ)
    zero_class = next((i + 1 for i, options in enumerate(problem.options)
                       if not _has_distinct_choice(options)), None)
    if obstruction is not None or zero_class is not None:
        return report(Verdict.NOT_SYNTHESIZABLE, obstruction=obstruction,
                      zero_choice_class=zero_class)

    cap = -1 if max_candidates is None else max_candidates
    status, checked, succ0 = _kernel_py.sweep_first_observable(problem.classes, problem.succ, cap)
    witness = None if succ0 is None else controller_for_map(lcn, succ0)
    return report(_SWEEP_VERDICTS[status], witness, checked)


def controllability_synthesis_verdict(lcn: Lcn) -> ControllabilityVerdict:
    """Feedback never adds transition edges, so there is nothing to search."""
    if is_controllable(lcn):
        return ControllabilityVerdict.ALREADY_CONTROLLABLE
    return ControllabilityVerdict.NEVER_SYNTHESIZABLE
