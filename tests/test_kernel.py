"""The sweep kernel: the candidate walk, the leaf check and the sweeps.

The kernel is checked against independent references: a brute-force
product, the per-position walk that its odometer replaced, the public
enumeration and the pair graph analysis.
"""

import importlib
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import prod

import pytest

import nets
from conftest import random_lcn
from oracles import oracle_observable, reach_sets
from sweeps import (closed_loop_observable, equal_output_pairs, in_states, reference_candidates,
                    reference_sweep, scan_unsafe_pair, sweep_count_observable)

from lcnsyn import (
    Lcn,
    LogicalMatrix,
    apply_feedback,
    candidate_bounds,
    enumerate_candidates,
    is_observable,
    output_partition,
    synthesize_observability,
)
from lcnsyn import _kernel_py, analysis, kernel
from lcnsyn.synthesis import _Problem, injective_choice_count


@pytest.fixture(params=kernel.available_backends())
def backend(request):
    """The sweep kernel behind each backend name ``synthesize_observability``
    accepts."""
    return {"python": _kernel_py}[request.param]


def sweep_arguments(lcn):
    """The sweep's arguments, as synthesis prepares them: each walk
    position's options and where each class's positions end."""
    problem = _Problem(lcn)
    return problem.succ, problem.ends


def state_arguments(lcn):
    """The state-numbered references' arguments, read off the network:
    each output class's ascending 0-based states and each state's
    options. The references that need outputs take ``lcn.H.col_indices``
    besides."""
    classes = [[x - 1 for x in cls] for cls in output_partition(lcn).values()]
    return classes, analysis._successors(lcn)


def kernel_in_states(lcn):
    """The kernel's candidates and capped sweeps on ``lcn``, translated
    to state numbering through the prepared problem's ``members``:
    ``(candidates, sweep)``, where ``sweep(cap)`` is
    ``sweep_first_observable``'s result with its witness in states."""
    problem = _Problem(lcn)
    args, members = (problem.succ, problem.ends), problem.members

    def sweep(cap):
        status, checked, found = _kernel_py.sweep_first_observable(*args, cap)
        return status, checked, None if found is None else tuple(in_states(members, found))

    return [in_states(members, succ0) for succ0 in _kernel_py.candidates(*args)], sweep


def closed_loop_arrays(lcn):
    succ = [lcn.step(x, 1) for x in range(1, lcn.state_dim + 1)]
    out = [lcn.output(x) for x in range(1, lcn.state_dim + 1)]
    return succ, out


def product_order(classes, succ, out):
    """Brute-force candidate order: every per-position option tuple in
    lexicographic order, classes one after another, kept when no two
    equal-output states share a successor."""
    pairs = equal_output_pairs(out)
    members = [x for cls in classes for x in cls]
    for values in product(*(succ[x] for x in members)):
        succ0 = [0] * len(members)
        for x, v in zip(members, values):
            succ0[x] = v
        if all(succ0[i] != succ0[j] for i, j in pairs):
            yield succ0


def indistinguishable_pairs(closed):
    """State pairs of a closed loop whose output sequences agree forever;
    agreeing for N*N steps is enough, as the pair's walk repeats by then."""
    n = closed.state_dim
    found = set()
    for pair in combinations(range(1, n + 1), 2):
        a, b = pair
        for _ in range(n * n):
            if closed.output(a) != closed.output(b):
                break
            a, b = closed.step(a, 1), closed.step(b, 1)
        else:
            found.add(pair)
    return found


class TestClosedLoopObservable:
    def test_reference_closed_loops(self, backend):
        for lcn, expected in (
            (nets.BIG84_CL_ONES, False),
            (nets.BIG84_CL_MIX, True),
            (nets.TRI32_CL, False),
        ):
            succ, out = closed_loop_arrays(lcn)
            assert closed_loop_observable(succ, out, backend) is expected

    def test_matches_graph_analysis_on_random_closed_loops(self, backend, rng):
        for _ in range(300):
            lcn = random_lcn(rng, n_max=6, m_max=1, q_max=3)
            succ, out = closed_loop_arrays(lcn)
            assert closed_loop_observable(succ, out, backend) == is_observable(lcn).observable

    def test_large_state_space_matches_graph_analysis(self, rng):
        # the only closed loops here whose pair walks run long
        n, q = 200, 3
        for _ in range(5):
            succ = [rng.randint(1, n) for _ in range(n)]
            out = [rng.randint(1, q) for _ in range(n)]
            lcn = Lcn(n, 1, q, LogicalMatrix(n, tuple(succ)), LogicalMatrix(q, tuple(out)))
            assert closed_loop_observable(succ, out) == is_observable(lcn).observable


def random_closed_loop(rng):
    """0-based successors and outputs of a closed loop with N 1-10 and Q 1-3;
    half of them permutations, which are observable far more often."""
    n, q = rng.randint(1, 10), rng.randint(1, 3)
    if rng.random() < 0.5:
        succ0 = rng.sample(range(n), n)
    else:
        succ0 = [rng.randrange(n) for _ in range(n)]
    return succ0, [rng.randint(1, q) for _ in range(n)]


class TestLeafCheck:
    """``_unsafe_pair`` against the pair-list scan it replaced, whose
    result it must repeat pair for pair, since that pair is the next
    leaf's hint."""

    def test_matches_the_pair_scan_and_the_oracle_on_random_closed_loops(self, rng):
        observable = 0
        for _ in range(20_000):
            succ0, out = random_closed_loop(rng)
            n, q = len(out), max(out)
            lcn = Lcn(n, 1, q, LogicalMatrix(n, tuple(s + 1 for s in succ0)),
                      LogicalMatrix(q, tuple(out)))
            pairs = equal_output_pairs(out)
            k = scan_unsafe_pair(succ0, out, pairs, 0)
            least = pairs[k] if k >= 0 else None
            assert _kernel_py._least_equivalent_pair(succ0, out) == least
            assert _kernel_py._unsafe_pair(succ0, out, None) == least
            if pairs:
                hint = rng.randrange(len(pairs))
                k = scan_unsafe_pair(succ0, out, pairs, hint)
                assert _kernel_py._unsafe_pair(succ0, out, pairs[hint]) == (
                    pairs[k] if k >= 0 else None)
            assert (least is None) == oracle_observable(lcn)
            observable += least is None
        assert 2_000 < observable < 18_000  # both verdicts are well exercised

    def test_memory_is_linear_in_the_states(self):
        # an observable ring of N = 2 000 states, Q = 2: 999 000 equal-output
        # pairs, whose list alone would take tens of MB
        n = 2000
        succ0 = [(x + 1) % n for x in range(n)]
        out = [1] * (n // 2) + [2] * (n // 2)
        tracemalloc.start()
        try:
            for hint in (None, (0, 1)):  # the hint walks 999 steps before it is safe
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert _kernel_py._unsafe_pair(succ0, out, hint) is None
                assert tracemalloc.get_traced_memory()[1] - base < 1 << 20
        finally:
            tracemalloc.stop()


def _net(lcols, hcols, m):
    """A network from its successor list (state-major, ``m`` per state)
    and its output list."""
    return Lcn(len(hcols), m, max(hcols), LogicalMatrix(len(hcols), lcols),
               LogicalMatrix(max(hcols), hcols))


# the shapes an iterator stack can get wrong, beside random networks
WALK_EDGE_SHAPES = (
    _net((1,), (1,), 1),                                  # N = 1
    _net((1, 1), (1,), 2),                                # N = 1, one option from two inputs
    _net((2, 3, 4, 1), (1, 1, 2, 2), 1),                  # one option each, one candidate
    _net((2, 2, 4, 1), (1, 1, 2, 2), 1),                  # one option each, a collision
    _net((1, 2, 1, 2, 1, 2), (1, 1, 1), 2),               # the last member's options all taken
    _net((1, 2, 2, 3, 1, 1), (1, 1, 1), 2),               # ... taken in some branches only
    _net((1, 2, 1, 2, 3, 3, 3, 3), (1, 1, 2, 2), 2),      # zero-choice second class
    _net((3, 4, 1, 2, 1, 2, 2, 2, 2, 2), (1, 2, 1, 2, 2), 2),  # ... with interleaved outputs
    _net((1, 2) * 4, (1, 1, 2, 2), 2),                    # two classes, the same options
    _net((1, 2, 3) * 6, (1, 2, 3, 1, 2, 3), 3),           # three, interleaved, the same options
    _net((1, 2, 3) * 5, (1, 1, 1, 2, 2), 3),              # classes of three and two, the same
)


class TestCandidateWalk:
    def test_matches_brute_force_product_order(self, rng):
        for lcn in WALK_EDGE_SHAPES + tuple(random_lcn(rng, n_max=5, m_max=3, q_max=2)
                                            for _ in range(60)):
            classes, succ = state_arguments(lcn)
            walked, _sweep = kernel_in_states(lcn)
            assert walked == list(product_order(classes, succ, lcn.H.col_indices))

    def test_big_network_leaf_count(self):
        assert sum(1 for _ in _kernel_py.candidates(*sweep_arguments(nets.BIG84))) == 7038

    def test_zero_choice_class_yields_nothing(self):
        assert list(_kernel_py.candidates(*sweep_arguments(nets.SINK42_OUT2))) == []

    # a bound of 3 cells keeps at most three cells over all classes, three
    # one-state choices say, so most classes walk their positions on every entry
    @pytest.mark.parametrize("bound", [_kernel_py.CELL_CAP, 3])
    def test_matches_the_per_position_walk(self, monkeypatch, rng, bound):
        # the odometer against the walk it replaced: the same candidates in
        # the same order, and the same sweep result at caps around the end.
        # The kernel labels outputs by class index; the reference reads the
        # outputs themselves, and the same ones relabelled y -> 3y - 1, which
        # are neither dense nor 1-based
        monkeypatch.setattr(_kernel_py, "CELL_CAP", bound)
        shapes = Counter()
        draws = []
        for i in range(1_000):
            n = rng.randint(1, 7)
            draws += [random_lcn(rng, n_max=6, m_max=3, q_max=4),
                      nets.random_network(i, n, rng.randint(1, 3), rng.randint(1, n))]
        for lcn in draws + list(nets.ALL_REFERENCE_NETS):
            classes, succ = state_arguments(lcn)
            out = lcn.H.col_indices
            relabelled = [3 * y - 1 for y in out]
            counts = [injective_choice_count([succ[x] for x in cls]) for cls in classes]
            shapes.update({"one class": len(classes) == 1, "many classes": len(classes) >= 3,
                           "single-member class": min(map(len, classes)) == 1,
                           "zero-choice class": 0 in counts,
                           "streaming class": any(c * len(cls) > bound
                                                  for c, cls in zip(counts, classes))})
            walked, sweep = kernel_in_states(lcn)
            assert walked == [list(succ0) for succ0 in reference_candidates(classes, succ)]
            checked = reference_sweep(classes, succ, out)[1]
            for cap in (-1, 0, 1, checked - 1, checked):
                assert sweep(cap) == reference_sweep(classes, succ, out, cap) == \
                    reference_sweep(classes, succ, relabelled, cap)
        for shape in ("one class", "many classes", "single-member class", "zero-choice class"):
            assert shapes[shape] >= 200, shapes
        if bound == 3:
            assert shapes["streaming class"] >= 200, shapes

    @pytest.mark.parametrize("bound", [_kernel_py.CELL_CAP, 3])
    def test_the_dead_end_rule_skips_only_leafless_subtrees(self, monkeypatch, bound):
        # classes of 6-10 states with at most two options each: many have
        # few choices or none, so their walks pass the dead-end count and
        # the matching steps back over prefixes. The candidates, their
        # order and the sweep's results stay the per-position walk's
        monkeypatch.setattr(_kernel_py, "CELL_CAP", bound)
        calls = 0
        matching = _kernel_py._has_distinct_choice

        def counted(options):
            nonlocal calls
            calls += 1
            return matching(options)

        monkeypatch.setattr(_kernel_py, "_has_distinct_choice", counted)
        stepped = 0
        for i in range(1_500):
            lcn = nets.random_network(i, 6 + i % 5, 2, 1 + i // 5 % 2)
            classes, succ = state_arguments(lcn)
            out = lcn.H.col_indices
            before = calls
            walked, sweep = kernel_in_states(lcn)
            stepped += calls > before
            assert walked == [list(succ0) for succ0 in reference_candidates(classes, succ)]
            checked = len(walked)
            for cap in (-1, 0, 1, checked - 1, checked):
                assert sweep(cap) == reference_sweep(classes, succ, out, cap)
        assert stepped >= 200, stepped

    def test_a_class_past_the_cache_bound_streams(self, monkeypatch):
        # one class of 7 states, each offered all 7: 5 040 choices of 7 cells.
        # One output makes every closed loop unobservable, so a capped sweep
        # takes the first choices in order. Past 100 kept choices the class
        # drops them and streams, and a longer sweep needs no more memory
        monkeypatch.setattr(_kernel_py, "CELL_CAP", 7 * 100)
        n = 7
        args = sweep_arguments(Lcn(n, n, 1, LogicalMatrix(n, tuple(range(1, n + 1)) * n),
                                   LogicalMatrix(1, (1,) * n)))
        peaks = []
        tracemalloc.start()
        try:
            for cap in (500, 5_000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert _kernel_py.sweep_first_observable(*args, cap) == \
                    (_kernel_py.CAP_REACHED, cap, None)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        # keeping the 4 500 further choices would cost over 400 KB
        assert peaks[1] - peaks[0] < 32 << 10


class TestSweep:
    def test_sweep_order_matches_public_enumeration(self, backend, rng):
        # the sweep's leaf order is the documented candidate order. On the
        # larger networks some unobservable leaf shares no indistinguishable
        # pair with the unobservable leaf before it, so a leaf check that
        # starts from the previous leaf's doomed pair starts wrong there
        switches = 0
        for lcn in [random_lcn(rng) for _ in range(30)] + [random_lcn(rng, 6, 4, 3)
                                                           for _ in range(30)]:
            args, members = sweep_arguments(lcn), _Problem(lcn).members
            closed = [apply_feedback(lcn, c) for c in enumerate_candidates(lcn)]
            doomed = [indistinguishable_pairs(fed) for fed in closed]
            switches += sum(1 for a, b in zip(doomed, doomed[1:]) if a and b and not a & b)
            maps = [fed.L.col_indices for fed in closed]
            hits = [fed.L.col_indices for fed in closed if is_observable(fed).observable]
            status, checked, found = backend.sweep_first_observable(*args, -1)
            if hits:
                assert status == backend.FOUND
                assert tuple(s + 1 for s in in_states(members, found)) == hits[0]
                assert checked == maps.index(hits[0]) + 1
            else:
                assert status == backend.EXHAUSTED
                assert checked == len(maps)
            assert sweep_count_observable(*args, backend) == (len(maps), len(hits))
        assert switches >= 1

    @pytest.mark.parametrize("cap", [0, 1, 2, 5, 828])
    def test_cap_below_witness_rank(self, backend, cap):
        args = sweep_arguments(nets.BIG84)
        assert backend.sweep_first_observable(*args, cap) == (backend.CAP_REACHED, cap, None)

    def test_cap_at_witness_rank_finds_it(self, backend):
        args = sweep_arguments(nets.BIG84)
        status, checked, found = backend.sweep_first_observable(*args, 829)
        assert (status, checked) == (backend.FOUND, 829)
        assert backend.sweep_first_observable(*args, -1) == (status, checked, found)

    def test_big_network_full_count(self, backend):
        total, _good = sweep_count_observable(*sweep_arguments(nets.BIG84), backend)
        assert total == candidate_bounds(nets.BIG84)[1]


def count_leaf_checks(monkeypatch):
    """Wrap ``_kernel_py._unsafe_pair`` to count its calls; returns a
    one-element list that holds the count."""
    calls = [0]
    check = _kernel_py._unsafe_pair

    def counted(succ0, out, hint):
        calls[0] += 1
        return check(succ0, out, hint)

    monkeypatch.setattr(_kernel_py, "_unsafe_pair", counted)
    return calls


def looped_classes(classes, succ):
    """Per class (0-based states), whether it lies on a cycle of the class
    graph, read off the definition: an edge c -> d when two members of c
    have options u != v that both lie in d, and a cycle when c reaches
    itself along one edge or more (``oracles.reach_sets``)."""
    where = {x: c for c, cls in enumerate(classes) for x in cls}
    graph = [sorted({where[u] for i in cls for j in cls if i != j
                     for u in succ[i] for v in succ[j] if u != v and where[u] == where[v]})
             for cls in classes]
    reach = reach_sets(graph)
    return [any(c in reach[d] for d in graph[c]) for c in range(len(classes))]


def held_class_network(rng, i):
    """A seeded network for the held-class sweeps: ``nets.random_network``
    with at least half as many outputs as states, so that many classes
    are small and lie on no cycle of the class graph. Every other draw
    gets states 1 and 2 locked onto each other in one class, so that its
    sweep runs to the end. In two draws of three, the members of one
    class, every other time the last one, get constant blocks onto
    distinct states: a class of one choice. Past three states, those
    locked draws then put states 1 and 2 in the first class and states
    N - 1 and N in the last or a middle one, each pair offered only its
    own two states: two classes on cycles, which the sweep steps when
    there are two inputs or more, with the classes between them held."""
    n, m = rng.randint(3, 9), rng.randint(1, 3)
    lcn = nets.random_network(i, n, m, rng.randint(n // 2 + 1, n))
    lcols, hcols = list(lcn.L.col_indices), list(lcn.H.col_indices)
    if i % 2:
        lcols[:2 * m] = (2,) * m + (1,) * m
        hcols[1] = hcols[0]
    if i % 3:
        y = max(hcols) if i % 3 == 1 else rng.choice(hcols)
        members = [x for x, h in enumerate(hcols) if h == y]
        for x, t in zip(members, rng.sample(range(1, n + 1), len(members))):
            lcols[x * m:(x + 1) * m] = (t,) * m
    if i % 2 and n > 3:
        low, high = min(hcols), max(hcols) if i % 4 == 3 else sorted(hcols)[(n + 1) // 2]
        for x, partner, h in ((1, 2, low), (2, 1, low), (n - 1, n, high), (n, n - 1, high)):
            lcols[(x - 1) * m:x * m] = [(x, partner)[j % 2] for j in range(m)]
            hcols[x - 1] = h
    return _net(tuple(lcols), tuple(hcols), m)


class TestHeldClasses:
    """The sweep writes each class whose members have one option each
    into the candidate once, and holds each class on no cycle of the
    class graph at its first choice: no cycle of equal-output pairs reads
    its successors, so its other choices are counted into ``checked``,
    never checked as leaves. A class of one state has no edge, and is
    held too."""

    @pytest.mark.parametrize("bound", [_kernel_py.CELL_CAP, 3])
    def test_matches_the_reference_sweep(self, monkeypatch, rng, bound):
        # the reference evaluates every candidate up to the witness; the
        # kernel must return the same status, rank and witness at caps
        # around the end, at the real cache bound and at one that makes
        # most multi-state classes stream. Draws without a held class of
        # two or more choices and without a fixed class are left out
        monkeypatch.setattr(_kernel_py, "CELL_CAP", bound)
        leaves = count_leaf_checks(monkeypatch)
        shapes = Counter()
        i = 0
        while shapes["draws"] < 1_500:
            lcn = held_class_network(rng, i)
            i += 1
            classes, succ = state_arguments(lcn)
            counts = [injective_choice_count([succ[x] for x in cls]) for cls in classes]
            fixed = [all(len(succ[x]) == 1 for x in cls) for cls in classes]
            stepped = [k for k, f in enumerate(fixed) if not f]
            looped = looped_classes(classes, succ)
            held = [k for k, cycled in enumerate(looped)
                    if not cycled and not fixed[k] and counts[k] > 1]
            odometer = [k for k in stepped if looped[k]]  # the classes the sweep steps
            if not held and not any(fixed):
                continue
            out = lcn.H.col_indices
            _walked, sweep = kernel_in_states(lcn)
            status, checked, _found = reference_sweep(classes, succ, out)
            # the ranks of the candidates that the sweep checks: those with
            # every class on no cycle at its first choice
            stay = [x for k, cycled in enumerate(looped) if not cycled for x in classes[k]]
            first, checks = None, []
            for rank, succ0 in enumerate(reference_candidates(classes, succ), 1):
                if rank > checked:
                    break
                choice = [succ0[x] for x in stay]
                if first is None:
                    first = choice
                if choice == first:
                    checks.append(rank)
            shapes.update({"draws": 1, "found": status == _kernel_py.FOUND,
                           "exhausted": status == _kernel_py.EXHAUSTED,
                           "held class of several states": any(len(classes[k]) > 1 for k in held),
                           "held one-state class": any(len(classes[k]) == 1 for k in held),
                           "held class last": bool(stepped) and stepped[-1] in held,
                           "held class after the last looped class":
                               bool(odometer) and max(held, default=-1) > odometer[-1],
                           "held class between two looped classes":
                               len(odometer) > 1
                               and any(odometer[0] < k < odometer[-1] for k in held),
                           "two held classes": len(held) >= 2,
                           "fixed class": any(fixed),
                           "fixed class last": fixed[-1],
                           "streaming class": any(c * len(cls) > bound
                                                  for c, cls in zip(counts, classes))})
            for cap in (-1, 0, 1, checked - 1, checked, checked + 1):
                want = reference_sweep(classes, succ, out, cap)
                leaves[0] = 0
                got = sweep(cap)
                assert got == want, (i - 1, cap)
                assert leaves[0] <= got[1]
                assert leaves[0] == sum(1 for rank in checks if rank <= got[1]), (i - 1, cap)
                shapes["fewer leaf checks"] += leaves[0] < got[1]
                shapes["cap inside a skipped block"] += (got[0] == _kernel_py.CAP_REACHED
                                                         and leaves[0] < cap)
        for shape in ("found", "exhausted", "held class of several states",
                      "held one-state class", "held class last", "two held classes",
                      "held class after the last looped class",
                      "held class between two looped classes",
                      "fixed class", "fixed class last", "fewer leaf checks",
                      "cap inside a skipped block"):
            assert shapes[shape] >= 200, shapes
        if bound == 3:
            assert shapes["streaming class"] >= 200, shapes

    def test_a_class_on_no_cycle_never_changes_a_verdict(self, rng):
        # the claim the hold rests on, checked by the brute-force oracle and
        # not by the sweep: among the closed loops that differ only in the
        # choice of a class on no cycle, all are observable or none is. The
        # kernel's class graph must put the same classes on cycles as the
        # definition does
        groups = Counter()
        for i in range(400):
            n, m = rng.randint(2, 7), rng.randint(2, 3)
            lcn = nets.random_network(i, n, m, rng.randint(1 + n // 3, n))
            classes, succ = state_arguments(lcn)
            problem = _Problem(lcn)
            looped = looped_classes(classes, succ)
            spans = list(zip(problem.ends, problem.ends[1:]))
            assert [h is None for h in _kernel_py._held(problem.succ, problem.ends, spans,
                                                         [0] * n)] == looped
            held = [k for k, cycled in enumerate(looped) if not cycled]
            verdicts = {}  # (held class, the other classes' choices) -> the verdicts
            for succ0 in reference_candidates(classes, succ):
                closed = Lcn(n, 1, lcn.output_dim, LogicalMatrix(n, tuple(s + 1 for s in succ0)),
                             lcn.H)
                observable = oracle_observable(closed)
                for k in held:
                    rest = tuple(succ0[x] for c, cls in enumerate(classes) if c != k for x in cls)
                    verdicts.setdefault((k, rest), []).append(observable)
            for (k, _rest), seen in verdicts.items():
                assert len(set(seen)) == 1, (i, k)
                if len(seen) > 1:
                    groups["observable" if seen[0] else "unobservable"] += 1
                    groups["several states"] += len(classes[k]) > 1
        assert min(groups.values()) >= 1_000, groups

    def test_the_rank_is_the_mixed_radix_position(self, rng):
        # the rank the sweep returns, read off the class counts: the
        # witness's choice in each class (in lexicographic order) is a digit
        # and ``injective_choice_count`` of each later class a radix, and an
        # exhausted sweep reports the product of the counts
        seen = Counter()
        for i in range(1_500):
            if i % 2:
                lcn = held_class_network(rng, i)
            else:  # states 1 and 2 alone in the first class, its first choice swapping them:
                # each candidate with that choice is doomed, and a witness lies past it
                n, m = rng.randint(4, 8), rng.randint(2, 3)
                lcn = nets.random_network(i, n, m, rng.randint(n // 2 + 1, n))
                lcols = [(2, 3)[j % 2] for j in range(m)] + [(1, 4)[j % 2] for j in range(m)]
                lcn = _net((*lcols, *lcn.L.col_indices[2 * m:]),
                           (1, 1, *(h + 1 for h in lcn.H.col_indices[2:])), m)
            classes, succ = state_arguments(lcn)
            choices = [[c for c in product(*(succ[x] for x in cls)) if len(set(c)) == len(c)]
                       for cls in classes]
            counts = [injective_choice_count([succ[x] for x in cls]) for cls in classes]
            assert counts == [len(c) for c in choices]
            want = reference_sweep(classes, succ, lcn.H.col_indices)
            status, checked, found = kernel_in_states(lcn)[1](-1)
            assert (status, checked, found) == want, i
            if status == _kernel_py.FOUND:
                rank = 0
                for cls, options, count in zip(classes, choices, counts):
                    rank = rank * count + options.index(tuple(found[x] for x in cls))
                assert checked == rank + 1, i
                seen["past the first row"] += rank >= len(choices[-1])
            else:
                assert checked == prod(counts), i
            seen[status] += 1
        assert min(seen[_kernel_py.FOUND], seen[_kernel_py.EXHAUSTED],
                   seen["past the first row"]) >= 200, seen

    def test_a_held_class_after_the_looped_ones_takes_their_rows_whole(self, monkeypatch):
        # two classes of three states, each offered its own three states,
        # then a held class of two states offered the second class's: the
        # walk that steps the looped classes hands the second one's six
        # choices out one at a time on its first pass and as one row after
        # each later choice of the first, not once per candidate
        resumes = [0]
        walk = _kernel_py._walk

        def counted(*args, keep=True):
            for choices in walk(*args, keep=keep):
                resumes[0] += keep  # the counting walks keep no rows
                yield choices

        monkeypatch.setattr(_kernel_py, "_walk", counted)
        leaves = count_leaf_checks(monkeypatch)
        succ = [[0, 1, 2]] * 3 + [[3, 4, 5]] * 5
        assert _kernel_py.sweep_first_observable(succ, [0, 3, 6, 8]) == (_kernel_py.EXHAUSTED,
                                                                          216, None)
        assert leaves[0] == 36  # 6 x 6 candidates, the held class at its first choice
        assert resumes[0] == 1 + 6 + 5  # the first candidate, then the looped classes' walk

    @pytest.mark.parametrize("after", [0, 2])
    def test_a_capped_sweep_stops_counting_a_held_class(self, after):
        # a held class of k states, each offered the k states of a class
        # that maps onto itself, so every candidate is doomed; with no class
        # after it, or a looped class of two choices: the sweep learns the
        # held class's k! choices by walking them, and at a small cap it
        # must stop that walk near the cap instead of walking them all
        entered = [0]  # option lists walked

        class Options(list):
            def __iter__(self):
                entered[0] += 1
                return super().__iter__()

        def arguments(k):
            tail = list(range(2 * k, 2 * k + after))
            succ = ([Options(range(k, 2 * k)) for _ in range(k)]
                    + [Options([p]) for p in range(k, 2 * k)] + [Options(tail) for _ in tail])
            return succ, [0, k, 2 * k] + [2 * k + after] * bool(after)

        total = 120 * max(after, 1)  # 5! choices of the held class, times the tail's
        assert _kernel_py.sweep_first_observable(*arguments(5)) == (_kernel_py.EXHAUSTED, total,
                                                                    None)
        entered[0] = 0
        assert _kernel_py.sweep_first_observable(*arguments(9), 5) == (_kernel_py.CAP_REACHED, 5,
                                                                       None)
        assert entered[0] < 100  # of 9! = 362 880 choices

    def test_exhaustive_pin_takes_a_third_of_the_leaf_checks(self, monkeypatch):
        # the synth-exhaustive pool's pinned network: its one held class is
        # a one-state class with three options, so two thirds of its
        # candidates are counted
        leaves = count_leaf_checks(monkeypatch)
        args = sweep_arguments(nets.random_network(146863, 14, 3, 5))
        assert _kernel_py.sweep_first_observable(*args) == (_kernel_py.EXHAUSTED, 129_792, None)
        assert leaves[0] == 43_264


class TestBenchmarkSurface:
    """What ``perfbench/run.py`` and ``perfbench/spantrace.py`` use of the
    package. The benchmark's own tests are slow, so this pins it here."""

    def test_backend_names(self):
        assert kernel.DEFAULT_BACKEND == "python"
        assert kernel.available_backends() == ("python",)

    def test_sweep_result(self):
        # spantrace counts leaves from r[1] and witnesses from r[0] == 0;
        # the call is the one synthesis makes
        assert _kernel_py.FOUND == 0
        problem = _Problem(nets.BIG84)
        status, checked, _found = _kernel_py.sweep_first_observable(problem.succ,
                                                                    problem.ends, -1)
        assert (status, checked) == (0, 829)

    def test_backend_keyword(self):
        reports = {b: synthesize_observability(nets.BIG84, backend=b) for b in ("auto", "python")}
        assert reports["auto"] == reports["python"]
        assert reports["auto"].candidates_checked == 829

    # any name but "auto" and "python" is refused, the removed compiled backend's too
    @pytest.mark.parametrize("name", ["compiled", "c", "", "Python"])
    def test_unknown_backend_is_rejected(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            synthesize_observability(nets.BIG84, backend=name)

    @pytest.mark.parametrize("module, name", [
        ("lcnsyn._kernel_py", "sweep_first_observable"),
        ("lcnsyn.synthesis", "injective_choice_count"),
        ("lcnsyn.synthesis", "structural_obstruction"),
        ("lcnsyn.synthesis", "output_partition"),
    ])
    def test_traced_functions_live_where_the_tracer_looks(self, module, name):
        assert callable(getattr(importlib.import_module(module), name))
