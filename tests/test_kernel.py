"""The sweep kernel: the candidate walk, the leaf check and the sweeps.

The kernel is checked against independent references: a brute-force
product, the per-position walk that its odometer replaced, the public
enumeration and the pair graph analysis.
"""

import importlib
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest

import nets
from conftest import random_lcn
from oracles import oracle_observable
from sweeps import (closed_loop_observable, equal_output_pairs, reference_candidates,
                    reference_sweep, scan_unsafe_pair, sweep_count_observable)

from lcnsyn import (
    Lcn,
    LogicalMatrix,
    apply_feedback,
    candidate_bounds,
    enumerate_candidates,
    is_observable,
    synthesize_observability,
)
from lcnsyn import _kernel_py, kernel
from lcnsyn.synthesis import _Problem, injective_choice_count


@pytest.fixture(params=kernel.available_backends())
def backend(request):
    """The sweep kernel behind each backend name ``synthesize_observability``
    accepts."""
    return {"python": _kernel_py}[request.param]


def sweep_arguments(lcn):
    """The sweep's arguments, as synthesis prepares them: the output
    classes and each state's options. The references that need outputs
    take ``lcn.H.col_indices`` besides."""
    problem = _Problem(lcn)
    return problem.classes, problem.succ


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
            classes, succ = sweep_arguments(lcn)
            walked = [list(succ0) for succ0 in _kernel_py.candidates(classes, succ)]
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
            classes, succ = sweep_arguments(lcn)
            out = lcn.H.col_indices
            relabelled = [3 * y - 1 for y in out]
            counts = [injective_choice_count([succ[x] for x in cls]) for cls in classes]
            shapes.update({"one class": len(classes) == 1, "many classes": len(classes) >= 3,
                           "single-member class": min(map(len, classes)) == 1,
                           "zero-choice class": 0 in counts,
                           "streaming class": any(c * len(cls) > bound
                                                  for c, cls in zip(counts, classes))})
            walked = [list(succ0) for succ0 in _kernel_py.candidates(classes, succ)]
            assert walked == [list(succ0) for succ0 in reference_candidates(classes, succ)]
            checked = reference_sweep(classes, succ, out)[1]
            for cap in (-1, 0, 1, checked - 1, checked):
                assert _kernel_py.sweep_first_observable(classes, succ, cap) == \
                    reference_sweep(classes, succ, out, cap) == \
                    reference_sweep(classes, succ, relabelled, cap)
        for shape in ("one class", "many classes", "single-member class", "zero-choice class"):
            assert shapes[shape] >= 200, shapes
        if bound == 3:
            assert shapes["streaming class"] >= 200, shapes

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
            args = sweep_arguments(lcn)
            closed = [apply_feedback(lcn, c) for c in enumerate_candidates(lcn)]
            doomed = [indistinguishable_pairs(fed) for fed in closed]
            switches += sum(1 for a, b in zip(doomed, doomed[1:]) if a and b and not a & b)
            maps = [fed.L.col_indices for fed in closed]
            hits = [fed.L.col_indices for fed in closed if is_observable(fed).observable]
            status, checked, found = backend.sweep_first_observable(*args, -1)
            if hits:
                assert status == backend.FOUND
                assert tuple(s + 1 for s in found) == hits[0]
                assert checked == maps.index(hits[0]) + 1
            else:
                assert status == backend.EXHAUSTED
                assert checked == len(maps)
            assert sweep_count_observable(*args, lcn.H.col_indices, backend) == \
                (len(maps), len(hits))
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
        total, _good = sweep_count_observable(*sweep_arguments(nets.BIG84),
                                              nets.BIG84.H.col_indices, backend)
        assert total == candidate_bounds(nets.BIG84)[1]


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
        status, checked, _found = _kernel_py.sweep_first_observable(problem.classes,
                                                                    problem.succ, -1)
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
