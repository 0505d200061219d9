"""The sweep kernel: the candidate walk, the leaf check and the sweeps.

The kernel is checked against independent references: a brute-force
product, the public enumeration and the pair graph analysis.
"""

import importlib
from itertools import combinations, product

import pytest

import nets
from conftest import random_lcn
from sweeps import closed_loop_observable, equal_output_pairs, sweep_count_observable

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
from lcnsyn.synthesis import _Problem


@pytest.fixture(params=kernel.available_backends())
def backend(request):
    """The sweep kernel behind each backend name ``synthesize_observability``
    accepts."""
    return {"python": _kernel_py}[request.param]


def sweep_arguments(lcn):
    """The sweep's arguments, as synthesis prepares them."""
    problem = _Problem(lcn)
    return problem.members, problem.options, problem.out, problem.equal_output_pairs()


def walk(lcn):
    return sweep_arguments(lcn)[:3]


def closed_loop_arrays(lcn):
    succ = [lcn.step(x, 1) for x in range(1, lcn.state_dim + 1)]
    out = [lcn.output(x) for x in range(1, lcn.state_dim + 1)]
    return succ, out


def product_order(members, options, out):
    """Brute-force candidate order: every per-position option tuple in
    lexicographic order, kept when no two equal-output states share a
    successor."""
    pairs = equal_output_pairs(out)
    for values in product(*options):
        succ = [0] * len(members)
        for x, v in zip(members, values):
            succ[x] = v
        if all(succ[i] != succ[j] for i, j in pairs):
            yield succ


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


class TestCandidateWalk:
    def test_matches_brute_force_product_order(self, rng):
        for _ in range(60):
            lcn = random_lcn(rng, n_max=5, m_max=3, q_max=2)
            args = walk(lcn)
            walked = [list(succ0) for succ0 in _kernel_py.candidates(*args)]
            assert walked == list(product_order(*args))

    def test_big_network_leaf_count(self):
        assert sum(1 for _ in _kernel_py.candidates(*walk(nets.BIG84))) == 7038

    def test_zero_choice_class_yields_nothing(self):
        assert list(_kernel_py.candidates(*walk(nets.SINK42_OUT2))) == []


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
                assert found == hits[0]
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


class TestBenchmarkSurface:
    """What ``perfbench/run.py`` and ``perfbench/spantrace.py`` use of the
    package. The benchmark's own tests are slow, so this pins it here."""

    def test_backend_names(self):
        assert kernel.DEFAULT_BACKEND == "python"
        assert kernel.available_backends() == ("python",)

    def test_sweep_result(self):
        # spantrace counts leaves from r[1] and witnesses from r[0] == 0
        assert _kernel_py.FOUND == 0
        status, checked, _found = _kernel_py.sweep_first_observable(*sweep_arguments(nets.BIG84))
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
    ])
    def test_traced_functions_live_where_the_tracer_looks(self, module, name):
        assert callable(getattr(importlib.import_module(module), name))
