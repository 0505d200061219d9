"""Sweep kernels: the candidate walk, and backend parity.

The pure-Python kernel is checked everywhere against independent
references (a brute-force product, the public enumeration, the pair
graph analysis); only the Python-vs-Cython comparisons need the
compiled extension.
"""

from itertools import combinations, product

import pytest

import nets
from conftest import random_lcn

from lcnsyn import apply_feedback, candidate_bounds, enumerate_candidates, is_observable
from lcnsyn import kernel
from lcnsyn.synthesis import _sweep_arguments, output_partition

needs_cython = pytest.mark.skipif(
    "cython" not in kernel.available_backends(),
    reason="compiled kernel unavailable",
)

PY = kernel.get_backend("python")
CY = kernel.get_backend("cython") if "cython" in kernel.available_backends() else None


@pytest.fixture(params=["python", pytest.param("cython", marks=needs_cython)])
def backend(request):
    return kernel.get_backend(request.param)


def closed_loop_arrays(lcn):
    succ = [lcn.step(x, 1) for x in range(1, lcn.state_dim + 1)]
    out = [lcn.output(x) for x in range(1, lcn.state_dim + 1)]
    return succ, out


def product_order(members, class_sizes, options_flat, option_offsets):
    """Brute-force candidate order: every per-position option tuple in
    lexicographic order, kept when injective within each class."""
    options = [options_flat[a:b] for a, b in zip(option_offsets, option_offsets[1:])]
    bounds = [0]
    for size in class_sizes:
        bounds.append(bounds[-1] + size)
    for values in product(*options):
        if all(len(set(values[a:b])) == b - a for a, b in zip(bounds, bounds[1:])):
            succ = [0] * len(members)
            for x, v in zip(members, values):
                succ[x - 1] = v - 1
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
            assert backend.closed_loop_observable(succ, out) is expected

    def test_matches_graph_analysis_on_random_closed_loops(self, backend, rng):
        for _ in range(300):
            lcn = random_lcn(rng, n_max=6, m_max=1, q_max=3)
            succ, out = closed_loop_arrays(lcn)
            assert backend.closed_loop_observable(succ, out) == is_observable(lcn).observable

    @needs_cython
    def test_large_state_space(self, rng):
        for _ in range(5):
            n = 200
            succ = [rng.randint(1, n) for _ in range(n)]
            out = [rng.randint(1, 3) for _ in range(n)]
            assert PY.closed_loop_observable(succ, out) == CY.closed_loop_observable(succ, out)


class TestCandidateWalk:
    def test_matches_brute_force_product_order(self, rng):
        for _ in range(60):
            lcn = random_lcn(rng, n_max=5, m_max=3, q_max=2)
            _out, *walk = _sweep_arguments(lcn, output_partition(lcn))
            walked = [list(succ0) for succ0 in PY.candidates(*walk)]
            assert walked == list(product_order(*walk))

    def test_big_network_leaf_count(self):
        _out, *walk = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        assert sum(1 for _ in PY.candidates(*walk)) == 7038

    def test_zero_choice_class_yields_nothing(self):
        _out, *walk = _sweep_arguments(nets.SINK42_OUT2, output_partition(nets.SINK42_OUT2))
        assert list(PY.candidates(*walk)) == []


class TestSweep:
    def test_sweep_order_matches_public_enumeration(self, backend, rng):
        # the backends' leaf order is the documented candidate order. On the
        # larger networks some unobservable leaf shares no indistinguishable
        # pair with the unobservable leaf before it, so a leaf check that
        # starts from the previous leaf's doomed pair starts wrong there
        switches = 0
        for lcn in [random_lcn(rng) for _ in range(30)] + [random_lcn(rng, 6, 4, 3)
                                                           for _ in range(30)]:
            args = _sweep_arguments(lcn, output_partition(lcn))
            closed = [apply_feedback(lcn, c) for c in enumerate_candidates(lcn)]
            doomed = [indistinguishable_pairs(fed) for fed in closed]
            switches += sum(1 for a, b in zip(doomed, doomed[1:]) if a and b and not a & b)
            maps = [fed.L.col_indices for fed in closed]
            hits = [fed.L.col_indices for fed in closed if is_observable(fed).observable]
            status, checked, found = backend.sweep_first_observable(*args, -1)
            if hits:
                assert status == kernel.FOUND
                assert found == hits[0]
                assert checked == maps.index(hits[0]) + 1
            else:
                assert status == kernel.EXHAUSTED
                assert checked == len(maps)
            assert backend.sweep_count_observable(*args) == (len(maps), len(hits))
        assert switches >= 1

    @pytest.mark.parametrize("cap", [0, 1, 2, 5, 828])
    def test_cap_below_witness_rank(self, backend, cap):
        args = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        assert backend.sweep_first_observable(*args, cap) == (kernel.CAP_REACHED, cap, None)

    def test_cap_at_witness_rank_finds_it(self, backend):
        args = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        status, checked, found = backend.sweep_first_observable(*args, 829)
        assert (status, checked) == (kernel.FOUND, 829)
        assert backend.sweep_first_observable(*args, -1) == (status, checked, found)

    def test_big_network_full_count(self, backend):
        args = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        total, _good = backend.sweep_count_observable(*args)
        assert total == candidate_bounds(nets.BIG84)[1]


@needs_cython
class TestSweepParity:
    def test_big_network_first_hit(self):
        args = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        assert PY.sweep_first_observable(*args, -1) == CY.sweep_first_observable(*args, -1)

    def test_big_network_full_count(self):
        args = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        assert PY.sweep_count_observable(*args) == CY.sweep_count_observable(*args)

    def test_random_networks_all_results_identical(self, rng):
        for _ in range(60):
            lcn = random_lcn(rng)
            args = _sweep_arguments(lcn, output_partition(lcn))
            assert PY.sweep_first_observable(*args, -1) == CY.sweep_first_observable(*args, -1)
            assert PY.sweep_count_observable(*args) == CY.sweep_count_observable(*args)

    def test_cap_parity(self):
        args = _sweep_arguments(nets.BIG84, output_partition(nets.BIG84))
        for cap in (0, 1, 2, 5):
            assert PY.sweep_first_observable(*args, cap) == CY.sweep_first_observable(*args, cap)
