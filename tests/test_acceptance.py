"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Every expected value here is exact (integer/graph computations); the
runtime budgets are asserted with perf_counter around the measured
computation only. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

import nets
from conftest import random_lcn
from oracles import (
    all_general_feedbacks,
    oracle_controllable,
    oracle_observable,
)
from sweeps import sweep_count_observable
from test_analysis import MIX_EDGES, ONES_EDGES

from lcnsyn import (
    DIAG,
    ClosedLoopController,
    DenseMatrix,
    Lcn,
    LogicalMatrix,
    StateFeedback,
    Verdict,
    apply_feedback,
    candidate_bounds,
    enumerate_candidates,
    expand,
    identity,
    is_controllable,
    is_observable,
    kron,
    logical_identity,
    observability_graph,
    power_reducing_matrix,
    stp,
    swap_matrix,
    synthesize_observability,
    transition_graph,
)
from lcnsyn.synthesis import _Problem


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def timed(fn, repeats: int = 5) -> float:
    """Best wall time of ``fn`` over a few repeats, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_funnel_adjacency_and_uncontrollability():
    with criterion("criterion 1: 4x4 funnel adjacency + witness (3,2), < 1 ms"):
        graph = transition_graph(nets.FUNNEL44)
        assert graph.adjacency == DenseMatrix.from_rows(
            [[4, 2, 2, 1], [0, 2, 0, 1], [0, 0, 2, 1], [0, 0, 0, 1]]
        )
        res = is_controllable(nets.FUNNEL44)
        assert not res.controllable
        assert res.witness == (3, 2)

        def work():
            transition_graph(nets.FUNNEL44)
            is_controllable(nets.FUNNEL44)

        assert timed(work) < 1e-3


def test_criterion_2_feedback_can_destroy_controllability():
    with criterion("criterion 2: controllable ring, feedback kills it, < 1 ms"):
        assert is_controllable(nets.RING42).controllable
        fed = apply_feedback(nets.RING42, nets.RING42_FB)
        assert fed.L == LogicalMatrix(4, (2, 2, 3, 3, 4, 4, 2, 2))
        assert not is_controllable(fed).controllable
        assert transition_graph(fed).adjacency == DenseMatrix.from_rows(
            [[0, 0, 0, 0], [2, 0, 0, 2], [0, 2, 0, 0], [0, 0, 2, 0]]
        )

        def work():
            is_controllable(nets.RING42)
            inner = apply_feedback(nets.RING42, nets.RING42_FB)
            is_controllable(inner)
            transition_graph(inner)

        assert timed(work) < 1e-3


def test_criterion_3_observability_fixtures():
    with criterion("criterion 3: observability verdicts on the 4-state and 3-state nets"):
        res = is_observable(nets.RING42_OUT2)
        assert not res.observable
        assert res.witness.pair == (1, 2)
        assert res.witness.cycle_entry == (1, 2)  # self-loop on {1,2}
        graph = observability_graph(nets.RING42_OUT2)
        assert set(graph.edges) == {
            ((1, 2), (1, 2), (1,)),
            ((1, 2), (2, 3), (2,)),
            (DIAG, DIAG, (1, 2)),
        }

        assert is_observable(nets.RING42_FB_OUT2).observable
        fed_graph = observability_graph(nets.RING42_FB_OUT2)
        assert set(fed_graph.edges) == {
            ((1, 2), (2, 3), (1, 2)),
            (DIAG, DIAG, (1, 2)),
        }

        assert is_observable(nets.TRI32).observable
        assert not is_observable(nets.TRI32_CL).observable


def test_criterion_4_sink_is_not_synthesizable():
    with criterion("criterion 4: pinned sink: refined bound 0, no synthesis, obstruction (1,2,1)"):
        assert candidate_bounds(nets.SINK42_OUT2)[1] == 0
        report = synthesize_observability(nets.SINK42_OUT2)
        assert report.verdict is Verdict.NOT_SYNTHESIZABLE
        obs = report.obstruction
        assert obs is not None
        assert (obs.kind, obs.j, obs.k, obs.target) == ("constant_blocks", 1, 2, 1)


def test_criterion_5_big_network_bounds_synthesis_and_graphs():
    with criterion("criterion 5: 8-state bounds 49152/7038=153*46, synthesis, both graphs, sweep < 5 s"):
        assert candidate_bounds(nets.BIG84) == (49152, 7038)
        report = synthesize_observability(nets.BIG84)
        assert report.verdict is Verdict.SYNTHESIZED
        assert report.naive_bound == 49152
        assert report.refined_bound == 7038
        assert report.num_factors == (153, 46)
        assert is_observable(apply_feedback(nets.BIG84, report.witness)).observable

        mixed = apply_feedback(nets.BIG84, ClosedLoopController(nets.BIG84_G_MIX))
        assert mixed.L == LogicalMatrix(8, (1, 3, 5, 6, 7, 1, 3, 5))
        assert is_observable(mixed).observable
        assert set(observability_graph(mixed).edges) == MIX_EDGES

        ones = apply_feedback(nets.BIG84, ClosedLoopController(nets.BIG84_G_ONES))
        assert ones.L == LogicalMatrix(8, (1, 2, 3, 6, 2, 1, 3, 5))
        assert not is_observable(ones).observable
        ones_edges = set(observability_graph(ones).edges)
        assert ones_edges == ONES_EDGES
        assert len(ones_edges) == 10
        assert sum(1 for s, d, _w in ones_edges if s == d and s is not DIAG) == 3
        assert sum(1 for s, d, _w in ones_edges if d is DIAG and s is not DIAG) == 1

        problem = _Problem(nets.BIG84)
        t0 = time.perf_counter()
        total, _good = sweep_count_observable(problem.succ, problem.ends)
        yielded = sum(1 for _ in enumerate_candidates(nets.BIG84))
        elapsed = time.perf_counter() - t0
        assert total == yielded == 7038
        assert elapsed < 5.0


def test_criterion_6_stp_identity_suite():
    with criterion("criterion 6: swap identities m,n<=4, power-reducing k<=6, block formula dims<=3"):
        for m in range(1, 5):
            for n in range(1, 5):
                w = expand(swap_matrix(m, n))
                w_rev = expand(swap_matrix(n, m))
                assert w.transpose() == w_rev
                assert stp(w, w_rev) == identity(m * n)
                for i in range(1, m + 1):
                    for j in range(1, n + 1):
                        p = expand(LogicalMatrix(m, (i,)))
                        q = expand(LogicalMatrix(n, (j,)))
                        assert stp(w, stp(p, q)) == stp(q, p)
                        assert stp(stp(p.transpose(), q.transpose()), w) == stp(
                            q.transpose(), p.transpose()
                        )
        for k in range(1, 7):
            red = expand(power_reducing_matrix(k))
            for i in range(1, k + 1):
                p = expand(LogicalMatrix(k, (i,)))
                assert stp(p, p) == stp(red, p)
        rng = random.Random(2024)
        for n in range(1, 4):
            for m in range(1, 4):
                for p in range(1, 4):
                    for _ in range(3):
                        lcn = Lcn(n, m, n,
                                  LogicalMatrix(n, tuple(rng.randint(1, n)
                                                         for _ in range(n * m))),
                                  logical_identity(n))
                        fb = StateFeedback(
                            n, m, p,
                            LogicalMatrix(m, tuple(rng.randint(1, m)
                                                   for _ in range(n * p))),
                        )
                        fed = apply_feedback(lcn, fb)
                        chain = stp(stp(expand(lcn.L), kron(identity(n), expand(fb.G))),
                                    expand(power_reducing_matrix(n)))
                        for x in range(1, n + 1):
                            xd = expand(LogicalMatrix(n, (x,)))
                            for v in range(1, p + 1):
                                vd = expand(LogicalMatrix(p, (v,)))
                                direct = stp(stp(stp(stp(expand(lcn.L), xd),
                                                     expand(fb.G)), xd), vd)
                                assert direct == stp(stp(chain, xd), vd)
                                assert direct == stp(expand(fed.L), stp(xd, vd))


def test_criterion_7_oracle_equivalence_on_random_networks():
    with criterion("criterion 7: 1000-network oracle equivalence + feedback laws, < 60 s"):
        rng = random.Random(0xACCE)
        t0 = time.perf_counter()
        n_nets = 1000
        for _ in range(n_nets):
            lcn = random_lcn(rng, n_max=4, m_max=2, q_max=2)
            n, m = lcn.state_dim, lcn.input_dim

            assert is_observable(lcn).observable == oracle_observable(lcn)
            controllable = is_controllable(lcn).controllable
            assert controllable == oracle_controllable(lcn)

            if not controllable:
                # feedback never restores controllability
                for p in (1, 2):
                    fb = StateFeedback(
                        n, m, p,
                        LogicalMatrix(m, tuple(rng.randint(1, m) for _ in range(n * p))),
                    )
                    assert not is_controllable(apply_feedback(lcn, fb)).controllable

            # closed-loop verdict decides synthesis by any state feedback:
            # compare against brute force over every P=2 controller
            report = synthesize_observability(lcn)
            exists_p2 = any(
                is_observable(apply_feedback(lcn, fb)).observable
                for fb in all_general_feedbacks(lcn, 2)
            )
            assert (report.verdict is Verdict.SYNTHESIZED) == exists_p2
            if report.witness is not None:
                assert is_observable(apply_feedback(lcn, report.witness)).observable
        elapsed = time.perf_counter() - t0
        print(f"      ({n_nets} networks in {elapsed:.1f} s)")
        assert elapsed < 60.0


def test_criterion_8_enumeration_exactness():
    with criterion("criterion 8: candidate count = product of class counts, all maps distinct"):
        def check(lcn):
            _naive, refined = candidate_bounds(lcn)
            maps = [apply_feedback(lcn, c).L.col_indices for c in enumerate_candidates(lcn)]
            assert len(maps) == refined
            assert len(set(maps)) == len(maps)

        # exhaustive over every network with N <= 2, M <= 2, Q <= 2
        for n in (1, 2):
            for m in (1, 2):
                for q in (1, 2):
                    for lcols in product(range(1, n + 1), repeat=n * m):
                        for hcols in product(range(1, q + 1), repeat=n):
                            check(Lcn(n, m, q, LogicalMatrix(n, lcols),
                                      LogicalMatrix(q, hcols)))
        # random family at the full size bound
        rng = random.Random(0xE1)
        for _ in range(500):
            check(random_lcn(rng, n_max=4, m_max=2, q_max=2))
        # and the 8-state fixture
        check(nets.BIG84)
