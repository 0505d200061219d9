"""Synthesis: partitions, prunes, bounds, enumeration, the full search."""

import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

import nets
from conftest import random_lcn
from oracles import all_closed_loop_maps, all_general_feedbacks, all_pairs_obstruction

from lcnsyn import (
    ClosedLoopController,
    ControllabilityVerdict,
    Lcn,
    LogicalMatrix,
    MatrixSizeError,
    Verdict,
    apply_feedback,
    candidate_bounds,
    controllability_synthesis_verdict,
    enumerate_candidates,
    is_observable,
    logical_identity,
    output_partition,
    synthesize_observability,
)
from lcnsyn import kernel, synthesis
from lcnsyn.synthesis import _Problem, injective_choice_count, structural_obstruction

# Two equal-output states each locked onto itself: candidates exist but
# their shared pair self-loops forever, so synthesis must still fail.
LOCKED22 = Lcn(2, 2, 1, LogicalMatrix(2, (1, 1, 2, 2)), LogicalMatrix(1, (1, 1)))


def obstruction(lcn):
    """``structural_obstruction`` on the prepared problem, as synthesis calls it."""
    problem = _Problem(lcn)
    return structural_obstruction(problem.out, problem.succ)


def class_options(lcn, i):
    """Class i's member option lists, read from the blocks (class index 1-based)."""
    members = output_partition(lcn).classes[i - 1].members
    return [sorted(set(lcn.block(x).col_indices)) for x in members]


def paired_classes(n):
    """n/2 two-state output classes {2i-1, 2i}, each state's block {the
    state, its partner}."""
    return Lcn(n, 2, n // 2,
               LogicalMatrix(n, tuple(v for x in range(1, n + 1)
                                      for v in (x, x + 1 if x % 2 else x - 1))),
               LogicalMatrix(n // 2, tuple((x + 1) // 2 for x in range(1, n + 1))))


def brute_force_closed_loop_synthesizable(lcn):
    return any(is_observable(fed) for _g, fed in all_closed_loop_maps(lcn))


class TestOutputPartition:
    def test_big_network(self):
        part = output_partition(nets.BIG84)
        assert [(c.output_index, c.members) for c in part.classes] == [
            (1, (1, 2, 3, 4, 5)),
            (2, (6, 7, 8)),
        ]
        assert part.classes[0].size == 5 and part.classes[1].size == 3

    def test_ring_with_coarse_output(self):
        part = output_partition(nets.RING42_OUT2)
        assert [(c.output_index, c.members) for c in part.classes] == [
            (1, (1, 2, 3)),
            (2, (4,)),
        ]

    def test_identity_output(self):
        part = output_partition(nets.RING42)
        assert [c.members for c in part.classes] == [(1,), (2,), (3,), (4,)]


class TestStructuralObstruction:
    def test_sink_constant_blocks(self):
        obs = obstruction(nets.SINK42_OUT2)
        assert obs is not None
        assert (obs.kind, obs.j, obs.k, obs.target) == ("constant_blocks", 1, 2, 1)

    def test_big_network_clean(self):
        assert obstruction(nets.BIG84) is None

    def test_locked_pair(self):
        obs = obstruction(LOCKED22)
        assert obs is not None
        assert (obs.kind, obs.j, obs.k) == ("locked_pair", 1, 2)

    def test_swapped_locked_pair(self):
        lcn = Lcn(2, 2, 1, LogicalMatrix(2, (2, 2, 1, 1)), LogicalMatrix(1, (1, 1)))
        obs = obstruction(lcn)
        assert obs is not None and obs.kind == "locked_pair"

    def test_unequal_outputs_do_not_trigger(self):
        lcn = Lcn(2, 2, 2, LogicalMatrix(2, (1, 1, 1, 1)), LogicalMatrix(2, (1, 2)))
        assert obstruction(lcn) is None

    def test_least_pair_not_least_output_class(self):
        # both classes are obstructed; output class 1's pair (2, 4) comes
        # first in class order, but (1, 3) is the least pair
        lcn = Lcn(4, 1, 2, LogicalMatrix(4, (1, 2, 1, 2)), LogicalMatrix(2, (2, 1, 2, 1)))
        obs = obstruction(lcn)
        assert (obs.kind, obs.j, obs.k, obs.target) == ("constant_blocks", 1, 3, 1)

    def test_matches_the_all_pairs_scan(self):
        # only equal-output pairs of constant-block states are checked,
        # class by class; the scan of every state pair is the reference
        rng = random.Random(0x0B57)
        found = 0
        for _ in range(3000):
            lcn = random_lcn(rng, n_max=9, m_max=3, q_max=3)
            obs = obstruction(lcn)
            got = None if obs is None else (obs.kind, obs.j, obs.k, obs.target)
            assert got == all_pairs_obstruction(lcn)
            found += got is not None
        assert found > 300


class TestInjectiveChoiceCount:
    def test_big_class_counts(self):
        assert injective_choice_count(class_options(nets.BIG84, 1)) == 153
        assert injective_choice_count(class_options(nets.BIG84, 2)) == 46

    def test_second_class_by_brute_force(self):
        # options of states 6, 7, 8 enumerated directly
        opts = [sorted(set(nets.BIG84.block(x).col_indices)) for x in (6, 7, 8)]
        assert opts == [[1, 2, 3, 4], [3, 4, 7, 8], [4, 5, 6, 7]]
        count = sum(
            1 for t in product(*opts) if len(set(t)) == 3
        )
        assert count == 46

    def test_first_class_by_brute_force(self):
        opts = [sorted(set(nets.BIG84.block(x).col_indices)) for x in (1, 2, 3, 4, 5)]
        count = sum(1 for t in product(*opts) if len(set(t)) == 5)
        assert count == 153

    def test_sink_class_is_empty(self):
        assert injective_choice_count(class_options(nets.SINK42_OUT2, 1)) == 0

    def test_singleton_classes_count_their_options(self):
        for i in range(1, 5):
            cols = set(nets.RING42.block(i).col_indices)
            assert injective_choice_count(class_options(nets.RING42, i)) == len(cols)


class TestBounds:
    def test_big_network(self):
        assert candidate_bounds(nets.BIG84) == (49152, 7038)

    def test_sink(self):
        naive, refined = candidate_bounds(nets.SINK42_OUT2)
        assert refined == 0
        assert naive == 2  # 1 * 1 * 1 * |{2, 3}|

    def test_single_state(self):
        lcn = Lcn(1, 3, 1, LogicalMatrix(1, (1, 1, 1)), logical_identity(1))
        assert candidate_bounds(lcn) == (1, 1)

    def test_refined_never_exceeds_naive(self, rng):
        for _ in range(80):
            lcn = random_lcn(rng)
            naive, refined = candidate_bounds(lcn)
            assert 0 <= refined <= naive


class TestZeroChoiceClass:
    def test_sink_first_class(self):
        assert synthesize_observability(nets.SINK42_OUT2).zero_choice_class == 1

    def test_big_network_none(self):
        assert synthesize_observability(nets.BIG84).zero_choice_class is None

    def test_fires_iff_refined_bound_zero(self, rng):
        # An observable network sends no equal-output pair to one state,
        # so its refined bound is at least 1 and the short-circuit that
        # skips the zero-choice test loses no firing.
        for _ in range(80):
            lcn = random_lcn(rng)
            fired = synthesize_observability(lcn).zero_choice_class is not None
            assert fired == (candidate_bounds(lcn)[1] == 0)


class TestEnumerateCandidates:
    def test_big_network_yield_count(self):
        n = sum(1 for _ in enumerate_candidates(nets.BIG84))
        assert n == 7038

    def test_sink_yields_nothing(self):
        assert list(enumerate_candidates(nets.SINK42_OUT2)) == []

    def test_single_state_two_options(self):
        lcn = Lcn(1, 2, 1, LogicalMatrix(1, (1, 1)), LogicalMatrix(1, (1,)))
        assert len(list(enumerate_candidates(lcn))) == 1
        # a state alone in its class contributes one factor per block column
        lone = Lcn(2, 2, 2, LogicalMatrix(2, (1, 2, 1, 1)), LogicalMatrix(2, (1, 2)))
        assert len(list(enumerate_candidates(lone))) == 2
        # same blocks but shared output: injectivity leaves only (2, 1)
        shared = Lcn(2, 2, 1, LogicalMatrix(2, (1, 2, 1, 1)), LogicalMatrix(1, (1, 1)))
        cands = list(enumerate_candidates(shared))
        assert len(cands) == 1

    def test_count_and_distinctness_on_random_nets(self, rng):
        for _ in range(60):
            lcn = random_lcn(rng)
            _naive, refined = candidate_bounds(lcn)
            maps = []
            for ctrl in enumerate_candidates(lcn):
                fed = apply_feedback(lcn, ctrl)
                maps.append(fed.L.col_indices)
            assert len(maps) == refined
            assert len(set(maps)) == len(maps)  # pairwise distinct maps

    def test_within_class_injectivity(self, rng):
        for _ in range(40):
            lcn = random_lcn(rng)
            part = output_partition(lcn)
            for ctrl in enumerate_candidates(lcn):
                fed = apply_feedback(lcn, ctrl)
                for cls in part.classes:
                    succ = [fed.step(x, 1) for x in cls.members]
                    assert len(set(succ)) == len(succ)

    def test_minimal_g_representative(self, rng):
        for _ in range(40):
            lcn = random_lcn(rng)
            for ctrl in enumerate_candidates(lcn):
                for x, u in enumerate(ctrl.g, start=1):
                    target = lcn.step(x, u)
                    # no smaller input index reaches the same target
                    for smaller in range(1, u):
                        assert lcn.step(x, smaller) != target

    def test_lexicographic_order_over_chosen_values(self):
        lcn = Lcn(2, 2, 1, LogicalMatrix(2, (2, 1, 1, 2)), LogicalMatrix(1, (1, 1)))
        fed_maps = [apply_feedback(lcn, c).L.col_indices for c in enumerate_candidates(lcn)]
        assert fed_maps == [(1, 2), (2, 1)]


class TestSynthesize:
    def test_big_network_synthesized(self):
        report = synthesize_observability(nets.BIG84)
        assert report.verdict is Verdict.SYNTHESIZED
        assert not report.already_observable
        assert report.naive_bound == 49152
        assert report.refined_bound == 7038
        assert report.num_factors == (153, 46)
        assert 1 <= report.candidates_checked <= 7038
        fed = apply_feedback(nets.BIG84, report.witness)
        assert is_observable(fed)

    def test_sink_not_synthesizable(self):
        report = synthesize_observability(nets.SINK42_OUT2)
        assert report.verdict is Verdict.NOT_SYNTHESIZABLE
        assert report.witness is None
        assert report.refined_bound == 0
        assert report.zero_choice_class == 1
        assert report.obstruction is not None
        assert report.obstruction.kind == "constant_blocks"
        assert report.pruned_by == {"constant_blocks": 1, "zero_choice_class": 1}
        assert report.candidates_checked == 0

    def test_ring_with_coarse_output_synthesized(self):
        report = synthesize_observability(nets.RING42_OUT2)
        assert report.verdict is Verdict.SYNTHESIZED
        fed = apply_feedback(nets.RING42_OUT2, report.witness)
        assert is_observable(fed)
        # the slice of the known good two-input controller also works
        from lcnsyn import column_slice

        sliced = column_slice(nets.RING42_FB, 1)
        assert sliced == ClosedLoopController((1, 2, 1, 1))
        assert is_observable(apply_feedback(nets.RING42_OUT2, sliced))

    def test_already_observable_short_circuit(self):
        report = synthesize_observability(nets.TRI32)
        assert report.verdict is Verdict.SYNTHESIZED
        assert report.already_observable
        assert report.candidates_checked == 0
        assert is_observable(apply_feedback(nets.TRI32, report.witness))

    def test_locked_pair_prunes_before_enumeration(self):
        report = synthesize_observability(LOCKED22)
        assert report.verdict is Verdict.NOT_SYNTHESIZABLE
        assert report.refined_bound > 0
        assert report.candidates_checked == 0
        assert report.pruned_by == {"locked_pair": 1}
        # the verdict is honest: brute force agrees
        assert not brute_force_closed_loop_synthesizable(LOCKED22)

    def test_random_12_state_network_witness(self):
        report = synthesize_observability(nets.random_network(0, 12, 4, 2))
        assert report.verdict is Verdict.SYNTHESIZED
        assert report.candidates_checked == 22455
        assert report.witness.g == (3, 4, 4, 3, 4, 3, 1, 1, 4, 2, 4, 3)

    def test_random_14_state_network_exhausted(self):
        report = synthesize_observability(nets.random_network(146863, 14, 3, 5))
        assert report.verdict is Verdict.NOT_SYNTHESIZABLE
        assert report.candidates_checked == 129792

    def test_candidate_cap(self):
        report = synthesize_observability(nets.BIG84, max_candidates=1)
        assert report.verdict is Verdict.DECISION_INCOMPLETE
        assert report.candidates_checked == 1
        big_enough = synthesize_observability(nets.BIG84, max_candidates=7038)
        assert big_enough.verdict is Verdict.SYNTHESIZED

    def test_negative_candidate_cap_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            synthesize_observability(nets.BIG84, max_candidates=-5)

    @pytest.mark.parametrize("func", [candidate_bounds, synthesize_observability])
    def test_counts_each_class_once(self, func, monkeypatch):
        calls = []
        count = synthesis.injective_choice_count
        monkeypatch.setattr(synthesis, "injective_choice_count",
                            lambda options: calls.append(count(options)) or calls[-1])
        func(nets.BIG84)
        assert calls == [153, 46]

    def test_oversized_pair_graph_is_refused_before_counting(self, monkeypatch):
        # one output class of 1449 states: 1 049 076 pairs, past CELL_CAP
        n = 1449
        lcn = Lcn(n, 1, 1, LogicalMatrix(n, tuple(range(1, n + 1))), LogicalMatrix(1, (1,) * n))
        calls = []
        monkeypatch.setattr(synthesis, "injective_choice_count",
                            lambda options: calls.append(options))
        with pytest.raises(MatrixSizeError, match="1049076 equal-output pairs"):
            synthesize_observability(lcn)
        assert calls == []

    @pytest.mark.parametrize("func", [candidate_bounds, synthesize_observability])
    def test_class_too_large_to_count_is_a_size_error(self, func):
        # one class of 1100 states passes the pair cap (604 450 pairs), but
        # counting it recurses deeper than the interpreter's default limit
        n = 1100
        lcn = Lcn(n, 1, 1, LogicalMatrix(n, tuple(range(1, n + 1))), LogicalMatrix(1, (1,) * n))
        with pytest.raises(MatrixSizeError, match="output class 1 of 1100 states"):
            func(lcn)

    def test_prepares_the_problem_once(self, monkeypatch):
        # synthesis reads L and H through the prepared problem only, and no
        # scan of all N(N-1)/2 state pairs asks for outputs
        n = 400
        lcn = paired_classes(n)
        calls = Counter()
        for name in ("block", "output"):
            def counted(self, x, name=name, method=getattr(Lcn, name)):
                calls[name] += 1
                return method(self, x)
            monkeypatch.setattr(Lcn, name, counted)
        report = synthesize_observability(lcn, max_candidates=1)
        assert report.num_factors == (2,) * (n // 2)
        assert (report.verdict, report.candidates_checked) == (Verdict.DECISION_INCOMPLETE, 1)
        assert calls["block"] == 0
        assert calls["output"] <= 2 * n

        # synthesis builds the pair list, the sweep walks it
        swept = []
        sweep = synthesis._kernel_py.sweep_first_observable
        monkeypatch.setattr(synthesis._kernel_py, "sweep_first_observable",
                            lambda *a: swept.append(a) or sweep(*a))
        built = []
        pairs = synthesis._Problem.equal_output_pairs
        monkeypatch.setattr(synthesis._Problem, "equal_output_pairs",
                            lambda self: built.append(pairs(self)) or built[-1])
        assert synthesize_observability(nets.BIG84).candidates_checked == 829
        [args] = swept
        assert built == [args[3]] and built[0] is args[3]

    def test_leaf_check_memory_does_not_grow_with_n_squared(self):
        # every leaf is unsafe (each pair can loop onto itself), so the
        # sweep checks 20 leaves; their walk marks must not cost N^2 bytes
        n = 2000
        lcn = paired_classes(n)
        peaks = []
        tracemalloc.start()
        try:
            for cap in (0, 20):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                report = synthesize_observability(lcn, max_candidates=cap)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                assert report.candidates_checked == cap
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < n * n // 4

    def test_merging_equal_output_states_is_always_unobservable(self, rng):
        # the fact behind within-class injectivity: g mapping two
        # equal-output states onto one successor kills observability
        found = 0
        while found < 30:
            lcn = random_lcn(rng, n_max=4, m_max=2)
            part = output_partition(lcn)
            cls = next((c for c in part.classes if c.size >= 2), None)
            if cls is None:
                continue
            x1, x2 = cls.members[0], cls.members[1]
            for g1 in range(1, lcn.input_dim + 1):
                for g2 in range(1, lcn.input_dim + 1):
                    if lcn.step(x1, g1) != lcn.step(x2, g2):
                        continue
                    g = [1] * lcn.state_dim
                    g[x1 - 1], g[x2 - 1] = g1, g2
                    fed = apply_feedback(lcn, ClosedLoopController(tuple(g)))
                    assert not is_observable(fed)
                    found += 1

    @pytest.mark.parametrize("backend", kernel.available_backends())
    def test_verdict_matches_closed_loop_brute_force(self, rng, backend):
        for _ in range(60):
            lcn = random_lcn(rng)
            report = synthesize_observability(lcn, backend=backend)
            expected = brute_force_closed_loop_synthesizable(lcn)
            assert (report.verdict is Verdict.SYNTHESIZED) == expected
            if report.witness is not None:
                assert is_observable(apply_feedback(lcn, report.witness))

    def test_verdict_matches_general_p2_brute_force(self, rng):
        # closed-loop search decides synthesis by *any* state feedback
        for _ in range(25):
            lcn = random_lcn(rng, n_max=3, m_max=2)
            report = synthesize_observability(lcn)
            exists_p2 = any(
                is_observable(apply_feedback(lcn, fb))
                for fb in all_general_feedbacks(lcn, 2)
            )
            assert (report.verdict is Verdict.SYNTHESIZED) == exists_p2

    def test_checked_within_bounds(self, rng):
        for _ in range(40):
            lcn = random_lcn(rng)
            report = synthesize_observability(lcn)
            assert report.candidates_checked <= report.refined_bound <= report.naive_bound


class TestControllabilityVerdict:
    def test_funnel_never_synthesizable(self):
        verdict = controllability_synthesis_verdict(nets.FUNNEL44)
        assert verdict is ControllabilityVerdict.NEVER_SYNTHESIZABLE

    def test_ring_already_controllable(self):
        verdict = controllability_synthesis_verdict(nets.RING42)
        assert verdict is ControllabilityVerdict.ALREADY_CONTROLLABLE

    def test_single_state(self):
        lcn = Lcn(1, 1, 1, LogicalMatrix(1, (1,)), logical_identity(1))
        assert (
            controllability_synthesis_verdict(lcn)
            is ControllabilityVerdict.ALREADY_CONTROLLABLE
        )
