"""Synthesis: partitions, prunes, bounds, enumeration, the full search."""

import random
import sys
import tracemalloc
from collections import Counter
from itertools import product
from math import prod

import pytest

import nets
from conftest import random_lcn
from nets import paired_classes
from oracles import (all_closed_loop_maps, all_general_feedbacks, all_pairs_obstruction,
                     budgeted_choice_count, counting_order_fault, member_value_components)

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
from lcnsyn import analysis, kernel, synthesis
from lcnsyn.synthesis import _Problem, injective_choice_count, structural_obstruction

# Two equal-output states each locked onto itself: candidates exist but
# their shared pair self-loops forever, so synthesis must still fail.
LOCKED22 = Lcn(2, 2, 1, LogicalMatrix(2, (1, 1, 2, 2)), LogicalMatrix(1, (1, 1)))


def obstruction(lcn):
    """``structural_obstruction`` on the prepared problem, as synthesis calls it."""
    problem = _Problem(lcn)
    return structural_obstruction(problem.members, problem.ends, problem.succ)


def class_options(lcn, i):
    """Class i's member option lists, read from the blocks (class index 1-based)."""
    members = list(output_partition(lcn).values())[i - 1]
    return [sorted(set(lcn.block(x).col_indices)) for x in members]


def brute_force_count(opts):
    """The pairwise-distinct choices from the option lists, one tuple at a time."""
    return sum(1 for t in product(*opts) if len(set(t)) == len(opts))


def brute_force_closed_loop_synthesizable(lcn):
    return any(is_observable(fed) for _g, fed in all_closed_loop_maps(lcn))


class TestOutputPartition:
    def test_big_network(self):
        part = output_partition(nets.BIG84)
        assert list(part.items()) == [
            (1, (1, 2, 3, 4, 5)),
            (2, (6, 7, 8)),
        ]
        assert len(part[1]) == 5 and len(part[2]) == 3

    def test_ring_with_coarse_output(self):
        part = output_partition(nets.RING42_OUT2)
        assert list(part.items()) == [
            (1, (1, 2, 3)),
            (2, (4,)),
        ]

    def test_identity_output(self):
        part = output_partition(nets.RING42)
        assert list(part.values()) == [(1,), (2,), (3,), (4,)]


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

    def test_matching_finds_no_choice_exactly_when_the_count_is_zero(self):
        # random option lists, many of them over too few values (Hall's
        # condition fails on some subset), against a brute-force count
        rng = random.Random(15)
        zero = 0
        for _ in range(3000):
            k, n = rng.randint(1, 6), rng.randint(1, 7)
            opts = [sorted(rng.sample(range(n), rng.randint(1, min(n, 3)))) for _ in range(k)]
            count = brute_force_count(opts)
            assert synthesis._has_distinct_choice(opts) == (count > 0), opts
            assert injective_choice_count(opts) == count
            zero += count == 0
        assert 500 < zero < 2500

    def test_components_multiply_to_the_brute_force_count(self):
        # one- and two-member components, and last members whose options
        # the members before them can all take
        for opts, count in [([[3]], 1), ([[0, 1, 2]], 3), ([[0], [0]], 0), ([[0], [0, 1]], 1),
                            ([[0, 1], [0, 1]], 2), ([[0, 1], [5], [0, 1], [6, 7]], 4),
                            ([[0, 1, 2], [0, 1], [0, 1]], 2), ([[0, 1, 2], [1, 2], [1, 2]], 2),
                            ([[0, 1], [1, 2], [2, 3], [0, 3]], 2), ([[0], [1], [0, 1]], 0)]:
            assert brute_force_count(opts) == count
            assert injective_choice_count(opts) == count, opts
        # 1-4 random blocks of members, each block drawing either from its
        # own value range or from ranges that overlap the others'; members
        # are shuffled across blocks, and shared values join components.
        # Each trial is then counted again with one more member last, whose
        # options are values the others offer, so in most branches of the
        # count they are all taken.
        rng, extra = random.Random(16), random.Random(17)
        split = 0
        for trial in range(1500):
            disjoint = trial % 2 == 0
            blocks = []
            for b in range(rng.randint(1, 4)):
                base, n = 10 * b if disjoint else rng.randint(0, 3), rng.randint(1, 4)
                blocks.append([sorted(rng.sample(range(base, base + n), rng.randint(1, min(n, 3))))
                               for _ in range(rng.randint(1, 3))])
            opts = [o for block in blocks for o in block]
            rng.shuffle(opts)
            count = brute_force_count(opts)
            assert injective_choice_count(opts) == count, opts
            if disjoint:
                assert count == prod(injective_choice_count(block) for block in blocks), blocks
            split += len(synthesis._components(opts)) > 1
            offered = sorted({v for o in opts for v in o})
            more = opts + [sorted(extra.sample(offered, extra.randint(1, min(len(offered), 3))))]
            assert injective_choice_count(more) == brute_force_count(more), more
        assert 600 < split < 1400

    def test_components_are_found_and_ordered_by_maximum_cardinality_search(self):
        # 1-9 members in 1-4 blocks, each block drawing either from its own
        # value range or from ranges that overlap the others'; members are
        # shuffled across blocks, and shared values join components
        rng = random.Random(18)
        split = reordered = 0
        for trial in range(3000):
            disjoint = trial % 2 == 0
            sizes = [1] * rng.randint(1, 4)
            for _ in range(rng.randint(0, 9 - len(sizes))):
                sizes[rng.randrange(len(sizes))] += 1
            opts = []
            for b, size in enumerate(sizes):
                base, n = 10 * b if disjoint else rng.randint(0, 4), rng.randint(1, 5)
                opts += [sorted(rng.sample(range(base, base + n), rng.randint(1, min(n, 3))))
                         for _ in range(size)]
            rng.shuffle(opts)
            index = {id(o): i for i, o in enumerate(opts)}  # the same list object comes back
            blocks = [[index[id(o)] for o in block] for block in synthesis._components(opts)]
            assert sorted(i for block in blocks for i in block) == list(range(len(opts))), opts
            assert set(map(frozenset, blocks)) == member_value_components(opts), opts
            values = [{v for i in block for v in opts[i]} for block in blocks]
            assert sum(map(len, values)) == len(set().union(*values)), opts
            assert counting_order_fault(opts, blocks) is None, (opts, blocks)
            split += len(blocks) > 1
            reordered += [i for block in blocks for i in block] != list(range(len(opts)))
        assert 1000 < split < 2500
        assert reordered > 2000

    def test_count_and_budget_left_match_the_reference_counter(self):
        # 1-8 members drawing 1-4 values from ranges of 1-9, so that many
        # last members find their options taken; each list is counted with
        # more budget than it needs, exactly enough, one node short, and a
        # budget that runs out partway
        rng = random.Random(25)
        short = 0
        for _ in range(1500):
            n = rng.randint(1, 9)
            opts = [sorted(rng.sample(range(n), rng.randint(1, min(n, 4))))
                    for _ in range(rng.randint(1, 8))]
            count, left = budgeted_choice_count(opts, 1 << 23)
            assert count == brute_force_count(opts), opts
            nodes = (1 << 23) - left
            for budget in {nodes + 5, nodes, nodes - 1, rng.randint(0, nodes)}:
                if budget >= 0:
                    expected = budgeted_choice_count(opts, budget)
                    assert synthesis._distinct_choice_count(opts, budget) == expected, \
                        (opts, budget)
                    short += expected[0] is None
        assert short > 1000

    def test_pigeonhole_class_is_decided_without_counting(self):
        # the count alone would try every injective placement of
        # the first 39 (or 20) members before finding that none extends
        assert injective_choice_count([list(range(39))] * 40) == 0
        assert injective_choice_count([list(range(21))] * 20 + [[0], [0]]) == 0


class TestBounds:
    def test_big_network(self):
        assert candidate_bounds(nets.BIG84) == (49152, 7038)

    def test_big_network_counts_within_its_node_count(self, monkeypatch):
        # in counting order the 5-state class takes 107 nodes (131 in the
        # given order) and the 3-state class 18: 107 is just enough
        monkeypatch.setattr(synthesis, "COUNT_BUDGET", 107)
        assert candidate_bounds(nets.BIG84) == (49152, 7038)
        monkeypatch.setattr(synthesis, "COUNT_BUDGET", 106)
        assert candidate_bounds(nets.BIG84) == (49152, None)

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
                for members in part.values():
                    succ = [fed.step(x, 1) for x in members]
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


class TestProblemView:
    def test_walk_positions_stand_for_the_states(self, rng):
        # _Problem numbers the states by walk position: classes in
        # ascending output order, states ascending inside a class. Each
        # position's successors are positions, listed in ascending order of
        # the states they stand for, and each class's options are its slice
        # of them. Two thirds of the networks have their outputs sorted, so
        # each class is a run of states; the rest draw 3-10 states and 2 or
        # more outputs freely, so most of those interleave
        interleaved = 0
        for i in range(300):
            n = rng.randint(1, 10) if i % 3 else rng.randint(3, 10)
            q = rng.randint(1, n) if i % 3 else rng.randint(2, n)
            lcn = nets.random_network(i, n, rng.randint(1, 4), q)
            if i % 3:
                lcn = Lcn(n, lcn.input_dim, lcn.output_dim, lcn.L,
                          LogicalMatrix(lcn.output_dim, tuple(sorted(lcn.H.col_indices))))
            problem = _Problem(lcn)
            members, ends, succ = problem.members, problem.ends, problem.succ
            classes = [[x - 1 for x in cls] for cls in output_partition(lcn).values()]
            interleaved += members != list(range(n))
            assert sorted(members) == list(range(n))
            assert len(ends) == len(classes) + 1 and ends[0] == 0
            for k, cls in enumerate(classes):
                assert [members[p] for p in range(ends[k], ends[k + 1])] == cls
                assert problem.options[k] == succ[ends[k]:ends[k + 1]]
            states = analysis._successors(lcn)
            for p in range(n):
                assert [members[t] for t in succ[p]] == states[members[p]]
        assert interleaved >= 60, interleaved


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

    def test_reports_hash_by_value(self):
        # pruned_by is read off obstruction and zero_choice_class, not stored
        for lcn in (nets.SINK42_OUT2, nets.BIG84):
            first, again = (synthesize_observability(lcn) for _ in range(2))
            assert hash(first) == hash(again)

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

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, False, "3"])
    def test_candidate_cap_that_is_not_an_int_rejected(self, monkeypatch, cap):
        # refused before the problem is prepared: 2.5 would check 3
        # candidates, True would act as 1, and "3" fails only when compared
        def prepare(lcn):
            raise AssertionError("prepared the problem")

        monkeypatch.setattr(synthesis, "_Problem", prepare)
        with pytest.raises(TypeError, match="max_candidates must be an int or None"):
            synthesize_observability(nets.BIG84, max_candidates=cap)

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
    def test_deep_component_is_counted(self, func):
        # one class of 1100 states passes the pair cap (604 450 pairs); state
        # x offers x and x mod N + 1, so the class is one component of 1100
        # members with two choices, the identity and the rotation. A count
        # that recursed once per member would need more than 1100 frames.
        n = 1100
        cols = tuple(t for x in range(1, n + 1) for t in (x, x % n + 1))
        lcn = Lcn(n, 2, 1, LogicalMatrix(n, cols), LogicalMatrix(1, (1,) * n))
        limit = sys.getrecursionlimit()
        for lowered in (False, True):
            if lowered:
                sys.setrecursionlimit(200)
            try:
                result = func(lcn)
            finally:
                sys.setrecursionlimit(limit)
            if func is candidate_bounds:
                assert result == (2 ** n, 2)
            else:
                assert (result.refined_bound, result.num_factors) == (2, (2,))
                # one output: neither choice is observable, and both are checked
                assert result.verdict is Verdict.NOT_SYNTHESIZABLE
                assert result.candidates_checked == 2

    def test_count_over_budget_is_unknown(self, monkeypatch):
        rng = random.Random(0xB06E7)
        lcns = [*(random_lcn(rng, 8, 3, 3) for _ in range(300)), *nets.ALL_REFERENCE_NETS]
        counted = [synthesize_observability(lcn) for lcn in lcns]
        monkeypatch.setattr(synthesis, "COUNT_BUDGET", 0)
        # BIG84's classes of 5 and 3 states are one component each, and both
        # need nodes to count; with none allowed both counts are unknown
        assert candidate_bounds(nets.BIG84) == (49152, None)
        report = synthesize_observability(nets.BIG84)
        assert (report.refined_bound, report.num_factors) == (None, (None, None))
        # no verdict reads the counts: every field but the bounds is the same
        fields = ("verdict", "witness", "candidates_checked", "obstruction",
                  "zero_choice_class", "already_observable")
        for lcn, full in zip(lcns, counted):
            unknown = synthesize_observability(lcn)
            for field in fields:
                assert getattr(unknown, field) == getattr(full, field), (lcn, field)
            # the matching names the first class whose count is 0
            assert None not in full.num_factors
            assert full.zero_choice_class == \
                next((i + 1 for i, n in enumerate(full.num_factors) if n == 0), None)

    @pytest.mark.parametrize("lcn, steps, counts", [
        (nets.TRI32, ["_least_unsafe_pair"], [3, 1]),
        (nets.SINK42_OUT2, ["_least_unsafe_pair", "structural_obstruction"], [0, 2]),
        (LOCKED22, ["_least_unsafe_pair", "structural_obstruction"], [1]),
        (nets.BIG84, ["_least_unsafe_pair", "structural_obstruction", "sweep_first_observable"],
         [153, 46]),
    ])
    def test_verdict_is_decided_before_any_count(self, lcn, steps, counts, monkeypatch):
        # the counts are the report's last step: each verdict step returns first
        events = []

        def recorded(name, func):
            def call(*args):
                events.append(("start", name))
                result = func(*args)
                events.append(("end", name, result) if name == "injective_choice_count"
                              else ("end", name))
                return result
            return call

        for owner, name in ((synthesis, "_least_unsafe_pair"),
                            (synthesis, "structural_obstruction"),
                            (synthesis._kernel_py, "sweep_first_observable"),
                            (synthesis, "injective_choice_count")):
            monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
        synthesize_observability(lcn)
        expected = [e for step in steps for e in (("start", step), ("end", step))]
        for n in counts:
            expected += [("start", "injective_choice_count"), ("end", "injective_choice_count", n)]
        assert events == expected

    def test_verdict_needs_no_witness_path(self, monkeypatch):
        # the verdict reads only whether some pair reaches a cycle, never the
        # shortest path that is_observable builds for its witness
        observable = [bool(is_observable(lcn)) for lcn in nets.ALL_REFERENCE_NETS]

        def refuse(lcn):
            raise AssertionError("is_observable was called")

        monkeypatch.setattr(synthesis, "is_observable", refuse)
        monkeypatch.setattr(analysis, "is_observable", refuse)
        for lcn, expected in zip(nets.ALL_REFERENCE_NETS, observable):
            assert synthesize_observability(lcn).already_observable == expected
        # is_observable explores the 399 563 pairs that its witness (1, 2) reaches
        report = synthesize_observability(nets.random_network(0, 1400, 2, 1))
        assert (report.verdict, report.zero_choice_class) == (Verdict.NOT_SYNTHESIZABLE, 1)

    def test_class_without_choices_bounds_beside_an_unknown_count(self, monkeypatch):
        # states 1-3 (output 1) all step to state 1: no injective choice, by
        # matching; states 4-6 (output 2) count 2, but only with a node
        lcn = Lcn(6, 2, 2, LogicalMatrix(6, (1, 1, 1, 1, 1, 1, 5, 6, 5, 6, 4, 6)),
                  LogicalMatrix(2, (1, 1, 1, 2, 2, 2)))
        assert candidate_bounds(lcn) == (8, 0)
        assert _Problem(lcn).bounds()[2] == (0, 2)
        monkeypatch.setattr(synthesis, "COUNT_BUDGET", 0)
        assert _Problem(lcn).bounds() == (8, 0, (0, None))
        report = synthesize_observability(lcn)
        assert (report.verdict, report.zero_choice_class) == (Verdict.NOT_SYNTHESIZABLE, 1)

    def test_class_of_many_small_components_is_counted(self):
        # the identity on 1100 states with one output: 1100 one-member
        # components, each with one choice
        n = 1100
        lcn = Lcn(n, 1, 1, LogicalMatrix(n, tuple(range(1, n + 1))), LogicalMatrix(1, (1,) * n))
        assert candidate_bounds(lcn) == (1, 1)
        report = synthesize_observability(lcn)
        assert report.verdict is Verdict.NOT_SYNTHESIZABLE
        assert report.num_factors == (1,)
        assert (report.obstruction.kind, report.obstruction.j, report.obstruction.k) == \
            ("locked_pair", 1, 2)

    def test_outputs_enter_only_as_a_partition(self, rng):
        # relabelling the outputs y -> 3y - 1 (Q -> 3Q) keeps the classes and
        # their order, and adds gaps and unused outputs: nothing may change
        draws = []
        for i in range(150):
            n = rng.randint(1, 8)
            draws += [random_lcn(rng, 8, 3, 3),
                      nets.random_network(i, n, rng.randint(1, 3), rng.randint(1, n))]
        steps = Counter()
        for lcn in draws + list(nets.ALL_REFERENCE_NETS):
            q = 3 * lcn.output_dim
            relabelled = Lcn(lcn.state_dim, lcn.input_dim, q, lcn.L,
                             LogicalMatrix(q, tuple(3 * y - 1 for y in lcn.H.col_indices)))
            report = synthesize_observability(relabelled)
            assert report == synthesize_observability(lcn)
            assert candidate_bounds(relabelled) == candidate_bounds(lcn)
            assert list(enumerate_candidates(relabelled)) == list(enumerate_candidates(lcn))
            steps["already observable" if report.already_observable
                  else "pruned" if report.pruned_by else "swept"] += 1
            steps["many classes"] += len(output_partition(lcn)) >= 3
        # every step that can decide the verdict, and partitions of three
        # classes or more, are well exercised
        assert len(steps) == 4 and min(steps.values()) >= 50, steps

    def test_prepares_the_problem_once(self, monkeypatch):
        # synthesis reads L and H through the prepared problem only, no scan
        # of all N(N-1)/2 state pairs asks for outputs, and the observability
        # decision reuses the problem's output partition
        n = 400
        lcn = paired_classes(n)
        calls = Counter()
        for name in ("block", "output"):
            def counted(self, x, name=name, method=getattr(Lcn, name)):
                calls[name] += 1
                return method(self, x)
            monkeypatch.setattr(Lcn, name, counted)
        partitioned = []
        for owner in (analysis, synthesis):
            monkeypatch.setattr(owner, "output_partition",
                                lambda net, part=owner.output_partition:
                                partitioned.append(net) or part(net))
        report = synthesize_observability(lcn, max_candidates=1)
        assert report.num_factors == (2,) * (n // 2)
        assert (report.verdict, report.candidates_checked) == (Verdict.DECISION_INCOMPLETE, 1)
        assert calls["block"] == 0
        assert calls["output"] <= 2 * n
        assert partitioned == [lcn]
        # once per call, whichever step decides the verdict: already
        # observable, an obstruction, or the sweep
        partitioned.clear()
        for net in nets.ALL_REFERENCE_NETS:
            synthesize_observability(net)
        assert partitioned == list(nets.ALL_REFERENCE_NETS)

        # the sweep gets the prepared options, the classes' ends and the
        # cap: no output list and no pair list
        swept = []
        sweep = synthesis._kernel_py.sweep_first_observable
        monkeypatch.setattr(synthesis._kernel_py, "sweep_first_observable",
                            lambda *a: swept.append(a) or sweep(*a))
        assert synthesize_observability(nets.BIG84).candidates_checked == 829
        problem = synthesis._Problem(nets.BIG84)
        assert swept == [(problem.succ, problem.ends, -1)]

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

    def test_walk_memory_is_linear_in_the_states(self):
        # 6 000 two-state classes: the walk's used values must cost O(N),
        # not a length-N row for each class
        lcn = paired_classes(12_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = synthesize_observability(lcn, max_candidates=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.candidates_checked == 1
        assert peak < 10 << 20

    def test_merging_equal_output_states_is_always_unobservable(self, rng):
        # the fact behind within-class injectivity: g mapping two
        # equal-output states onto one successor kills observability
        found = 0
        while found < 30:
            lcn = random_lcn(rng, n_max=4, m_max=2)
            part = output_partition(lcn)
            members = next((ms for ms in part.values() if len(ms) >= 2), None)
            if members is None:
                continue
            x1, x2 = members[0], members[1]
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
