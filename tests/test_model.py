"""Lcn model: accessors, validation, truth-table construction."""

import re

import pytest

import nets
from oracles import naive_observability_graph_edges

from lcnsyn import (
    DIAG,
    Lcn,
    LogicalMatrix,
    MissingEntryError,
    column_slice,
    compress,
    expand,
    from_truth_table,
    logical_identity,
    observability_graph,
    stp,
    validate,
)
from lcnsyn.model import MISSING_H


class TestValidate:
    def test_reference_nets_are_clean(self):
        for lcn in nets.ALL_REFERENCE_NETS:
            assert validate(lcn) == []

    def test_short_l(self):
        lcn = Lcn(4, 2, 4, LogicalMatrix(4, (2, 2, 1, 3, 4, 4, 2)), logical_identity(4))
        msgs = validate(lcn)
        assert any("L column count 7 != 8" in m for m in msgs)

    def test_h_index_out_of_range(self):
        lcn = Lcn(2, 1, 2, LogicalMatrix(2, (1, 2)), LogicalMatrix(2, (1, 3)))
        msgs = validate(lcn)
        assert any("H index out of range" in m for m in msgs)

    def test_reports_all_violations_not_just_first(self):
        lcn = Lcn(4, 2, 2,
                  LogicalMatrix(4, (9, 2, 1)),          # wrong length and range
                  LogicalMatrix(2, (1, 3, 1, 1, 1)))    # wrong length and range
        msgs = validate(lcn)
        assert len(msgs) >= 4

    def test_missing_h_is_a_violation(self):
        # the analyses read H, so a network without one is not valid; the
        # file format's omitted H is the identity, built by the loader
        lcn = Lcn(2, 1, 2, LogicalMatrix(2, (2, 1)), None)
        assert validate(lcn) == [MISSING_H]
        assert validate(Lcn(2, 1, 2, lcn.L, logical_identity(2))) == []

    def test_factor_products(self):
        good = Lcn(4, 2, 4, nets.RING42.L, logical_identity(4),
                   state_factors=(2, 2), input_factors=(2,))
        assert validate(good) == []
        bad = Lcn(4, 2, 4, nets.RING42.L, logical_identity(4), state_factors=(2, 3))
        assert any("state_factors" in m for m in validate(bad))


class TestBlock:
    def test_funnel_block_4(self):
        assert nets.FUNNEL44.block(4) == LogicalMatrix(4, (3, 4, 1, 2))

    def test_big_block_5(self):
        assert nets.BIG84.block(5) == LogicalMatrix(8, (2, 3, 7, 6))

    def test_single_state_block_is_whole_l(self):
        lcn = Lcn(1, 3, 1, LogicalMatrix(1, (1, 1, 1)), logical_identity(1))
        assert lcn.block(1) == lcn.L

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nets.RING42.block(5)


class TestStateFeedbackBlock:
    def test_ring_controller_block_2(self):
        assert nets.RING42_FB.block(2) == LogicalMatrix(2, (2, 2))

    def test_block_columns_are_the_column_slices(self):
        fb = nets.RING42_FB
        for i in range(1, fb.state_dim + 1):
            for l in range(1, fb.new_input_dim + 1):
                assert fb.block(i).col_indices[l - 1] == column_slice(fb, l).g[i - 1]

    def test_out_of_range(self):
        for i in (0, nets.RING42_FB.state_dim + 1):
            with pytest.raises(IndexError):
                nets.RING42_FB.block(i)


class TestStepOutput:
    def test_ring_step(self):
        assert nets.RING42.step(1, 1) == 2

    def test_big_step(self):
        assert nets.BIG84.step(4, 3) == 8

    def test_identity_network_step(self):
        # every block constant on its own state: step(x, u) == x
        lcn = Lcn(3, 2, 3, LogicalMatrix(3, (1, 1, 2, 2, 3, 3)), logical_identity(3))
        for x in range(1, 4):
            for u in range(1, 3):
                assert lcn.step(x, u) == x

    def test_output_values(self):
        assert nets.RING42_OUT2.output(4) == 2
        assert nets.BIG84.output(6) == 2
        for x in range(1, 5):
            assert nets.RING42.output(x) == x  # identity H

    def test_bounds(self):
        with pytest.raises(IndexError):
            nets.RING42.step(0, 1)
        with pytest.raises(IndexError):
            nets.RING42.step(1, 3)
        with pytest.raises(IndexError):
            nets.RING42.output(5)

    def test_step_matches_stp_chain(self, rng):
        # index lookup == compress(L stp (x kron u)) on small random nets
        from conftest import random_lcn

        for _ in range(25):
            lcn = random_lcn(rng, n_max=4, m_max=4)
            if lcn.state_dim * lcn.input_dim > 64:
                continue
            l = expand(lcn.L)
            for x in range(1, lcn.state_dim + 1):
                for u in range(1, lcn.input_dim + 1):
                    xu = stp(expand(LogicalMatrix(lcn.state_dim, (x,))),
                             expand(LogicalMatrix(lcn.input_dim, (u,))))
                    got = compress(stp(l, xu))
                    assert got.col_indices == (lcn.step(x, u),)


class TestFromTruthTable:
    def test_two_node_boolean_network(self):
        # x1+ = x2 AND u, x2+ = (NOT x1) OR u, y = x1, with value 1 -> index 1
        # and value 0 -> index 2; state index = x1 kron x2.
        def enc(bit1, bit2):
            return (1 - bit1) * 2 + (1 - bit2) + 1

        transition = {}
        output = {}
        for x1 in (1, 0):
            for x2 in (1, 0):
                s = enc(x1, x2)
                output[s] = 1 if x1 else 2
                for u in (1, 0):
                    transition[(s, 1 if u else 2)] = enc(x2 & u, (1 - x1) | u)
        lcn = from_truth_table(4, 2, 2, transition, output)
        assert lcn.L == LogicalMatrix(4, (1, 4, 3, 4, 1, 3, 3, 3))
        assert lcn.H == LogicalMatrix(2, (1, 1, 2, 2))
        # both equal-output pairs collapse into the diagonal under input 2
        edges = {(s, d, w) for s, d, w in observability_graph(lcn).edges}
        assert edges == {
            ((1, 2), DIAG, (2,)),
            ((3, 4), DIAG, (2,)),
            (DIAG, DIAG, (1, 2)),
        }
        assert edges == naive_observability_graph_edges(lcn)

    def test_constant_table(self):
        lcn = from_truth_table(3, 2, 3, [[2, 2], [2, 2], [2, 2]], [1, 2, 3])
        assert lcn.L.col_indices == (2,) * 6

    def test_round_trip_big(self):
        src = nets.BIG84
        transition = [
            [src.step(x, u) for u in range(1, 5)] for x in range(1, 9)
        ]
        output = [src.output(x) for x in range(1, 9)]
        rebuilt = from_truth_table(8, 4, 4, transition, output)
        assert rebuilt.L == src.L
        assert rebuilt.H == src.H

    def test_missing_entry(self):
        with pytest.raises(MissingEntryError):
            from_truth_table(2, 2, 2, {(1, 1): 1, (1, 2): 1, (2, 1): 2}, {1: 1, 2: 2})
        with pytest.raises(MissingEntryError):
            from_truth_table(2, 1, 2, {(1, 1): 1, (2, 1): 2}, {1: 1})

    @pytest.mark.parametrize("transition, output, extra", [
        ([[2], [1], [2]], [1, 1], "[(3, 1)]"),                          # extra row
        ([[2, 1], [1]], [1, 1], "[(1, 2)]"),                            # extra entry in a row
        ({(1, 1): 2, (2, 1): 1, (5, 5): 1}, {1: 1, 2: 1}, "[(5, 5)]"),  # extra dict key
        ([[2], [1]], [1, 1, 1], "[3]"),                                 # extra output
        ([[2, 9], [1], [7]], [1, 1, 4], "[(1, 2), (3, 1)]"),
    ])
    def test_entries_outside_the_domain(self, transition, output, extra):
        with pytest.raises(ValueError, match=re.escape(f"outside the domain: {extra}")):
            from_truth_table(2, 1, 1, transition, output)

    def test_range_check(self):
        with pytest.raises(ValueError):
            from_truth_table(2, 1, 2, {(1, 1): 3, (2, 1): 1}, {1: 1, 2: 2})

    def test_tabulate_then_rebuild_is_identity(self, rng):
        from conftest import random_lcn

        for _ in range(20):
            lcn = random_lcn(rng)
            transition = {
                (x, u): lcn.step(x, u)
                for x in range(1, lcn.state_dim + 1)
                for u in range(1, lcn.input_dim + 1)
            }
            output = {x: lcn.output(x) for x in range(1, lcn.state_dim + 1)}
            rebuilt = from_truth_table(
                lcn.state_dim, lcn.input_dim, lcn.output_dim, transition, output
            )
            assert rebuilt.L == lcn.L and rebuilt.H == lcn.H
