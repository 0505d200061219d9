"""Feedback application: block formula, adjacency, column slices."""

import random

import pytest

import nets
from conftest import random_lcn

from lcnsyn import (
    ClosedLoopController,
    DenseMatrix,
    Lcn,
    LogicalMatrix,
    StateFeedback,
    apply_feedback,
    column_slice,
    expand,
    feedback_adjacency,
    identity,
    is_controllable,
    is_observable,
    kron,
    logical_identity,
    observability_graph,
    power_reducing_matrix,
    stp,
    transition_graph,
)


def random_feedback(rng, lcn, p):
    n, m = lcn.state_dim, lcn.input_dim
    return StateFeedback(n, m, p, LogicalMatrix(m, tuple(rng.randint(1, m) for _ in range(n * p))))


class TestApplyFeedback:
    def test_two_input_controller_on_ring(self):
        fed = apply_feedback(nets.RING42, nets.RING42_FB)
        assert fed.L == LogicalMatrix(4, (2, 2, 3, 3, 4, 4, 2, 2))
        assert fed.input_dim == 2
        assert fed.H == nets.RING42.H

    def test_all_ones_closed_loop_on_big(self):
        fed = apply_feedback(nets.BIG84, ClosedLoopController(nets.BIG84_G_ONES))
        assert fed.L == nets.BIG84_CL_ONES.L
        assert fed.input_dim == 1

    def test_mixed_closed_loop_on_big(self):
        fed = apply_feedback(nets.BIG84, ClosedLoopController(nets.BIG84_G_MIX))
        assert fed.L == nets.BIG84_CL_MIX.L

    def test_identity_feedback_on_single_input_net(self):
        lcn = Lcn(3, 1, 3, LogicalMatrix(3, (2, 3, 1)), logical_identity(3))
        fed = apply_feedback(lcn, ClosedLoopController((1, 1, 1)))
        assert fed.L == lcn.L and fed.input_dim == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_feedback(nets.RING42, ClosedLoopController((1, 2, 1)))
        with pytest.raises(ValueError):
            apply_feedback(nets.RING42, ClosedLoopController((1, 2, 3, 1)))
        with pytest.raises(ValueError):
            apply_feedback(nets.BIG84, nets.RING42_FB)
        # N and M fit, but G holds 15 columns where N*P is 16
        with pytest.raises(ValueError, match=r"^G column count 15 != 16 \(N\*P\)$"):
            apply_feedback(nets.BIG84, StateFeedback(8, 4, 2, LogicalMatrix(4, (1,) * 15)))

    def test_columns_drawn_from_original_blocks(self, rng):
        for _ in range(40):
            lcn = random_lcn(rng, n_max=4, m_max=3)
            fb = random_feedback(rng, lcn, rng.randint(1, 3))
            fed = apply_feedback(lcn, fb)
            for i in range(1, lcn.state_dim + 1):
                assert set(fed.block(i).col_indices) <= set(lcn.block(i).col_indices)

    def test_feedback_never_adds_transition_edges(self, rng):
        for _ in range(40):
            lcn = random_lcn(rng, n_max=4, m_max=3)
            fb = random_feedback(rng, lcn, rng.randint(1, 3))
            before = transition_graph(lcn).adjacency
            after = transition_graph(apply_feedback(lcn, fb)).adjacency
            n = lcn.state_dim
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if after.entry(i, j) > 0:
                        assert before.entry(i, j) > 0

    def test_uncontrollable_stays_uncontrollable(self, rng):
        # feedback can only remove edges, so uncontrollability is final
        found = 0
        while found < 25:
            lcn = random_lcn(rng, n_max=4, m_max=2)
            if is_controllable(lcn):
                continue
            found += 1
            for p in (1, 2):
                fb = random_feedback(rng, lcn, p)
                assert not is_controllable(apply_feedback(lcn, fb))

    def test_matches_stp_chain_exhaustively(self):
        # index composition == L x G x v chain == L (I kron G) M_red x v chain,
        # for all dims <= 3, all x and v, on sampled L and G
        rng = random.Random(99)
        for n in range(1, 4):
            for m in range(1, 4):
                for p in range(1, 4):
                    for _ in range(3):
                        lcn = Lcn(n, m, n,
                                  LogicalMatrix(n, tuple(rng.randint(1, n) for _ in range(n * m))),
                                  logical_identity(n))
                        fb = random_feedback(rng, lcn, p)
                        fed = apply_feedback(lcn, fb)
                        ld = expand(lcn.L)
                        gd = expand(fb.G)
                        factored = stp(stp(ld, kron(identity(n), gd)),
                                       expand(power_reducing_matrix(n)))
                        for x in range(1, n + 1):
                            xd = expand(LogicalMatrix(n, (x,)))
                            for v in range(1, p + 1):
                                vd = expand(LogicalMatrix(p, (v,)))
                                direct = stp(stp(stp(stp(ld, xd), gd), xd), vd)
                                via_factored = stp(stp(factored, xd), vd)
                                via_blocks = stp(expand(fed.L), stp(xd, vd))
                                assert direct == via_blocks == via_factored


class TestFeedbackAdjacency:
    def test_ring_feedback_adjacency(self):
        adj = feedback_adjacency(nets.RING42, nets.RING42_FB)
        assert adj == DenseMatrix.from_rows(
            [[0, 0, 0, 0], [2, 0, 0, 2], [0, 2, 0, 0], [0, 0, 2, 0]]
        )

    def test_closed_loop_column_sums_are_one(self):
        adj = feedback_adjacency(nets.FUNNEL44, ClosedLoopController((1, 2, 3, 4)))
        for j in range(1, 5):
            assert sum(adj.entry(i, j) for i in range(1, 5)) == 1

    def test_ones_closed_loop_self_loop_at_state_one(self):
        adj = feedback_adjacency(nets.BIG84, ClosedLoopController(nets.BIG84_G_ONES))
        assert adj.entry(1, 1) == 1

    def test_equals_graph_of_applied_system(self, rng):
        for _ in range(20):
            lcn = random_lcn(rng, n_max=4, m_max=3)
            fb = random_feedback(rng, lcn, rng.randint(1, 3))
            assert feedback_adjacency(lcn, fb) == transition_graph(
                apply_feedback(lcn, fb)
            ).adjacency


class TestColumnSlice:
    def test_ring_controller_slices(self):
        assert column_slice(nets.RING42_FB, 1) == ClosedLoopController((1, 2, 1, 1))
        assert column_slice(nets.RING42_FB, 2) == ClosedLoopController((2, 2, 2, 2))

    def test_closed_loop_slices_to_itself(self):
        fb = ClosedLoopController((2, 1, 2)).as_state_feedback(2)
        assert column_slice(fb, 1) == ClosedLoopController((2, 1, 2))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            column_slice(nets.RING42_FB, 3)

    def test_slice_edges_subset_of_full_feedback_system(self, rng):
        # the property behind closed-loop completeness of the synthesis search
        for _ in range(40):
            lcn = random_lcn(rng, n_max=4, m_max=3)
            p = rng.randint(1, 3)
            fb = random_feedback(rng, lcn, p)
            full = observability_graph(apply_feedback(lcn, fb))
            full_edges = {(s, d) for s, d, _w in full.edges}
            for i in range(1, p + 1):
                sliced = apply_feedback(lcn, column_slice(fb, i))
                for s, d, _w in observability_graph(sliced).edges:
                    assert (s, d) in full_edges

    def test_sliced_system_observability_implies_full_check_sound(self, rng):
        # if the full feedback system is observable, so is every slice
        for _ in range(40):
            lcn = random_lcn(rng, n_max=4, m_max=2)
            p = rng.randint(1, 3)
            fb = random_feedback(rng, lcn, p)
            if is_observable(apply_feedback(lcn, fb)):
                for i in range(1, p + 1):
                    assert is_observable(apply_feedback(lcn, column_slice(fb, i)))
