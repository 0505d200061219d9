"""Graph analyses: adjacency, controllability, observability, DOT export."""

import random
import sys

import pytest

import nets
from conftest import random_lcn
from oracles import (
    all_pairs_vertices,
    all_sources_controllability_witness,
    graph_observability,
    naive_matmul,
    naive_observability_graph_edges,
    oracle_controllable,
    oracle_observable,
    reach_sets,
    strong_components,
    transition_dot_from_adjacency,
)

from lcnsyn import (
    CELL_CAP,
    DIAG,
    DenseMatrix,
    Lcn,
    LogicalMatrix,
    MatrixSizeError,
    ObservabilityWitness,
    analysis,
    expand,
    export_dot,
    is_controllable,
    is_observable,
    logical_identity,
    observability_graph,
    stp,
    swap_matrix,
    synthesize_observability,
    transition_graph,
)
from lcnsyn.files import load_network

# Pair-graph edge sets of the two closed loops of the 8-state network,
# frozen from working the definition by hand.
ONES_EDGES = {
    ((1, 2), (1, 2), (1,)),
    ((1, 3), (1, 3), (1,)),
    ((1, 5), (1, 2), (1,)),
    ((2, 3), (2, 3), (1,)),
    ((2, 5), DIAG, (1,)),
    ((3, 5), (2, 3), (1,)),
    ((6, 7), (1, 3), (1,)),
    ((6, 8), (1, 5), (1,)),
    ((7, 8), (3, 5), (1,)),
    (DIAG, DIAG, (1,)),
}
MIX_EDGES = {
    ((1, 2), (1, 3), (1,)),
    ((1, 3), (1, 5), (1,)),
    ((2, 3), (3, 5), (1,)),
    ((4, 5), (6, 7), (1,)),
    ((6, 7), (1, 3), (1,)),
    ((6, 8), (1, 5), (1,)),
    ((7, 8), (3, 5), (1,)),
    (DIAG, DIAG, (1,)),
}
BIG_PAIRS = tuple(
    sorted([(i, j) for i in range(1, 5) for j in range(i + 1, 6)] + [(6, 7), (6, 8), (7, 8)])
)


def _adjacency_via_stp(lcn):
    """The transition adjacency evaluated as ``L stp W_[M,N] stp 1_M``."""
    n, m = lcn.state_dim, lcn.input_dim
    ones = DenseMatrix(m, 1, (1,) * m)
    return stp(stp(expand(lcn.L), expand(swap_matrix(m, n))), ones)


class TestTransitionGraph:
    def test_funnel_adjacency(self):
        assert transition_graph(nets.FUNNEL44).adjacency == DenseMatrix.from_rows(
            [[4, 2, 2, 1], [0, 2, 0, 1], [0, 0, 2, 1], [0, 0, 0, 1]]
        )

    def test_ring_adjacency(self):
        assert transition_graph(nets.RING42).adjacency == DenseMatrix.from_rows(
            [[0, 1, 0, 0], [2, 0, 0, 2], [0, 1, 0, 0], [0, 0, 2, 0]]
        )

    def test_identity_network(self):
        lcn = Lcn(3, 2, 3, LogicalMatrix(3, (1, 1, 2, 2, 3, 3)), logical_identity(3))
        assert transition_graph(lcn).adjacency == DenseMatrix.from_rows(
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        )

    def test_column_sums_equal_input_count(self, rng):
        for _ in range(40):
            lcn = random_lcn(rng, n_max=5, m_max=3)
            adj = transition_graph(lcn).adjacency
            n, m = lcn.state_dim, lcn.input_dim
            for j in range(1, n + 1):
                assert sum(adj.entry(i, j) for i in range(1, n + 1)) == m

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_closed_form_equals_stp_evaluation(self, n, m):
        # [L_1 1_M, ..., L_N 1_M] == L stp W_[M,N] stp 1_M for every dim pair
        rng = random.Random(n * 31 + m)
        for _ in range(5):
            lcn = Lcn(n, m, 1,
                      LogicalMatrix(n, tuple(rng.randint(1, n) for _ in range(n * m))),
                      LogicalMatrix(1, (1,) * n))
            assert transition_graph(lcn).adjacency == _adjacency_via_stp(lcn)

    def test_refuses_more_cells_than_the_cell_cap(self):
        # a 1025-state single-input ring: 1025 * 1025 = 1 050 625 adjacency cells;
        # the edge list has one edge per state, only the closed form is refused
        n = 1025
        lcn = Lcn(n, 1, 1, LogicalMatrix(n, (*range(2, n + 1), 1)), LogicalMatrix(1, (1,) * n))
        assert n * n > CELL_CAP
        graph = transition_graph(lcn)
        assert graph.edges == tuple((x, x % n + 1, 1) for x in range(1, n + 1))
        with pytest.raises(MatrixSizeError, match="1025x1025 matrix .* exceeds cap"):
            graph.adjacency
        assert is_controllable(lcn).controllable  # reads L, not the adjacency


class TestStrongComponents:
    def test_matches_mutual_reachability_on_random_digraphs(self):
        # self-loops and repeated successors included; each component must
        # come after every component it reaches, sinks first
        rng = random.Random(0x5CC)
        for _ in range(5000):
            n = rng.randint(1, 40)
            degree = rng.randint(0, 4)
            succs = [[rng.randrange(n) for _ in range(rng.randint(0, degree))] for _ in range(n)]
            components = analysis._strong_components(succs)
            assert sum(map(len, components)) == n
            assert set(map(frozenset, components)) == strong_components(succs)
            place = {v: k for k, comp in enumerate(components) for v in comp}
            assert all(place[w] <= place[v] for v, reach in enumerate(reach_sets(succs))
                       for w in reach)

    def test_deep_graphs_need_no_recursion(self):
        n = 200_000
        assert n > 100 * sys.getrecursionlimit()
        cycle = [[v + 1] for v in range(n - 1)] + [[0]]
        assert [sorted(comp) for comp in analysis._strong_components(cycle)] == [list(range(n))]
        path = [[v + 1] for v in range(n - 1)] + [[]]
        assert analysis._strong_components(path) == [[v] for v in range(n - 1, -1, -1)]


class TestIsControllable:
    def test_funnel_not_controllable_with_pinned_witness(self):
        res = is_controllable(nets.FUNNEL44)
        assert not res
        assert res.witness == (3, 2)

    def test_ring_controllable(self):
        assert is_controllable(nets.RING42)

    def test_feedback_system_not_controllable(self):
        closed = Lcn(4, 2, 4, LogicalMatrix(4, (2, 2, 3, 3, 4, 4, 2, 2)),
                     logical_identity(4))
        assert not is_controllable(closed)

    def test_single_state(self):
        lcn = Lcn(1, 1, 1, LogicalMatrix(1, (1,)), logical_identity(1))
        assert is_controllable(lcn)

    def test_witness_pair_is_genuinely_unreachable(self, rng):
        for _ in range(60):
            lcn = random_lcn(rng)
            res = is_controllable(lcn)
            if res:
                continue
            src, tgt = res.witness
            seen = {src}
            frontier = [src]
            while frontier:
                x = frontier.pop()
                for u in range(1, lcn.input_dim + 1):
                    t = lcn.step(x, u)
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            assert tgt not in seen

    def test_witness_matches_the_all_sources_search(self):
        rng = random.Random(0xC0417)
        for _ in range(20_000):
            lcn = random_lcn(rng, n_max=9, m_max=3, q_max=1)
            res = is_controllable(lcn)
            assert (res.controllable, res.witness) == all_sources_controllability_witness(lcn)

    def test_witness_takes_at_most_two_searches(self, monkeypatch):
        # a ring over states 2..N where every state may also step into the
        # sink state 1: every source but 1 reaches everything
        n = 3000
        cols = [1, 1]
        for x in range(2, n + 1):
            cols += [x + 1 if x < n else 2, 1]
        lcn = Lcn(n, 2, 1, LogicalMatrix(n, tuple(cols)), LogicalMatrix(1, (1,) * n))
        calls = []
        reach_set = analysis._reach_set
        monkeypatch.setattr(analysis, "_reach_set",
                            lambda succs, src: calls.append(src) or reach_set(succs, src))
        assert is_controllable(lcn).witness == (1, 2)
        assert len(calls) <= 2


class TestObservabilityGraph:
    def test_refuses_more_pairs_than_the_cell_cap(self):
        # one output class of 1449 states: 1449 * 1448 / 2 = 1 049 076 pairs;
        # only the materialised graph refuses them, the decision walks from L
        n = 1449
        lcn = Lcn(n, 1, 1, LogicalMatrix(n, tuple(range(1, n + 1))), LogicalMatrix(1, (1,) * n))
        assert n * (n - 1) // 2 > CELL_CAP
        with pytest.raises(MatrixSizeError, match="1049076 equal-output pairs"):
            observability_graph(lcn)
        result = is_observable(lcn)
        assert not result
        assert result.witness == ObservabilityWitness((1, 2), ((1, 2),), (1, 2))

    def test_refuses_more_pair_input_cells_than_its_cap(self, monkeypatch):
        # 4 states of one output give 6 pairs; with 2 inputs, 12 cells
        lcn = Lcn(4, 2, 1, LogicalMatrix(4, (2, 3, 3, 4, 4, 1, 1, 2)), LogicalMatrix(1, (1,) * 4))
        monkeypatch.setattr(analysis, "GRAPH_CAP", 12)
        assert len(observability_graph(lcn).vertices) == 6
        monkeypatch.setattr(analysis, "GRAPH_CAP", 11)
        with pytest.raises(MatrixSizeError,
                           match="6 equal-output pairs and 2 inputs exceeds cap 11"):
            observability_graph(lcn)

    def test_ones_closed_loop_graph(self):
        g = observability_graph(nets.BIG84_CL_ONES)
        assert g.vertices == BIG_PAIRS
        assert set(g.edges) == ONES_EDGES
        assert len(g.edges) == 10

    def test_mix_closed_loop_graph(self):
        g = observability_graph(nets.BIG84_CL_MIX)
        assert g.vertices == BIG_PAIRS
        assert set(g.edges) == MIX_EDGES

    def test_unfed_ring_graph(self):
        g = observability_graph(nets.RING42_OUT2)
        assert g.vertices == ((1, 2), (1, 3), (2, 3))
        assert set(g.edges) == {
            ((1, 2), (1, 2), (1,)),
            ((1, 2), (2, 3), (2,)),
            (DIAG, DIAG, (1, 2)),
        }

    def test_fed_ring_graph(self):
        g = observability_graph(nets.RING42_FB_OUT2)
        assert set(g.edges) == {
            ((1, 2), (2, 3), (1, 2)),
            (DIAG, DIAG, (1, 2)),
        }

    def test_single_state_graph(self):
        lcn = Lcn(1, 2, 1, LogicalMatrix(1, (1, 1)), logical_identity(1))
        g = observability_graph(lcn)
        assert g.vertices == ()
        assert g.edges == ((DIAG, DIAG, (1, 2)),)

    def test_edges_match_definition_on_random_nets(self, rng):
        for _ in range(60):
            lcn = random_lcn(rng)
            g = observability_graph(lcn)
            assert set(g.edges) == naive_observability_graph_edges(lcn)
            # replay: every edge weight actually maps source onto target
            for src, dst, weight in g.edges:
                if src is DIAG:
                    continue
                x, y = src
                assert lcn.output(x) == lcn.output(y)
                for u in weight:
                    a, b = lcn.step(x, u), lcn.step(y, u)
                    if dst is DIAG:
                        assert a == b
                    else:
                        assert {a, b} == set(dst)
                        assert lcn.output(a) == lcn.output(b)

    def test_vertices_match_the_all_pairs_scan(self):
        # the vertices are listed class by class; the scan of every state
        # pair is the reference for their set and their lexicographic order
        rng = random.Random(0x0B5)
        for _ in range(3000):
            lcn = random_lcn(rng, n_max=9, m_max=3, q_max=3)
            assert observability_graph(lcn).vertices == all_pairs_vertices(lcn)


class TestIsObservable:
    def test_ring_with_coarse_output_unobservable(self):
        res = is_observable(nets.RING42_OUT2)
        assert not res
        assert res.witness.pair == (1, 2)
        assert res.witness.path == ((1, 2),)
        assert res.witness.cycle_entry == (1, 2)  # self-loop

    def test_fed_ring_observable(self):
        assert is_observable(nets.RING42_FB_OUT2)

    def test_tri_observable(self):
        assert is_observable(nets.TRI32)

    def test_tri_closed_loop_unobservable(self):
        res = is_observable(nets.TRI32_CL)
        assert not res
        assert res.witness.pair == (1, 2)
        assert res.witness.cycle_entry == (1, 2)

    def test_closed_loops_of_big_network(self):
        res = is_observable(nets.BIG84_CL_ONES)
        assert not res
        assert res.witness.pair == (1, 2)
        assert is_observable(nets.BIG84_CL_MIX)

    def test_matches_the_graph_reference(self):
        # the walk from L against the verdict and witness read off the
        # whole materialised pair graph
        rng = random.Random(0x0B5E)
        unobservable = 0
        for lcn in [*nets.ALL_REFERENCE_NETS,
                    *(random_lcn(rng, n_max=9, m_max=3, q_max=3) for _ in range(5000))]:
            result = is_observable(lcn)
            assert result == graph_observability(lcn)
            assert analysis._least_unsafe_pair(lcn)[0] == (result.witness and result.witness.pair)
            unobservable += not result
        assert 1000 < unobservable < 4500  # both verdicts are well covered

    def test_refuses_to_hold_more_pairs_than_the_cell_cap(self, monkeypatch):
        # a ring of 8 states with outputs 1,1,1,1,2,2,2,2: each class's 6
        # pairs walk into a pair of unequal outputs, so all 12 end up safe
        ring = Lcn(8, 1, 2, LogicalMatrix(8, (2, 3, 4, 5, 6, 7, 8, 1)),
                   LogicalMatrix(2, (1,) * 4 + (2,) * 4))
        monkeypatch.setattr(analysis, "CELL_CAP", 12)
        assert is_observable(ring).observable
        monkeypatch.setattr(analysis, "CELL_CAP", 11)
        with pytest.raises(MatrixSizeError, match="holding 12 equal-output pairs exceeds cap 11"):
            is_observable(ring)

    def test_refuses_at_the_first_pair_past_the_cap(self, monkeypatch):
        # pairs (1, 2), (3, 4), (5, 6), (7, 8), two inputs: (1, 2) is safe,
        # (3, 4) loops onto itself on input 1 and steps to (5, 6) on input 2,
        # (5, 6) steps to (7, 8) and to (1, 2), and (7, 8) has no edge; the
        # decision holds 2 pairs, the witness's exploration 4
        lcn = Lcn(8, 2, 4, LogicalMatrix(8, (1, 1, 3, 3, 3, 5, 4, 6, 7, 1, 8, 2, 1, 1, 3, 3)),
                  LogicalMatrix(4, (1, 1, 2, 2, 3, 3, 4, 4)))
        for cap in range(4):
            monkeypatch.setattr(analysis, "CELL_CAP", cap)
            with pytest.raises(MatrixSizeError,
                               match=f"holding {cap + 1} equal-output pairs exceeds cap {cap}$"):
                is_observable(lcn)
        monkeypatch.setattr(analysis, "CELL_CAP", 4)
        assert is_observable(lcn).witness == ObservabilityWitness((3, 4), ((3, 4),), (3, 4))

    def test_the_diagonal_is_not_a_held_pair(self, monkeypatch):
        # both states step onto state 1: pair (1, 2) merges into DIAG
        merge = Lcn(2, 1, 1, LogicalMatrix(2, (1, 1)), LogicalMatrix(1, (1, 1)))
        monkeypatch.setattr(analysis, "CELL_CAP", 1)
        assert is_observable(merge).witness == ObservabilityWitness((1, 2), ((1, 2), DIAG), DIAG)
        monkeypatch.setattr(analysis, "CELL_CAP", 0)
        with pytest.raises(MatrixSizeError, match="exceeds cap 0"):
            is_observable(merge)

    def test_builds_no_pair_graph(self, monkeypatch):
        def refuse(lcn):
            raise AssertionError("the pair graph was built")

        monkeypatch.setattr(analysis, "observability_graph", refuse)
        assert not is_observable(nets.BIG84_CL_ONES)
        assert synthesize_observability(nets.BIG84).candidates_checked == 829

    def test_matches_sequence_oracle(self, rng):
        for _ in range(150):
            lcn = random_lcn(rng)
            assert is_observable(lcn).observable == oracle_observable(lcn)
            assert (analysis._least_unsafe_pair(lcn)[0] is None) == oracle_observable(lcn)

    def test_controllable_matches_reachability_oracle(self, rng):
        for _ in range(150):
            lcn = random_lcn(rng)
            assert is_controllable(lcn).controllable == oracle_controllable(lcn)

    def test_witness_properties_on_random_nets(self, rng):
        # Every fact is recomputed by plain per-vertex BFS over the edges.
        unobservable = 0
        for _ in range(300):
            lcn = random_lcn(rng, 7, 3, 3)
            succs = {}
            for src, dst, _w in observability_graph(lcn).edges:
                succs.setdefault(src, set()).add(dst)
                succs.setdefault(dst, set())

            def bfs(src):
                dist, frontier, level = {src: 0}, {src}, 0
                while frontier:
                    level += 1
                    frontier = {w for v in frontier for w in succs[v] if w not in dist}
                    dist.update(dict.fromkeys(frontier, level))
                return dist

            on_cycle = {v for v in succs if any(v in bfs(w) for w in succs[v])}
            bad = sorted(v for v in succs if v is not DIAG and on_cycle & bfs(v).keys())
            res = is_observable(lcn)
            assert res.observable == (not bad)
            if not bad:
                assert res.witness is None
                continue
            unobservable += 1
            w = res.witness
            assert w.pair == bad[0] == w.path[0]
            assert w.path[-1] == w.cycle_entry and w.cycle_entry in on_cycle
            assert all(b in succs[a] for a, b in zip(w.path, w.path[1:]))
            dist = bfs(w.pair)
            assert len(w.path) - 1 == min(d for v, d in dist.items() if v in on_cycle)
        assert 50 < unobservable < 300


class TestExportDot:
    def test_fed_ring_dot(self):
        text = export_dot(observability_graph(nets.RING42_FB_OUT2))
        assert '"12" -> "23" [label="1,2"];' in text
        assert text.index('"12";') < text.index('"DIAG";')

    def test_ones_closed_loop_dot_edge_count(self):
        text = export_dot(observability_graph(nets.BIG84_CL_ONES))
        assert text.count("->") == 10

    def test_empty_nondiagonal_part(self):
        lcn = Lcn(2, 1, 2, LogicalMatrix(2, (1, 2)), logical_identity(2))
        text = export_dot(observability_graph(lcn))
        assert '"DIAG"' in text
        assert text.count("->") == 1  # only the DIAG self-loop

    def test_transition_graph_dot(self):
        text = export_dot(transition_graph(nets.RING42))
        assert '"1" -> "2" [label="2"];' in text

    def test_transition_dot_equals_the_adjacency_writer(self, fixtures_dir):
        # the edge-list writer against an N x N scan of the STP closed form
        rng = random.Random(0x7D07)
        lcns = [random_lcn(rng, n_max=9, m_max=3, q_max=3) for _ in range(2000)]
        lcns += [load_network(p) for p in sorted(fixtures_dir.glob("*.json"))
                 if not p.name.startswith(("ctrl_", "bad_"))]
        assert len(lcns) == 2010
        for lcn in lcns:
            expected = transition_dot_from_adjacency(_adjacency_via_stp(lcn))
            assert export_dot(transition_graph(lcn)) == expected

    def test_deterministic(self):
        a = export_dot(observability_graph(nets.BIG84_CL_MIX))
        b = export_dot(observability_graph(nets.BIG84_CL_MIX))
        assert a == b

    def test_wide_pair_names_past_nine_states(self):
        # concatenated digit names would be ambiguous from state 10 up
        n = 12
        lcn = Lcn(n, 1, 1, LogicalMatrix(n, tuple([1] * n)), LogicalMatrix(1, (1,) * n))
        text = export_dot(observability_graph(lcn))
        assert '"10-11"' in text
        assert '"1011"' not in text
