from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcover.cuts import brute_force_min_odd_cut
from circuitcover.errors import BadEdgeId, TooLarge
from circuitcover.generators import double_clique, ladder, two_cycles_bridge
from circuitcover.graphs import verify_circuit
from circuitcover.oracle import (
    check_parity_monotonicity,
    cycle_space_basis,
    enumerate_connected_even_sets,
    feasible_by_bruteforce,
)

from conftest import (
    complete_graph,
    connected_atlas,
    connected_graphs,
    cycle_graph,
    triangles_with_bridge,
)


class TestCycleSpace:
    @given(connected_graphs())
    @settings(max_examples=60)
    def test_dimension_and_evenness(self, g):
        from circuitcover.graphs import is_even_subgraph

        basis = cycle_space_basis(g)
        assert basis.dim == g.m - g.n + 1
        for mask in basis.masks:
            edges = [e for e in range(g.m) if mask >> e & 1]
            assert is_even_subgraph(g, edges)


class TestFeasibility:
    def test_cycle_is_always_feasible(self):
        g = cycle_graph(6)
        t = feasible_by_bruteforce(g, {0, 2, 4})
        assert t is not None and sorted(t.edges) == list(range(6))

    def test_ladder_three_rungs_infeasible(self):
        assert feasible_by_bruteforce(ladder(4).graph, {0, 1, 2}) is None

    def test_prism_prescribed_infeasible(self):
        inst = double_clique(3)
        assert feasible_by_bruteforce(inst.graph, inst.prescribed) is None

    def test_two_cycles_bridge_infeasible(self):
        inst = two_cycles_bridge(3, 3)
        assert feasible_by_bruteforce(inst.graph, inst.prescribed) is None

    def test_returned_trail_verifies(self):
        g = complete_graph(5)
        s = {0, 4, 7}
        t = feasible_by_bruteforce(g, s)
        assert verify_circuit(g, t, s)

    def test_guard(self):
        g = complete_graph(9)  # dim 28
        with pytest.raises(TooLarge):
            feasible_by_bruteforce(g, {0})

    @pytest.mark.parametrize("eid", [-1, 10])
    def test_rejects_an_edge_id_out_of_range(self, eid):
        g = complete_graph(5)  # m = 10
        with pytest.raises(BadEdgeId):
            feasible_by_bruteforce(g, {0, eid})

    @given(connected_graphs(max_n=7, max_extra=5), st.data())
    @settings(max_examples=60)
    def test_batch_table_matches_single_queries(self, g, data):
        # S is feasible iff it lies inside some connected even edge set
        table = enumerate_connected_even_sets(g)
        for _ in range(5):
            size = data.draw(st.integers(1, min(3, g.m)))
            s = frozenset(
                data.draw(
                    st.sets(st.integers(0, g.m - 1), min_size=size, max_size=size)
                )
            )
            if not s:
                continue
            inside = any(sum(1 << e for e in s) & ~f == 0 for f in table)
            assert (feasible_by_bruteforce(g, s) is not None) == inside


class TestConnectedEvenSets:
    def test_cycle_has_exactly_one(self):
        masks = enumerate_connected_even_sets(cycle_graph(5))
        assert masks == [(1 << 5) - 1]

    def test_bridged_triangles_have_two(self):
        masks = enumerate_connected_even_sets(triangles_with_bridge())
        assert sorted(m.bit_count() for m in masks) == [3, 3]


class TestParityMonotonicity:
    def test_c6(self):
        assert check_parity_monotonicity(cycle_graph(6), 1)

    def test_bridged_triangles_vacuous(self):
        # a bridge makes some single edge infeasible, so k=1 holds vacuously
        assert check_parity_monotonicity(triangles_with_bridge(), 1)

    def test_guard(self):
        with pytest.raises(TooLarge):
            check_parity_monotonicity(complete_graph(7), 1)

    @given(connected_graphs(max_n=6, max_extra=6))
    @settings(max_examples=40)
    def test_always_true_on_small_graphs(self, g):
        if g.m > 16:
            return
        for k in (1, 2):
            assert check_parity_monotonicity(g, k)


class TestAtlasTheorem:
    def test_every_set_of_size_at_most_four(self):
        # the theorem on every connected graph with 2 to 7 vertices: every
        # k-set lies in a connected even edge set exactly when no odd cut has
        # k edges or fewer; each k stops at the first set that lies in none
        graphs = connected_atlas()
        scanned = 0
        for g in graphs:
            masks = enumerate_connected_even_sets(g)
            cut = brute_force_min_odd_cut(g)
            for k in range(1, min(4, g.m) + 1):
                all_feasible = True
                for combo in combinations(range(g.m), k):
                    scanned += 1
                    s_mask = sum(1 << e for e in combo)
                    if not any(s_mask & ~f == 0 for f in masks):
                        all_feasible = False
                        break
                assert all_feasible == (cut is None or cut.size > k), (g, k)
        assert (len(graphs), scanned) == (995, 253268)
