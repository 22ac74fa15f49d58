import heapq
import random
from itertools import combinations

import pytest

from circuitcover import generators
from circuitcover.cuts import (
    brute_force_min_odd_cut,
    edge_connectivity,
    min_odd_cut,
)
from circuitcover.errors import BadParam
from circuitcover.generators import (
    double_clique,
    gk_lower_witness,
    ladder,
    random_connected,
    two_cycles_bridge,
)
from circuitcover.graphs import Graph, is_connected


class TestLadder:
    def test_two_rungs_is_a_square(self):
        inst = ladder(2)
        assert inst.graph.n == 4 and inst.graph.m == 4
        assert inst.prescribed == frozenset()

    def test_counts(self):
        inst = ladder(4)
        assert inst.graph.n == 8 and inst.graph.m == 10
        assert inst.prescribed == frozenset({1, 2})

    @pytest.mark.parametrize("r", range(3, 9))
    def test_min_odd_cut_is_three(self, r):
        g = ladder(r).graph
        assert min_odd_cut(g).size == 3
        if g.n <= 12:
            assert brute_force_min_odd_cut(g).size == 3

    def test_prescribed_count(self):
        for r in range(3, 9):
            assert len(ladder(r).prescribed) == r - 2

    def test_bad_param(self):
        with pytest.raises(BadParam):
            ladder(1)


class TestDoubleClique:
    def test_l3_is_the_prism(self):
        inst = double_clique(3)
        assert inst.graph.n == 6 and inst.graph.m == 9
        assert len(inst.prescribed) == 4

    def test_l5_sizes(self):
        inst = double_clique(5)
        assert inst.graph.n == 10
        assert len(inst.prescribed) == 11

    @pytest.mark.parametrize("l", [3, 5, 7])
    def test_edge_connectivity_matches_l(self, l):
        assert edge_connectivity(double_clique(l).graph) == l

    def test_even_l_rejected(self):
        with pytest.raises(BadParam):
            double_clique(4)


class TestTwoCyclesBridge:
    def test_three_three(self):
        inst = two_cycles_bridge(3, 3)
        assert inst.graph.m == 7
        assert inst.prescribed == frozenset({0, 3})
        cert = min_odd_cut(inst.graph)
        assert cert.size == 1 and cert.boundary == frozenset({6})

    def test_four_five(self):
        inst = two_cycles_bridge(4, 5)
        assert inst.graph.n == 9 and inst.graph.m == 10
        assert is_connected(inst.graph)


class TestWitness:
    @pytest.mark.parametrize(
        "k, ell, prescribed", [(4, 3, 4), (5, 3, 4), (11, 5, 11)]
    )
    def test_threshold_arithmetic(self, k, ell, prescribed):
        inst = gk_lower_witness(k)
        assert f"ell-{ell}" in inst.label
        assert len(inst.prescribed) == prescribed <= k

    def test_even_ell_steps_down_to_the_odd_one(self):
        # 8k - 7 = 57 gives l = 4, which is even: the witness takes l = 3
        assert gk_lower_witness(8).label == "gk-witness-8-ell-3"

    @pytest.mark.parametrize("k", range(4, 41))
    def test_ell_is_the_greatest_odd_one_within_k(self, k):
        ell = int(gk_lower_witness(k).label.rsplit("-", 1)[1])
        assert ell % 2 == 1
        assert ell * (ell - 1) // 2 + 1 <= k < (ell + 2) * (ell + 1) // 2 + 1

    def test_k4_is_the_prism(self):
        assert gk_lower_witness(4).graph == double_clique(3).graph

    def test_small_k_rejected(self):
        with pytest.raises(BadParam):
            gk_lower_witness(3)


class TestRandomConnected:
    def test_threshold_one_accepts_any_connected(self):
        inst = random_connected(8, 12, 1, seed=3)
        assert is_connected(inst.graph)
        assert inst.graph.n == 8 and inst.graph.m == 12

    def test_threshold_respected(self):
        inst = random_connected(10, 20, 3, seed=7)
        cert = min_odd_cut(inst.graph)
        assert cert is None or cert.size >= 3

    def test_threshold_two_means_bridgeless(self):
        from circuitcover.graphs import bridges_and_2ec_components

        for seed in range(5):
            g = random_connected(9, 14, 2, seed=seed).graph
            # g is connected, so any edge sees the bridges of all of g
            bridges, comp, boundary = bridges_and_2ec_components(g, (), 0)
            assert not bridges and comp == frozenset(range(g.n)) and boundary == ()
            assert all(u in comp and v in comp for u, v in g.edges)

    def test_deterministic_per_seed(self):
        a = random_connected(9, 16, 3, seed=21).graph
        b = random_connected(9, 16, 3, seed=21).graph
        assert a == b

    def test_high_threshold_falls_back_to_even_degrees(self):
        inst = random_connected(40, 80, 9, seed=1)
        g = inst.graph
        assert g.n == 40 and g.m == 80 and is_connected(g)
        assert min_odd_cut(g) is None or min_odd_cut(g).size >= 9

    def test_infeasible_params_rejected(self):
        with pytest.raises(BadParam):
            random_connected(5, 3, 1, seed=0)


def _listed_tree_plus_edges(n, m, rng):
    """Reference proposal: a Pruefer-sequence tree plus a sample of the list of
    every non-edge in combinations() order."""
    edges = set()
    if n == 2:
        edges.add((0, 1))
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.add((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        edges.add(tuple(sorted(leaves)))
    spare = [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in edges]
    extra = rng.sample(spare, m - len(edges))
    return Graph.from_edges(n, sorted(edges) + sorted(extra))


def _proposal_cases():
    """About 200 seeded (n, m), the extremes m = n - 1 and m = n(n-1)/2 included."""
    rng = random.Random(17)
    out = [(2, 1), (3, 2), (3, 3), (12, 11), (12, 66), (40, 780)]
    while len(out) < 200:
        n = rng.randint(2, 60)
        out.append((n, rng.randint(n - 1, n * (n - 1) // 2)))
    return out


class TestUniformTreePlusEdges:
    """Sampling non-edge ranks draws the same graphs as listing the non-edges."""

    def test_same_edges_and_random_state_as_listing(self):
        for i, (n, m) in enumerate(_proposal_cases()):
            ours, ref = random.Random(i), random.Random(i)
            assert generators._uniform_tree_plus_edges(n, m, ours) == _listed_tree_plus_edges(n, m, ref)
            assert ours.getstate() == ref.getstate()

    def test_criterion_nine_call_unchanged(self, monkeypatch):
        ours = random_connected(200, 800, 9, seed=11)
        monkeypatch.setattr(generators, "_uniform_tree_plus_edges", _listed_tree_plus_edges)
        assert random_connected(200, 800, 9, seed=11) == ours
