import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcover.cuts import CutCertificate
from circuitcover.errors import BadEdgeId, TooLarge
from circuitcover.generators import ladder, random_connected
from circuitcover.graphs import Graph, connected_components, is_connected, is_even_subgraph
from circuitcover.jaeger import EvenExtension, extend_to_even_subgraph, odd_cut_within
from circuitcover.oracle import cycle_space_basis, min_components_even_extension

from conftest import complete_graph, connected_graphs, cycle_graph


class TestExtendToEven:
    def test_one_edge_of_c4_forces_the_whole_cycle(self):
        g = cycle_graph(4)
        ext = extend_to_even_subgraph(g, {0})
        assert isinstance(ext, EvenExtension)
        assert ext.even_set == g.all_edges()
        assert ext.components == 1

    def test_three_ladder_rungs_extend(self):
        g = ladder(4).graph
        ext = extend_to_even_subgraph(g, {0, 1, 2})
        assert isinstance(ext, EvenExtension)
        assert {0, 1, 2} <= ext.even_set

    def test_star_yields_certificate(self):
        g = complete_graph(4)
        star = frozenset(eid for _, eid in g.adjacency[3])
        out = extend_to_even_subgraph(g, star)
        assert isinstance(out, CutCertificate)
        assert out.boundary == star

    def test_json_shape(self):
        ext = extend_to_even_subgraph(cycle_graph(4), {0})
        assert ext.to_json() == {"edges": [0, 1, 2, 3], "components": 1}

    @given(connected_graphs(), st.data())
    @settings(max_examples=80)
    def test_outcome_matches_odd_cut_within(self, g, data):
        s = frozenset(data.draw(st.sets(st.integers(0, g.m - 1)))) if g.m else frozenset()
        out = extend_to_even_subgraph(g, s)
        cut = odd_cut_within(g, s)
        if isinstance(out, EvenExtension):
            assert cut is None
            assert s <= out.even_set
            assert is_even_subgraph(g, out.even_set)
        else:
            assert cut is not None

    @given(connected_graphs(), st.data())
    @settings(max_examples=80)
    def test_join_corrects_exactly_the_odd_vertices(self, g, data):
        s = frozenset(data.draw(st.sets(st.integers(0, g.m - 1)))) if g.m else frozenset()
        out = extend_to_even_subgraph(g, s)
        if not isinstance(out, EvenExtension):
            return
        join = out.even_set - s
        deg_s = [0] * g.n
        deg_j = [0] * g.n
        for eid in s:
            for v in g.endpoints(eid):
                deg_s[v] += 1
        for eid in join:
            for v in g.endpoints(eid):
                deg_j[v] += 1
        for v in range(g.n):
            assert deg_j[v] % 2 == deg_s[v] % 2  # join is odd exactly on T


class TestMinComponents:
    def test_c6_two_edges(self):
        assert min_components_even_extension(cycle_graph(6), {0, 3}) == 1

    def test_ladder4_three_rungs(self):
        assert min_components_even_extension(ladder(4).graph, {0, 1, 2}) == 2

    def test_ladder6_five_rungs(self):
        assert min_components_even_extension(ladder(6).graph, {0, 1, 2, 3, 4}) == 3

    @pytest.mark.parametrize("eid", [-1, 10, 99])
    def test_rejects_an_edge_id_out_of_range(self, eid):
        g = ladder(4).graph  # m = 10
        with pytest.raises(BadEdgeId):
            min_components_even_extension(g, {0, eid})

    def test_guard(self):
        big = ladder(12).graph  # n = 24 > 20
        with pytest.raises(TooLarge):
            min_components_even_extension(big, {1})

    @given(connected_graphs(max_n=6, max_extra=4), st.data())
    @settings(max_examples=40)
    def test_never_below_extension_component_count(self, g, data):
        if cycle_space_basis(g).dim > 10:
            return
        s = frozenset(data.draw(st.sets(st.integers(0, g.m - 1), max_size=3))) if g.m else frozenset()
        out = extend_to_even_subgraph(g, s)
        if not isinstance(out, EvenExtension) or not s:
            return
        best = min_components_even_extension(g, s)
        assert best <= out.components


def _sorted_sets(sets) -> list:
    # a frozenset's repr follows its insertion order; the digest must not
    return [sorted(x) for x in sets]


class TestPinnedParityAnswers:
    # SHA-256 over every answer of the parity tools on the corpus below, as
    # they gave them when each tool ran its own traversal of the graph
    PINNED = "0f3fb292f546a8876bd47fe37070e495c5a0d77f401dd5e02fe0f9d96f62cb18"

    @staticmethod
    def _corpus():
        # seeded connected graphs, sparse to moderately dense, and one
        # disconnected graph: two random graphs side by side plus two
        # isolated vertices; each with random prescribed sets of size 0..8
        rng = random.Random(17)
        graphs = []
        for seed in range(40):
            n = rng.randint(3, 24)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
            graphs.append(random_connected(n, m, 1, seed=seed).graph)
        a = random_connected(12, 20, 1, seed=101).graph
        b = random_connected(9, 14, 1, seed=102).graph
        graphs.append(Graph.from_edges(
            a.n + b.n + 2, a.edges + tuple((u + a.n + 1, v + a.n + 1) for u, v in b.edges)
        ))
        for g in graphs:
            sets = [frozenset(rng.sample(range(g.m), k)) for k in range(min(g.m, 8) + 1)]
            sets += [frozenset(rng.sample(range(g.m), g.m // 2)) for _ in range(4)]
            yield g, sets

    def test_answers_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for g, sets in self._corpus():
            basis = cycle_space_basis(g)
            key = [_sorted_sets(connected_components(g)), is_connected(g)]
            key += [basis.masks, sorted(basis.forest_edges)]
            for s in sets:
                cut = odd_cut_within(g, s)
                ext = extend_to_even_subgraph(g, s)
                key += [
                    _sorted_sets(connected_components(g, s)),
                    _sorted_sets(connected_components(g, g.all_edges() - s)),
                    None if cut is None else sorted(cut.side),
                    ("E", sorted(ext.even_set), ext.components)
                    if isinstance(ext, EvenExtension)
                    else ("C", sorted(ext.side)),
                ]
            digest.update(repr(key).encode())
        assert digest.hexdigest() == self.PINNED
