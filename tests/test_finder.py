import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcover import finder
from circuitcover.cuts import CutCertificate, min_odd_cut
from circuitcover.errors import CoherenceViolated, DisconnectedInput, EmptyPrescribed
from circuitcover.finder import (
    _trail_through_edge,
    extend_circuit,
    find_circuit,
)
from circuitcover.generators import double_clique, ladder, random_connected, two_cycles_bridge
from circuitcover.graphs import (
    Graph,
    Trail,
    bridges_and_2ec_components,
    validate_trail,
    verify_circuit,
)
from circuitcover.oracle import feasible_by_bruteforce
from circuitcover.segments import normalize_circuit

from conftest import bowtie, complete_graph, connected_graphs, cycle_graph


def _sparse_random_graphs(count=30):
    # m between n - 1 and 2n, so that many graphs have bridges and several
    # 2-edge-connected components
    rng = random.Random(2024)
    out = []
    for seed in range(count):
        n = rng.randint(4, 30)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        out.append(random_connected(n, m, 1, seed=seed).graph)
    return out


class TestBaseCircuit:
    def test_unit_cut_exactly_on_bridges(self):
        for g in _sparse_random_graphs():
            for eid in range(g.m):
                bridges, comp = bridges_and_2ec_components(g, g.all_edges(), eid)
                assert (comp is None) == (eid in bridges)
                out = find_circuit(g, [eid])
                if comp is None:
                    assert isinstance(out, CutCertificate)
                    assert out.boundary == frozenset({eid}) and out.is_valid_for(g)
                else:
                    assert isinstance(out, Trail) and out.edges[0] == eid
                    assert verify_circuit(g, out, {eid})


class TestTrailThroughEdge:
    def test_s_t_trails_in_every_component(self):
        rng = random.Random(7)
        for g in _sparse_random_graphs():
            for eid in range(g.m):
                _, comp = bridges_and_2ec_components(g, g.all_edges(), eid)
                if comp is None:
                    continue
                verts = sorted(comp)
                # the component's edges: those with both ends in its vertices
                inner = {e for e, (u, v) in enumerate(g.edges) if u in comp and v in comp}
                s = rng.choice(verts)
                for t in (s, rng.choice([v for v in verts if v != s])):
                    # the finder's flow runs over the whole leftover edge set
                    out = _trail_through_edge(g, g.all_edges(), eid, s, t)
                    validate_trail(g, out)
                    assert (out.start, out.end) == (s, t) and eid in out.edges
                    assert set(out.edges) <= inner


class TestExtendCircuit:
    def test_edge_already_on_circuit(self):
        g = cycle_graph(4)
        h = Trail((0, 1, 2, 3, 0), (0, 1, 2, 3))
        assert extend_circuit(g, h, {0}, 2) is h

    def test_bowtie_splice_through_shared_vertex(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0), (0, 2, 1))
        out = extend_circuit(g, h, {0}, 5)
        assert isinstance(out, Trail)
        assert verify_circuit(g, out, {0, 5})
        assert len(out) == 6

    def test_detached_component_contraction(self):
        # H = triangle {0,1,2}; a disjoint triangle joined by two bridges
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 3), (2, 4)]
        )
        h = Trail((0, 1, 2, 0), (0, 2, 1))
        out = extend_circuit(g, h, {0}, 4)  # e_next = (3,5)
        assert isinstance(out, Trail)
        assert verify_circuit(g, out, {0, 4})

    def test_detached_certificate_lifts_the_contracted_vertex(self, monkeypatch):
        # two triangles joined by the bridge 6: the far triangle holding edge
        # 3 is contracted to vertex g.n, and bridge_case's cut is that vertex
        g = two_cycles_bridge(3, 3).graph
        sides = []

        def spy(*args, _real=finder.bridge_case):
            out = _real(*args)
            if isinstance(out, CutCertificate):
                sides.append(out.side)
            return out

        monkeypatch.setattr(finder, "bridge_case", spy)
        out = find_circuit(g, {0, 3})
        assert isinstance(out, CutCertificate)
        assert out.side == {3, 4, 5} and out.boundary == {6}
        assert len(sides) == 1 and g.n in sides[0]

    def test_bridge_goes_to_hopping(self):
        g = complete_graph(4)
        h = Trail((0, 1, 2, 0), (0, 3, 1))
        out = extend_circuit(g, h, {0}, 2)
        assert isinstance(out, Trail)
        assert out.vertices == (3, 0, 1, 3)


class TestFindCircuit:
    def test_cycle_any_subset(self):
        g = cycle_graph(6)
        for s in ({0}, {1, 4}, {0, 2, 5}, set(range(6))):
            out = find_circuit(g, s)
            assert isinstance(out, Trail)
            assert sorted(out.edges) == list(range(6))

    def test_ladder_three_rungs_certificate(self):
        g = ladder(4).graph
        out = find_circuit(g, {0, 1, 2})
        assert isinstance(out, CutCertificate)
        assert out.odd and out.size == 3
        assert out.is_valid_for(g)
        assert feasible_by_bruteforce(g, {0, 1, 2}) is None

    def test_k4_all_pairs(self):
        g = complete_graph(4)
        for a in range(6):
            for b in range(a + 1, 6):
                out = find_circuit(g, {a, b})
                assert isinstance(out, Trail), (a, b)
                assert verify_circuit(g, out, {a, b})

    def test_prism_clique_set_certificate(self):
        inst = double_clique(3)
        out = find_circuit(inst.graph, inst.prescribed)
        assert isinstance(out, CutCertificate)
        assert out.odd and out.size <= len(inst.prescribed)
        assert feasible_by_bruteforce(inst.graph, inst.prescribed) is None

    def test_bridge_in_s_yields_unit_certificate(self):
        inst = two_cycles_bridge(3, 3)
        g = inst.graph
        out = find_circuit(g, {g.m - 1})  # the bridge itself
        assert isinstance(out, CutCertificate)
        assert out.size == 1

    def test_empty_s_rejected(self):
        with pytest.raises(EmptyPrescribed):
            find_circuit(cycle_graph(3), set())

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda t: Trail(t.vertices[:-1], t.edges[:-1]), "not closed"),
            (lambda t: Trail(t.vertices + t.vertices[1:], t.edges * 2), "duplicate edge"),
            (lambda t: Trail(t.vertices, t.edges[:1] + t.edges[:0:-1]), "does not follow"),
        ],
        ids=["open", "repeated", "off-graph"],
    )
    def test_corrupted_circuit_is_caught(self, monkeypatch, corrupt, reason):
        # each corruption keeps the prescribed edge 0 on the walk
        real = finder._base_circuit
        monkeypatch.setattr(finder, "_base_circuit", lambda g, eid: corrupt(real(g, eid)))
        with pytest.raises(CoherenceViolated, match=reason):
            find_circuit(cycle_graph(5), {0})

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedInput):
            find_circuit(g, {0})

    def test_deterministic(self):
        g = complete_graph(5)
        assert find_circuit(g, {0, 5, 9}) == find_circuit(g, {0, 5, 9})

    @given(connected_graphs(min_n=3), st.data())
    @settings(max_examples=120, deadline=None)
    def test_certifying_contract(self, g, data):
        size = data.draw(st.integers(1, min(4, g.m)))
        s = frozenset(
            data.draw(st.sets(st.integers(0, g.m - 1), min_size=size, max_size=size))
        )
        out = find_circuit(g, s)
        cut = min_odd_cut(g)
        if isinstance(out, Trail):
            assert verify_circuit(g, out, s)
        else:
            assert out.odd and out.size <= len(s)
            assert out.is_valid_for(g)
            # a certificate bounds the true minimum odd cut
            assert cut is not None and cut.size <= len(s)
        if cut is None or cut.size > len(s):
            assert isinstance(out, Trail)

    @given(connected_graphs(max_n=6, max_extra=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_misses_a_feasible_universal_instance(self, g, data):
        # when the finder certifies, the oracle must agree the universal
        # condition fails somewhere: the certificate is a genuine odd cut
        size = data.draw(st.integers(1, min(3, g.m)))
        s = frozenset(
            data.draw(st.sets(st.integers(0, g.m - 1), min_size=size, max_size=size))
        )
        out = find_circuit(g, s)
        if isinstance(out, Trail):
            assert feasible_by_bruteforce(g, s) is not None


class TestNormalizeBeforeExtend:
    def test_spliced_circuits_keep_extending(self):
        # force a case-2a splice and then another extension over the result
        g = Graph.from_edges(
            7,
            [
                (0, 1), (1, 2), (2, 0),          # triangle A
                (0, 3), (3, 4), (4, 0),          # triangle B at 0
                (2, 5), (5, 6), (6, 2),          # triangle C at 2
            ],
        )
        out = find_circuit(g, {0, 4, 7})
        assert isinstance(out, Trail)
        assert verify_circuit(g, out, {0, 4, 7})

    def test_normalization_keeps_prefix(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0, 3, 4, 0), (0, 2, 1, 3, 5, 4))
        norm = normalize_circuit(g, h, {5})
        assert {5} <= norm.edge_set()


class TestPinnedAnswers:
    # SHA-256 over every answer of the corpus below, as the finder gave them
    # when each splice still ran on a renumbered copy of its component
    PINNED = "07c1878321a04b1afc8f6734ab55d915bb1f3d50b6035d422615c43bf6a17f50"

    @staticmethod
    def _corpus():
        # every set of size <= 3 on the sparse graphs with m <= 15, single
        # edges and sampled pairs and triples on the others, and larger sets
        # on four dense graphs
        rng = random.Random(5)
        for g in _sparse_random_graphs():
            if g.m <= 15:
                sets = [c for k in (1, 2, 3) for c in combinations(range(g.m), k)]
            else:
                sets = [(e,) for e in range(g.m)]
            sets += [tuple(sorted(rng.sample(range(g.m), k))) for k in (2, 3) for _ in range(60)]
            yield g, sets
        for seed in range(4):
            g = random_connected(60, 240, 1, seed=seed).graph
            yield g, [tuple(sorted(rng.sample(range(g.m), k))) for k in (4, 8, 16)]

    def test_answers_match_the_pinned_digest(self, monkeypatch):
        # the splice ends in euler_circuit, the bridge case in bridge_case and
        # the detached case in contract_subgraph; each must be reached
        reached = dict.fromkeys(("euler_circuit", "bridge_case", "contract_subgraph"), 0)
        for name in reached:
            def counted(*args, _name=name, _fn=getattr(finder, name), **kwargs):
                reached[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(finder, name, counted)
        digest = hashlib.sha256()
        for g, sets in self._corpus():
            for s in sets:
                out = find_circuit(g, s)
                if isinstance(out, Trail):
                    key = ("T", out.vertices, out.edges)
                else:
                    key = ("C", sorted(out.side), sorted(out.boundary), out.size)
                digest.update(repr(key).encode())
        assert all(reached.values()), reached
        assert digest.hexdigest() == self.PINNED
