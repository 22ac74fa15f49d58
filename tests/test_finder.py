import hashlib
import importlib.util
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcover import certificates, finder, hopping
from circuitcover.cuts import CutCertificate, brute_force_min_odd_cut, certify, min_odd_cut
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
    edge_boundary,
    euler_circuit,
    verify_circuit,
)
from circuitcover.oracle import feasible_by_bruteforce
from circuitcover.segments import segment

from conftest import (
    atlas_slice,
    bowtie,
    complete_graph,
    connected_graphs,
    cycle_graph,
    sparse_random_graphs,
    under_python_optimize,
)


class TestBaseCircuit:
    def test_unit_cut_exactly_on_bridges(self):
        for g in sparse_random_graphs():
            for eid in range(g.m):
                bridges, comp, _ = bridges_and_2ec_components(g, (), eid)
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
        for g in sparse_random_graphs():
            for eid in range(g.m):
                _, comp, _ = bridges_and_2ec_components(g, (), eid)
                if comp is None:
                    continue
                verts = sorted(comp)
                # the component's edges: those with both ends in its vertices
                inner = {e for e, (u, v) in enumerate(g.edges) if u in comp and v in comp}
                s = rng.choice(verts)
                for t in (s, rng.choice([v for v in verts if v != s])):
                    # the finder's flow runs over the whole leftover: with
                    # no circuit yet, no edge is barred
                    out = _trail_through_edge(g, (), eid, s, t)
                    assert certificates.trail_fault(g.n, g.edges, out.vertices, out.edges) == ""
                    assert (out.start, out.end) == (s, t) and eid in out.edges
                    assert set(out.edges) <= inner


def _swap_first_two(t: Trail) -> Trail:
    """t with its first two edge ids swapped: the same edge set and ends,
    but step 0 no longer follows its edge."""
    return Trail(t.vertices, (t.edges[1], t.edges[0]) + t.edges[2:])


# two triangles joined by a perfect matching; with S = {0, 5} the flow of
# the first extension splits into the walks 4-3-2 and 5-2
TWO_TRIANGLES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]


class TestTrailFaultsAreCoherenceFaults:
    # a trail the finder builds that is no trail of g is the finder's own
    # fault: it must surface as CoherenceViolated, not as the ValueError
    # that reports bad input

    def test_flow_walks_that_repeat_an_edge(self, monkeypatch):
        # the y-walk steps back along its first edge and out along it again,
        # a walk of g that repeats an edge; the joined trail goes unchecked
        # until trail_fault reads it
        real = finder._two_walks

        def corrupt(net, starts, ends):
            p1, p2 = real(net, starts, ends)
            v, e = p2.vertices, p2.edges
            return p1, Trail(v[:2] + v[:2] + v[2:], e[:1] * 3 + e[1:])

        monkeypatch.setattr(finder, "_two_walks", corrupt)
        with pytest.raises(
            CoherenceViolated, match="^flow walks make no trail: duplicate edge in walk$"
        ):
            find_circuit(Graph.from_edges(6, TWO_TRIANGLES), {0, 5})

    def test_flow_walks_that_repeat_an_edge_under_python_optimize(self):
        script = (
            "from circuitcover import finder\n"
            "from circuitcover.errors import CoherenceViolated\n"
            "from circuitcover.graphs import Graph, Trail\n"
            "real = finder._two_walks\n"
            "def corrupt(net, starts, ends):\n"
            "    p1, p2 = real(net, starts, ends)\n"
            "    v, e = p2.vertices, p2.edges\n"
            "    return p1, Trail(v[:2] + v[:2] + v[2:], e[:1] * 3 + e[1:])\n"
            "finder._two_walks = corrupt\n"
            f"g = Graph.from_edges(6, {TWO_TRIANGLES})\n"
            "try:\n"
            "    finder.find_circuit(g, {0, 5})\n"
            "except CoherenceViolated as exc:\n"
            "    print(exc)\n"
        )
        assert under_python_optimize(script) == "flow walks make no trail: duplicate edge in walk\n"

    def test_flow_walks_off_the_graph(self, monkeypatch):
        g = Graph.from_edges(6, TWO_TRIANGLES)
        real = finder._two_walks

        def corrupt(net, starts, ends):
            return tuple(_swap_first_two(w) if len(w) > 1 else w for w in real(net, starts, ends))

        monkeypatch.setattr(finder, "_two_walks", corrupt)
        with pytest.raises(CoherenceViolated, match="flow walks make no trail: step 0 does not"):
            find_circuit(g, {0, 5})

    def test_opened_circuit_off_the_graph(self, monkeypatch):
        # H = triangle {0,1,2}; a disjoint triangle joined by two bridges, so
        # edge 4 = (3,5) takes the detached case, and the open trail through
        # it inside the triangle, the only call with two distinct targets,
        # passes its own check before it is corrupted
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 3), (2, 4)]
        )
        real = finder._trail_through_edge

        def corrupt(g_, barred, eid, s, t):
            out = real(g_, barred, eid, s, t)
            return out if s == t else _swap_first_two(out)

        monkeypatch.setattr(finder, "_trail_through_edge", corrupt)
        with pytest.raises(CoherenceViolated, match="opened circuit fails: .* does not follow"):
            find_circuit(g, {0, 4})


class TestExtendCircuit:
    def test_edge_already_on_circuit(self):
        g = cycle_graph(4)
        h = Trail((1, 2, 3, 0, 1), (1, 2, 3, 0))  # canonical: ends on edge 0
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


def _splice_by_dfs(g, h, e_next):
    """The splice as the finder made it when it classified e_next first:
    the 2EC query, v = min(comp & V(h)), the flow to v and an Euler tour.
    Returns (v, circuit), or None when e_next is no splice."""
    _, comp, _ = bridges_and_2ec_components(g, h.edge_set(), e_next)
    shared = comp and comp & frozenset(h.vertices)
    if not shared:
        return None
    v = min(shared)
    star = _trail_through_edge(g, h.edge_set(), e_next, v, v)
    return v, euler_circuit(g, h.edge_set() | star.edge_set(), start=h.vertices[0])


def _first_rich_vertex(g, h):
    """Smallest vertex of h with two or more edges of g outside h, or None."""
    h_edges = h.edge_set()
    rich = [
        u for u in set(h.vertices)
        if sum(1 for _, e in g.adjacency[u] if e not in h_edges) >= 2
    ]
    return min(rich, default=None)


def _hanging_end(g, h, e_next):
    """True when an end of e_next has no edge outside h other than e_next."""
    h_edges = h.edge_set()
    return any(
        all(e in h_edges or e == e_next for _, e in g.adjacency[u]) for u in g.endpoints(e_next)
    )


class TestSpliceFirst:
    @pytest.fixture
    def events(self, monkeypatch):
        """What extend_circuit ran, in order: 'hit' or 'miss' for each flow
        and 'dfs' for each 2EC query."""
        log = []

        def flow(*args, _real=finder._trail_through_edge):
            out = _real(*args)
            log.append("miss" if out is None else "hit")
            return out

        def dfs(*args, _real=finder.bridges_and_2ec_components):
            log.append("dfs")
            return _real(*args)

        monkeypatch.setattr(finder, "_trail_through_edge", flow)
        monkeypatch.setattr(finder, "bridges_and_2ec_components", dfs)
        return log

    @staticmethod
    def _corpus():
        rng = random.Random(12)
        for g in sparse_random_graphs(40):
            for _ in range(4):
                yield g, sorted(rng.sample(range(g.m), min(g.m, rng.randint(2, 8))))
        for seed in range(6):
            g = random_connected(60, 240, 1, seed=seed).graph
            for k in (8, 24):
                yield g, sorted(rng.sample(range(g.m), k))
        for seed in range(6):
            g = random_connected(40, 60, 1, seed=100 + seed).graph
            yield g, sorted(rng.sample(range(g.m), 12))

    def test_same_splice_as_classifying_first(self, events):
        # every extension find_circuit makes: the splice must be the one the
        # DFS route gives, and it runs no DFS exactly when min(comp & V(h))
        # is the smallest vertex of h with two leftover edges; an e_next with
        # an end that has no other leftover edge runs neither flow nor DFS
        first = {"hit": 0, "miss": 0, "dfs": 0, "none": 0}  # what each extension ran first
        no_candidate = 0  # no vertex of h has two leftover edges
        late = 0  # spliced at a larger vertex of h than the first with two
        for g, s in self._corpus():
            result = finder._base_circuit(g, s[0])
            placed = {s[0]}
            for e_next in s[1:]:
                if isinstance(result, CutCertificate):
                    break
                h = segment(g, result, placed).trail
                if e_next in h.edge_set():
                    placed.add(e_next)
                    result = h
                    continue
                expected = _splice_by_dfs(g, h, e_next)
                candidate = _first_rich_vertex(g, h)
                hanging = _hanging_end(g, h, e_next)
                events.clear()
                result = extend_circuit(g, h, placed, e_next)
                assert (not events) == hanging
                first[events[0] if events else "none"] += 1
                no_candidate += candidate is None
                if hanging:  # e_next is a bridge of the leftover
                    assert expected is None
                if expected is None:
                    # no splice: the first flow, if any, must have missed
                    # (the detached case runs its own flow after the DFS)
                    assert events[:1] != ["hit"]
                else:
                    v, circuit = expected
                    assert result == circuit
                    assert (events == ["hit"]) == (v == candidate)
                    late += v != candidate
                if candidate is None and not hanging:
                    assert events[0] == "dfs"
                placed.add(e_next)
        assert all(first.values()) and no_candidate and late, (first, no_candidate, late)

    def test_first_rich_vertex_splices_without_dfs(self, events):
        # two triangles sharing vertex 2; h is the one through 0 and 1, whose
        # vertices have no leftover edges, so the first try goes to 2
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        h = Trail((1, 2, 0, 1), (2, 1, 0))  # canonical: ends on edge 0
        out = extend_circuit(g, h, {0}, 5)
        assert events == ["hit"]
        assert out == _splice_by_dfs(g, h, 5)[1]
        assert verify_circuit(g, out, {0, 5})

    def test_hanging_end_goes_straight_to_bridge_case(self, events, monkeypatch):
        # K4 with h the triangle 0 1 2: vertex 0's only edge outside h is
        # e_next = (0, 3), so e_next is a bridge of the leftover at once
        g = complete_graph(4)
        h = Trail((1, 2, 0, 1), (3, 1, 0))  # canonical: ends on edge 0
        bridged = []

        def spy(*args, _real=finder.bridge_case):
            bridged.append(args[2])
            return _real(*args)

        monkeypatch.setattr(finder, "bridge_case", spy)
        out = extend_circuit(g, h, {0}, 2)
        assert events == [] and bridged == [2]
        assert out.vertices == (3, 0, 1, 3)

    def test_miss_falls_back_to_the_component_vertex(self, events):
        # h = triangle 0 1 2.  Vertex 0 has two leftover edges, but they lie
        # in the triangle 0 3 4, which hangs on the bridge 4-5 off e_next's
        # component {2, 5, 6}: the flow to 0 carries one unit, not two, and
        # the splice must go through 2
        g = Graph.from_edges(
            7,
            [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (3, 4), (4, 5), (2, 5), (2, 6), (5, 6)],
        )
        h = Trail((1, 2, 0, 1), (1, 2, 0))  # canonical: ends on edge 0
        out = extend_circuit(g, h, {0}, 9)
        assert events[:2] == ["miss", "dfs"]
        assert out == _splice_by_dfs(g, h, 9)[1]
        assert verify_circuit(g, out, {0, 9})
        assert out.edge_set() == {0, 1, 2, 7, 8, 9}


def _cubic_graph(n, rng):
    """A Hamiltonian cycle on 0..n-1 plus a random perfect matching that
    avoids its edges: cubic and 2-edge-connected (n even, n >= 6)."""
    cycle = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while True:
        order = rng.sample(range(n), n)
        matching = {tuple(sorted(order[i : i + 2])) for i in range(0, n, 2)}
        if not matching & cycle:
            return Graph.from_edges(n, sorted(cycle | matching))


class TestDetachedCase:
    def test_barring_the_boundary_keeps_the_opening_trail(self, monkeypatch):
        # the opening flow bars comp's boundary bridges and nothing else: H
        # shares no vertex with comp, so the trail must be the one the flow
        # gives with H's edges barred as well
        segmented = []  # the canonical form of each extension's H
        opening = []  # (comp, H's edges) of the opening under way
        compared = []

        def segment_(g, h, s_prefix, _real=finder.segment):
            segmented.append(_real(g, h, s_prefix))
            return segmented[-1]

        def open_(g, circuit_c, comp, barred, e_next, _real=finder._open_contracted_vertex):
            opening.append((comp, segmented[-1].h_edges))
            try:
                return _real(g, circuit_c, comp, barred, e_next)
            finally:
                opening.pop()

        def flow(g, barred, eid, s, t, _real=finder._trail_through_edge):
            out = _real(g, barred, eid, s, t)
            if opening:
                comp, h_edges = opening[-1]
                boundary = edge_boundary(g, comp)
                assert boundary and frozenset(barred) == boundary
                assert h_edges and not h_edges & boundary
                assert _real(g, h_edges | boundary, eid, s, t) == out
                compared.append(eid)
            return out

        monkeypatch.setattr(finder, "segment", segment_)
        monkeypatch.setattr(finder, "_open_contracted_vertex", open_)
        monkeypatch.setattr(finder, "_trail_through_edge", flow)
        # on a cubic graph each vertex of H has one edge left, so most
        # extensions take the detached case
        rng = random.Random(3)
        for n in (20, 30) * 4:
            g = _cubic_graph(n, rng)
            for k in (4, 8, 8):
                find_circuit(g, rng.sample(range(g.m), k))
        assert len(compared) >= 20, len(compared)

    # 0-1-2-0 hangs on the bridge 2-3 (edge 3); 3 carries the 2-edge-connected
    # square 3-4-5-6-3 (edges 4 to 7) that the extension through edge 5 must
    # reach.  The DFS's answer for it is comp {3, 4, 5, 6} with boundary (3,).
    # Each case swaps in a bad (comp, boundary), and adds the boundary to
    # the bridges where the case is meant for the contraction's own checks.
    @pytest.mark.parametrize(
        "comp, boundary, as_bridges, fault",
        [
            # {4, 6} is not connected; its boundary edges are no bridges
            ({4, 6}, (4, 5, 6, 7), False, "must hang on bridges"),
            # {4, 5, 6}'s boundary edges (3, 4) and (3, 6) share the end 3
            ({4, 5, 6}, (4, 7), True, "must contract.*duplicates"),
            # the boundary misses comp's one crossing edge, the bridge 3
            ({3, 4, 5, 6}, (), False, "must hang on bridges"),
            # edge 4 = (3, 4) has both ends in comp
            ({3, 4, 5, 6}, (3, 4), True, "must contract.*exactly one end"),
        ],
        ids=["disconnected", "shared_outside_end", "missed_crossing_edge", "both_ends_inside"],
    )
    def test_a_bad_component_is_an_internal_fault(
        self, monkeypatch, comp, boundary, as_bridges, fault
    ):
        # the DFS's component and boundary are the finder's own, so one that
        # the finder's checks or contract_subgraph refuse must surface as
        # CoherenceViolated, not as the ValueError that reports bad input
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)])
        real = finder.bridges_and_2ec_components

        def dfs(g_, barred, eid):
            answer = real(g_, barred, eid)
            if answer[1:] != (frozenset({3, 4, 5, 6}), (3,)):
                return answer
            bridges = answer[0] | set(boundary) if as_bridges else answer[0]
            return bridges, frozenset(comp), boundary

        monkeypatch.setattr(finder, "bridges_and_2ec_components", dfs)
        with pytest.raises(CoherenceViolated, match=fault):
            find_circuit(g, [0, 5])

    @pytest.mark.parametrize("bad", ["other_boundary", "even"])
    def test_a_certificate_that_does_not_lift_is_an_internal_fault(self, monkeypatch, bad):
        # two triangles joined by the bridge 6: extending through edge 3
        # contracts the far triangle to vertex g.n, and the cut bridge_case
        # returns there must lift to an odd cut of g with the same boundary
        g = two_cycles_bridge(3, 3).graph
        real = finder.bridge_case

        def fake(g_, seg, eid):
            if g_.n != g.n + 1:
                return real(g_, seg, eid)
            if bad == "other_boundary":  # g.n lifts to {3, 4, 5}, boundary {6}
                return CutCertificate(frozenset({g.n}), frozenset({0}))
            return certify(g_, {1})  # the even cut {0, 1} round vertex 1

        monkeypatch.setattr(finder, "bridge_case", fake)
        with pytest.raises(CoherenceViolated, match="did not lift"):
            find_circuit(g, {0, 3})


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

    @pytest.mark.parametrize("side", [{1}, {0, 1}], ids=["larger-than-S", "even"])
    def test_a_certificate_beyond_the_bound_is_caught(self, monkeypatch, side):
        # K4 with S = {0, 5}: the star of vertex 1 is an odd cut of size
        # 3 = |S| + 1, and {0, 1} bounds the even cut of size 4
        g = complete_graph(4)
        monkeypatch.setattr(finder, "extend_circuit", lambda g_, h, placed, e: certify(g, side))
        with pytest.raises(CoherenceViolated, match="odd cut of size <= |S|"):
            find_circuit(g, {0, 5})

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
        norm = segment(g, h, {5}).trail
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
        for g in sparse_random_graphs():
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
        # the detached case in contract_subgraph; the descent reroutes on the
        # A side, and mirrored on the B side; each must be reached
        targets = [
            (finder, "euler_circuit"),
            (finder, "bridge_case"),
            (finder, "contract_subgraph"),
            (hopping, "_reroute"),
            (hopping, "_mirror"),
        ]
        reached = dict.fromkeys((name for _, name in targets), 0)
        for module, name in targets:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                reached[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
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


class TestAtlas:
    # SHA-256 over the answers of every prescribed set of size 1 or 2 on the
    # 995 connected atlas graphs with at least two vertices, as the finder
    # gave them when the detached case still renumbered its contraction
    PINNED = "cb185845a8f492ae58f2b1e60656107592008acb36507b0182e3cfdee1de95fe"

    def test_every_set_of_size_at_most_two(self):
        # sweep checks each answer: a circuit verifies, a cut is odd, valid
        # and of size <= |S|, and no cut comes where the brute-force minimum
        # odd cut exceeds |S|; it raises RuntimeError on the first failure
        pytest.importorskip("networkx")
        path = Path(__file__).resolve().parent.parent / "scripts" / "atlas_sweep.py"
        spec = importlib.util.spec_from_file_location("atlas_sweep", path)
        atlas_sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(atlas_sweep)
        out = atlas_sweep.sweep(2)
        assert out["calls"] == 66125 and out["detached"] > 0, out
        # cut answers for a set that some circuit covers
        assert out["cut_feasible"] == 3, out
        assert out["sha256"] == self.PINNED

    def test_every_set_of_size_three_on_a_slice(self, monkeypatch):
        graphs = atlas_slice()
        reached = {"_reroute": 0, "_mirror": 0}
        for name in reached:
            def counted(*args, _name=name, _fn=getattr(hopping, name)):
                reached[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(hopping, name, counted)
        calls = cuts = 0
        for g in graphs:
            brute = brute_force_min_odd_cut(g)
            for s in combinations(range(g.m), 3):
                out = find_circuit(g, s)
                calls += 1
                if isinstance(out, Trail):
                    assert certificates.circuit_fault(g.n, g.edges, out.vertices, out.edges, s) == ""
                    continue
                cuts += 1
                fault = certificates.cut_fault(
                    g.n, g.edges, out.side, out.boundary, out.size, out.odd, 3
                )
                assert fault == "", (g, s, fault)
                assert brute is not None and out.size >= brute.size, (g, s)
        assert (len(graphs), calls) == (34, 6844) and cuts > 0, (len(graphs), calls, cuts)
        assert all(reached.values()), reached
