"""Fixtures for the reach fixpoint, coherent trails, and the descent.

The frozen values below were derived by hand on paper-sized instances and
double-checked against the cut oracle and the circuit verifier.
"""
import random

import pytest

from circuitcover import hopping
from circuitcover.cuts import CutCertificate, brute_force_min_odd_cut
from circuitcover.errors import BadEdgeId, BadParam, CoherenceViolated
from circuitcover.finder import find_circuit
from circuitcover.graphs import Graph, Trail, verify_circuit
from circuitcover.hopping import (
    bridge_case,
    check_coherent,
    hopping_fixpoint,
    initial_coherent_trail,
    reroute_descent,
)
from circuitcover.segments import segment

from conftest import complete_graph, sparse_random_graphs, triangles_with_bridge


def k4_fixture():
    """H = triangle 0-1-2 through edge (0,1); excluded edge (0,3)."""
    g = complete_graph(4)  # edges (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5
    h = Trail((0, 1, 2, 0), (0, 3, 1))
    seg = segment(g, h, {0})
    return g, seg


def two_level_fixture():
    """8-cycle circuit with two separators; one side needs two reach levels.

    A = reach from 8 hits segment one at level 1 ({1,2}) and segment two
    only at level 2 (via 10 to 5); B = reach from 9 hits segment two at
    level 1 ({6}).
    """
    edges = [(i, i + 1) for i in range(7)] + [(7, 0)]
    edges += [(8, 1), (8, 2), (9, 6), (1, 10), (10, 5), (8, 9)]
    g = Graph.from_edges(11, edges)
    h = Trail(tuple(range(8)) + (0,), tuple(range(8)))
    seg = segment(g, h, {3, 7})
    return g, h, seg, 13  # excluded edge (8,9)


def repeat_fixture():
    """H = 3-1-4-0-1-2-3 through edges 0 and 2, passing vertex 1 twice.

    With edge 3 = (2,4) excluded, A_1 = {0, 2} spans all of segment two,
    (0, 1, 2), and the initial trail (1, 3, 2, 1, 0, 4) at level (1, 0)
    passes vertex 1 twice as well.
    """
    g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 3), (2, 4), (0, 1), (0, 2), (1, 2), (1, 3)])
    h = Trail((3, 1, 4, 0, 1, 2, 3), (7, 1, 0, 4, 6, 2))
    return g, segment(g, h, {0, 2}), 3


class TestComputeReach:
    """The first reach level of each side, read off the fixpoint's state."""

    def test_empty_source(self):
        g, seg = k4_fixture()
        assert hopping._admissible_search(g, seg, 2, set()) == {}

    def test_k4_reach_of_far_endpoint(self):
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 0, 3)
        assert state.b.levels[1] == frozenset({1, 2})
        assert state.b.witness(1).vertices == (3, 1)
        assert state.b.witness(2).vertices == (3, 2)

    def test_k4_reach_of_near_endpoint_is_trivial(self):
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 0, 3)
        assert state.a.levels[1] == frozenset({0})
        assert state.a.witness(0).vertices == (0,)

    def test_inner_vertices_stay_off_the_circuit(self):
        # level 2 of A grows from the closure {1, 2} of A_1 and reaches 5
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        assert 5 in state.a.levels[2]
        assert state.a.witness(5).vertices == (1, 10, 5)
        for reach in (state.a, state.b):
            for v in reach.trees:
                for u in reach.witness(v).vertices[1:-1]:
                    assert u not in seg.h_vertices


class TestEntryValidation:
    @pytest.mark.parametrize("source", [-1, 4, 7])
    def test_reach_rejects_a_source_outside_the_graph(self, source):
        # the reach grows from the ends of the excluded edge
        g, seg = k4_fixture()
        with pytest.raises(BadParam):
            hopping_fixpoint(g, seg, 2, source, 3)

    @pytest.mark.parametrize("excluded", [-1, 6, 99])
    def test_reach_rejects_a_bad_excluded_edge(self, excluded):
        g, seg = k4_fixture()
        with pytest.raises(BadEdgeId):
            bridge_case(g, seg, excluded)

    @pytest.mark.parametrize(
        "excluded, a, b", [(99, 0, 3), (-1, 0, 3), (2, -1, 3), (2, 0, 1), (2, 0, 0)]
    )
    def test_fixpoint_needs_the_ends_of_the_excluded_edge(self, excluded, a, b):
        g, seg = k4_fixture()
        with pytest.raises(BadParam):
            hopping_fixpoint(g, seg, excluded, a, b)

    def test_fixpoint_takes_the_ends_in_either_order(self):
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 3, 0)
        assert state.a.levels[-1] == frozenset({1, 2})
        assert state.b.levels[-1] == frozenset({0})


class TestHoppingFixpoint:
    def test_k4_state(self):
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 0, 3)
        assert not isinstance(state, CutCertificate)
        assert state.a.levels[-1] == frozenset({0})
        assert state.b.levels[-1] == frozenset({1, 2})
        assert state.a.spans[-1][0] and state.b.spans[-1][0]

    def test_two_level_fixture_levels(self):
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        assert [sorted(s) for s in state.a.levels] == [[], [1, 2], [1, 2, 5]]
        assert [sorted(s) for s in state.b.levels] == [[], [6]]

    def test_bridged_triangles_give_unit_cut(self):
        g = triangles_with_bridge()
        h = Trail((0, 1, 2, 0), (0, 2, 1))
        seg = segment(g, h, {0})
        out = hopping_fixpoint(g, seg, 6, 0, 3)
        assert isinstance(out, CutCertificate)
        assert out.boundary == frozenset({6}) and out.size == 1

    def test_ladder_outer_cycle_gives_size_three_cut(self):
        from circuitcover.generators import ladder

        g = ladder(4).graph
        outer = Trail((0, 1, 2, 3, 7, 6, 5, 4, 0), (4, 5, 6, 3, 9, 8, 7, 0))
        seg = segment(g, outer, {4, 6})  # two top-rail separators
        out = hopping_fixpoint(g, seg, 1, 1, 5)  # exclude middle rung (1,5)
        assert isinstance(out, CutCertificate)
        assert out.size == 3 and out.odd
        assert out.is_valid_for(g)
        assert out.size >= brute_force_min_odd_cut(g).size


class TestInitialCoherentTrail:
    def test_k4_level_zero(self):
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 0, 3)
        q = initial_coherent_trail(state, seg)
        assert (q.n, q.m) == (0, 0)
        assert q.vertices == (0, 1) and q.edges == (0,)
        check_coherent(q, state, seg)

    def test_two_level_fixture_starts_at_one_zero(self):
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        q = initial_coherent_trail(state, seg)
        assert (q.n, q.m) == (1, 0)
        assert q.vertices == (5, 4, 3, 2, 1, 0, 7, 6)
        check_coherent(q, state, seg)


class TestCheckCoherentRejects:
    """Each coherence condition, broken on a fixture trail, is reported."""

    @staticmethod
    def _initial_and_spliced():
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        q = initial_coherent_trail(state, seg)
        return state, seg, q, reroute_descent(q, state, seg)

    def _rejects(self, q, match):
        state, seg, _, _ = self._initial_and_spliced()
        with pytest.raises(CoherenceViolated, match=match):
            check_coherent(q, state, seg)

    def test_a_trail_off_the_graph(self):
        # two edges swapped: the edge set, ends and tags still hold, but step
        # 0 no longer follows its edge.  That is the finder's own fault, not
        # the ValueError that reports bad input
        _, _, initial, _ = self._initial_and_spliced()
        edges = (initial.edges[1], initial.edges[0]) + initial.edges[2:]
        self._rejects(initial._replace(edges=edges), "coherent trail fails: step 0 does not")

    def test_c2_stretch_with_both_ends_in_one_level(self):
        _, _, _, spliced = self._initial_and_spliced()
        assert spliced.vertices == (1, 2, 3, 4, 5, 10, 1, 0, 7, 6)
        self._rejects(spliced._replace(n=1), "C2")  # 5-10-1 lies in A_2

    def test_c2_single_chord_with_both_ends_in_one_level(self):
        # the fixture plus a chord 1-5 off H, which the splice takes in place
        # of 5-10-1; at n=1 both of its ends lie in A_2
        g, h, _, excluded = two_level_fixture()
        g = Graph.from_edges(g.n, list(g.edges) + [(1, 5)])
        seg = segment(g, h, {3, 7})
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        spliced = reroute_descent(initial_coherent_trail(state, seg), state, seg)
        assert spliced.vertices == (1, 2, 3, 4, 5, 1, 0, 7, 6)
        assert spliced.edges[4] == g.m - 1
        with pytest.raises(CoherenceViolated, match="C2"):
            check_coherent(spliced._replace(n=1), state, seg)

    def test_c1_start_above_its_level(self):
        _, _, initial, _ = self._initial_and_spliced()
        assert (initial.n, initial.m) == (1, 0)
        self._rejects(initial._replace(n=0), "C1: start vertex")

    def test_c3_tag_names_another_vertex(self):
        # position 0 holds vertex 1 but claims H position 4, segment two's
        # first vertex
        _, _, _, spliced = self._initial_and_spliced()
        assert spliced.at[0] == 1
        at = (4,) + spliced.at[1:]
        self._rejects(spliced._replace(at=at), "C3: tag 4 at position 0 names vertex 4, not 1")

    def test_c3_closure_without_tags(self):
        _, _, initial, _ = self._initial_and_spliced()
        at = (-1,) * len(initial.vertices)
        self._rejects(initial._replace(at=at), "C3: A closure on segment 0 is off the trail")

    def test_c3_closure_partly_tagged(self):
        # A_1's closure on segment one is H positions 1 and 2; drop the tag
        # of position 2
        _, _, initial, _ = self._initial_and_spliced()
        assert initial.at == (5, 4, 3, 2, 1, 0, 7, 6)
        at = (5, 4, 3, -1, 1, 0, 7, 6)
        self._rejects(initial._replace(at=at), "C3: A closure on segment 0 is off the trail")

    def test_c3_closure_not_consecutive(self):
        # swap the tags of the two visits to vertex 1: every tag still names
        # its vertex, but A_1's closure on segment two, H positions 3..5, no
        # longer sits at consecutive trail positions
        g, seg, excluded = repeat_fixture()
        state = hopping_fixpoint(g, seg, excluded, *g.endpoints(excluded))
        q = initial_coherent_trail(state, seg)
        assert q.vertices == (1, 3, 2, 1, 0, 4) and q.at == (1, 0, 5, 4, 3, 2)
        with pytest.raises(CoherenceViolated, match="C3: A closure on segment 1 is not a subtrail"):
            check_coherent(q._replace(at=(4, 0, 5, 1, 3, 2)), state, seg)

    @pytest.mark.parametrize(
        "at, match",
        [
            ((5, 4, 3, 2, 1, 0, 7), "C3: 7 tags for a trail of 8 vertices"),
            ((5, 4, 3, 2, 1, 0, 7, 6, 5), "C3: 9 tags for a trail of 8 vertices"),
            ((5, 4, 3, 2, 1, 0, 7, 9), "C3: tag 9 at position 7 is not an H position"),
            ((5, 4, 3, 2, 1, 0, 7, -2), "C3: tag -2 at position 7 is not an H position"),
            ((5, 4, 3, 2, 1, 0, 6, 6), "C3: tag 6 at position 6 names vertex 6, not 7"),
        ],
        ids=["short", "long", "past-the-end", "negative", "another-vertex"],
    )
    def test_malformed_tags_reach_the_descent(self, at, match):
        # reroute_descent is public: a malformed tag tuple must end in
        # CoherenceViolated, never an IndexError
        state, seg, initial, _ = self._initial_and_spliced()
        with pytest.raises(CoherenceViolated, match=match):
            reroute_descent(initial._replace(at=at), state, seg)


class TestSpanTable:
    def test_spans_match_an_independent_scan(self, monkeypatch):
        # every ReachState of a seeded corpus of bridge cases, each level's
        # spans recomputed by a scan of each segment's path
        reached = []
        fixpoint = hopping.hopping_fixpoint

        def recording(g, seg, excluded, a, b):
            out = fixpoint(g, seg, excluded, a, b)
            if not isinstance(out, CutCertificate):
                reached.append((seg, out))
            return out

        monkeypatch.setattr(hopping, "hopping_fixpoint", recording)
        rng = random.Random(31)
        for g in sparse_random_graphs():
            for _ in range(40):
                find_circuit(g, rng.sample(range(g.m), rng.randint(2, min(4, g.m))))
        assert len(reached) >= 100
        assert any(len(state.a.levels) > 2 for _, state in reached)
        for seg, state in reached:
            for reach in (state.a, state.b):
                for i, level in enumerate(reach.levels):
                    expect = []
                    for path in seg.seg_paths:
                        hits = [path.index(v) for v in level if v in path]
                        expect.append((min(hits), max(hits)) if hits else None)
                    assert reach.span(i) == tuple(expect)


def _located_subtrail(q, seg, lo, hi) -> range:
    """Trail positions of H positions lo < hi of one segment, found from the
    segment's own H edges (a trail repeats no edge), in the order of lo..hi."""
    verts = seg.trail.vertices[lo : hi + 1]
    edges = seg.trail.edges[lo:hi]
    r = q.edges.index(edges[0])
    if q.edges[r : r + len(edges)] == edges:
        assert q.vertices[r : r + len(verts)] == verts
        return range(r, r + len(verts))
    assert r + 1 >= len(edges) and q.edges[r + 1 - len(edges) : r + 1] == edges[::-1]
    assert q.vertices[r + 1 - len(edges) : r + 2] == verts[::-1]
    return range(r + 1, r - len(edges), -1)


class TestDerivedSubtrails:
    def test_closures_carry_their_segment_edges(self, monkeypatch):
        # every coherent trail the descent builds on a seeded corpus: each
        # nonempty closure of A_n or B_m is found on the trail by its
        # segment's H edges, in order, and the tags put it at that place
        seen = {"trails": 0, "reroutes": 0}
        check, reroute = hopping.check_coherent, hopping._reroute

        def checked(q, state, seg):
            check(q, state, seg)
            seen["trails"] += 1
            for spans in (state.a.span(q.n), state.b.span(q.m)):
                for (vs, _), span in zip(seg.seg_bounds, spans):
                    if span is not None:
                        lo, hi = vs + span[0], vs + span[1]
                        if hi == lo:
                            assert seg.trail.vertices[lo] in q.vertices and lo in q.at
                            continue
                        located = _located_subtrail(q, seg, lo, hi)
                        assert [q.at[r] for r in located] == list(range(lo, hi + 1))

        def counted(*args):
            seen["reroutes"] += 1
            return reroute(*args)

        monkeypatch.setattr(hopping, "check_coherent", checked)
        monkeypatch.setattr(hopping, "_reroute", counted)
        rng = random.Random(31)
        for g in sparse_random_graphs():
            for _ in range(40):
                find_circuit(g, rng.sample(range(g.m), rng.randint(2, min(4, g.m))))
        assert seen["trails"] >= 100 and seen["reroutes"] >= 1, seen


class TestCoherenceChecks:
    def test_each_trail_of_a_descent_is_checked_once(self, monkeypatch):
        # initial_coherent_trail leaves its trail to reroute_descent's entry
        # check, so a seeded corpus checks one trail per descent and one per
        # reroute
        seen = {"checks": 0, "descents": 0, "reroutes": 0}
        check, descent = hopping.check_coherent, hopping.reroute_descent
        reroute = hopping._reroute

        def counted(key, f):
            def call(*args):
                seen[key] += 1
                return f(*args)

            return call

        monkeypatch.setattr(hopping, "check_coherent", counted("checks", check))
        monkeypatch.setattr(hopping, "reroute_descent", counted("descents", descent))
        monkeypatch.setattr(hopping, "_reroute", counted("reroutes", reroute))
        rng = random.Random(31)
        for g in sparse_random_graphs():
            for _ in range(40):
                find_circuit(g, rng.sample(range(g.m), rng.randint(2, min(4, g.m))))
        assert seen["descents"] >= 100 and seen["reroutes"] >= 1, seen
        assert seen["checks"] == seen["descents"] + seen["reroutes"], seen

    def test_a_corrupt_initial_trail_is_caught(self, monkeypatch):
        # K4 extends the triangle 0-1-2 by the edge 0-3 at level (0, 0), so
        # only the descent's entry check sees the trail: its first tag, made
        # to name the second vertex, must not reach the circuit
        initial = hopping.initial_coherent_trail

        def corrupt(state, seg):
            q = initial(state, seg)
            return q._replace(at=(q.at[1],) + q.at[1:])

        monkeypatch.setattr(hopping, "initial_coherent_trail", corrupt)
        with pytest.raises(CoherenceViolated, match="C3: tag .* at position 0 names vertex"):
            find_circuit(complete_graph(4), {0, 2})


class TestDescentPrecondition:
    def test_every_descent_starts_at_the_smallest_first_hit_sum(self, monkeypatch):
        # the module docstring's argument that a descent needs no restart and
        # no demotion rests on this: bridge_case starts each descent at
        # n + m + 2 = min over segments j of la(j) + lb(j)
        seen = {"descents": 0, "reroutes": 0}
        descent, reroute = hopping.reroute_descent, hopping._reroute

        def checked(q, state, seg):
            sums = []
            for j in range(seg.k):
                la, lb = state.a.first_hit(j), state.b.first_hit(j)
                if la is not None and lb is not None:
                    sums.append(la + lb)
            assert q.n + q.m + 2 == min(sums), ((q.n, q.m), sums)
            seen["descents"] += 1
            return descent(q, state, seg)

        def counted(*args):
            seen["reroutes"] += 1
            return reroute(*args)

        monkeypatch.setattr(hopping, "reroute_descent", checked)
        monkeypatch.setattr(hopping, "_reroute", counted)
        rng = random.Random(31)
        for g in sparse_random_graphs():
            for _ in range(40):
                find_circuit(g, rng.sample(range(g.m), rng.randint(2, min(4, g.m))))
        assert seen["descents"] >= 100 and seen["reroutes"] >= 1, seen


class TestRerouteDescent:
    def test_level_zero_is_a_fixpoint(self):
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 0, 3)
        q = initial_coherent_trail(state, seg)
        out = reroute_descent(q, state, seg)
        assert out is q or (out.n, out.m) == (0, 0)

    def test_start_already_in_its_level_is_rejected(self):
        # the level sequences stabilize, so a level-(0,0) trail is also
        # (1,0)-coherent: its start is A_1's closure on the one segment.  No
        # trail from initial_coherent_trail or a reroute has a start in its
        # own level (hopping's module docstring), so the descent rejects it
        g, seg = k4_fixture()
        state = hopping_fixpoint(g, seg, 2, 0, 3)
        lifted = initial_coherent_trail(state, seg)._replace(n=1)
        check_coherent(lifted, state, seg)
        assert lifted.vertices[0] in state.a.level(1)
        with pytest.raises(CoherenceViolated, match="start vertex 0 is already in A_1"):
            reroute_descent(lifted, state, seg)

    def test_initial_trail_needs_a_shared_segment(self):
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        no_spans = tuple((None,) * seg.k for _ in state.b.spans)
        unshared = state._replace(b=state.b._replace(spans=no_spans))
        with pytest.raises(CoherenceViolated, match="no segment is reached from both endpoints"):
            initial_coherent_trail(unshared, seg)

    def test_two_level_fixture_splices_witness(self):
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        q = reroute_descent(initial_coherent_trail(state, seg), state, seg)
        assert (q.n, q.m) == (0, 0)
        assert q.vertices == (1, 2, 3, 4, 5, 10, 1, 0, 7, 6)
        check_coherent(q, state, seg)

    def test_splice_carries_the_tags(self):
        # the witness 1-10-5 enters at 5: its inner vertex 10 is untagged and
        # its source 1 keeps H position 1
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        q = reroute_descent(initial_coherent_trail(state, seg), state, seg)
        assert q.at == (1, 2, 3, 4, 5, -1, 1, 0, 7, 6)
        # a one-vertex witness: the start 1 (H position 1) is the source (H
        # position 4) and keeps its own tag where the trail turns back
        g, seg, excluded = repeat_fixture()
        state = hopping_fixpoint(g, seg, excluded, *g.endpoints(excluded))
        q = reroute_descent(initial_coherent_trail(state, seg), state, seg)
        assert q.vertices == (2, 3, 1, 0, 4) and q.at == (5, 0, 1, 3, 2)

    def test_a_witness_sharing_an_edge_with_the_trail_is_caught(self, monkeypatch):
        # the A step of the two-level fixture splices the witness of the
        # start 5 into the trail 5-4-3-2-1-0-7-6; this one from 1 detours
        # over the trail's edge 1 = (1,2), and the step's trail, checked
        # next, repeats that edge
        witness = hopping.Reach.witness

        def detour(reach, v):
            if v == 5:
                return Trail((1, 2, 8, 1, 10, 5), (1, 9, 8, 11, 12))
            return witness(reach, v)

        monkeypatch.setattr(hopping.Reach, "witness", detour)
        g, h, seg, excluded = two_level_fixture()
        state = hopping_fixpoint(g, seg, excluded, 8, 9)
        with pytest.raises(
            CoherenceViolated, match="^coherent trail fails: duplicate edge in walk$"
        ):
            reroute_descent(initial_coherent_trail(state, seg), state, seg)

    def test_mirrored_descent_when_levels_swap(self):
        # same gadget, but grown from the other endpoint: B needs two levels
        edges = [(i, i + 1) for i in range(7)] + [(7, 0)]
        edges += [(9, 1), (9, 2), (8, 6), (1, 10), (10, 5), (8, 9)]
        g = Graph.from_edges(11, edges)
        h = Trail(tuple(range(8)) + (0,), tuple(range(8)))
        seg = segment(g, h, {3, 7})
        state = hopping_fixpoint(g, seg, 13, 8, 9)
        assert not isinstance(state, CutCertificate)
        q = reroute_descent(initial_coherent_trail(state, seg), state, seg)
        assert (q.n, q.m) == (0, 0)
        check_coherent(q, state, seg)


class TestBridgeCase:
    def test_k4_golden_circuit(self):
        g = complete_graph(4)
        h = Trail((0, 1, 2, 0), (0, 3, 1))
        out = bridge_case(g, segment(g, h, {0}), 2)
        assert isinstance(out, Trail)
        assert out.vertices == (3, 0, 1, 3)
        assert out.edges == (2, 0, 4)

    def test_prism_matching_edge(self):
        from circuitcover.generators import double_clique

        g = double_clique(3).graph
        h = Trail((0, 1, 2, 0), (0, 2, 1))
        out = bridge_case(g, segment(g, h, {0, 2}), 6)
        assert isinstance(out, Trail)
        assert verify_circuit(g, out, {0, 2, 6})

    def test_two_level_assembly(self):
        g, h, seg, excluded = two_level_fixture()
        out = bridge_case(g, seg, excluded)
        assert isinstance(out, Trail)
        assert out.vertices == (9, 8, 1, 2, 3, 4, 5, 10, 1, 0, 7, 6, 9)
        assert verify_circuit(g, out, {3, 7, excluded})

    def test_off_circuit_endpoint_passed_exactly_once(self):
        g, h, seg, excluded = two_level_fixture()
        out = bridge_case(g, seg, excluded)
        for v in (8, 9):  # both endpoints of the excluded edge are off H
            assert out.vertices[:-1].count(v) == 1

    def test_a_circuit_off_the_graph_is_a_coherence_fault(self, monkeypatch):
        # the descent's trail with two edges swapped keeps its ends, its
        # edge set and so the witness checks: only the check of the
        # assembled circuit sees it
        descent = hopping.reroute_descent

        def corrupt(q, state, seg):
            out = descent(q, state, seg)
            return out._replace(edges=(out.edges[1], out.edges[0]) + out.edges[2:])

        monkeypatch.setattr(hopping, "reroute_descent", corrupt)
        g, h, seg, excluded = two_level_fixture()
        with pytest.raises(CoherenceViolated, match="rerouted circuit fails: .* does not follow"):
            bridge_case(g, seg, excluded)

    def test_an_entry_witness_sharing_an_edge_with_the_trail_is_caught(self, monkeypatch):
        # the descent ends on 1-2-3-4-5-10-1-0-7-6, entered from 8 at 1;
        # this entry witness reaches 1 over the trail's edge 1 = (1,2)
        witness = hopping.Reach.witness

        def detour(reach, v):
            return Trail((8, 2, 1), (9, 1)) if v == 1 else witness(reach, v)

        monkeypatch.setattr(hopping.Reach, "witness", detour)
        g, h, seg, excluded = two_level_fixture()
        with pytest.raises(
            CoherenceViolated, match="^rerouted circuit fails: duplicate edge in walk$"
        ):
            bridge_case(g, seg, excluded)

    def test_certificate_propagates(self):
        g = triangles_with_bridge()
        h = Trail((0, 1, 2, 0), (0, 2, 1))
        out = bridge_case(g, segment(g, h, {0}), 6)
        assert isinstance(out, CutCertificate)
        assert out.size == 1
