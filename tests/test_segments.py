import random
from collections import deque

import pytest

from circuitcover import finder
from circuitcover.certificates import circuit_fault
from circuitcover.cuts import CutCertificate
from circuitcover.finder import extend_circuit, find_circuit
from circuitcover.graphs import Graph, Trail
from circuitcover.segments import rotate_closed, segment

from conftest import bowtie, cycle_graph, sparse_random_graphs


def three_segment_hub():
    """Circuit whose three segments pairwise share the hub vertex 6."""
    edges = [
        (0, 1), (1, 6), (6, 2),  # segment 1
        (2, 3),                  # separator e_1
        (3, 6), (6, 4),          # segment 2
        (4, 5),                  # separator e_2
        (5, 6),                  # segment 3
        (6, 0),                  # separator e_3
    ]
    g = Graph.from_edges(7, edges)
    h = Trail((0, 1, 6, 2, 3, 6, 4, 5, 6, 0), tuple(range(9)))
    return g, h, frozenset({3, 6, 8})


class TestSegment:
    def test_triangle_single_marked_edge(self):
        g = cycle_graph(3)
        h = Trail((0, 1, 2, 0), (0, 1, 2))
        seg = segment(g, h, {1})
        assert seg.k == 1
        assert seg.sep_ids == (1,)
        assert len(seg.seg_paths[0]) == 3  # a path on the other two edges

    def test_three_segments_sharing_a_hub(self):
        g, h, s = three_segment_hub()
        seg = segment(g, h, s)
        assert seg.k == 3
        assert seg.seg_paths == ((0, 1, 6, 2), (3, 6, 4), (5, 6))
        for a in range(3):
            for b in range(a + 1, 3):
                assert set(seg.seg_paths[a]) & set(seg.seg_paths[b]) == {6}

    def test_bowtie_with_marked_edges_at_shared_vertex(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0, 3, 4, 0), (0, 2, 1, 3, 5, 4))
        seg = segment(g, h, {1, 3})
        assert seg.k == 2
        assert seg.seg_paths == ((3, 4, 0, 1, 2), (0,))

    def test_every_built_circuit_is_canonical(self):
        # each circuit the finder extends is the trail of its segmentation:
        # segmenting it again changes nothing and every segment is a path.
        # extend_circuit puts any other form of it back first, so a rotation,
        # or a closed detour off H inserted at one of its vertices, must give
        # the same answer as the canonical circuit itself
        rng = random.Random(17)
        rotated = detoured = 0
        for g in sparse_random_graphs():
            for _ in range(8):
                s = sorted(rng.sample(range(g.m), min(g.m, rng.randint(2, 6))))
                result = finder._base_circuit(g, s[0])
                placed = {s[0]}
                for e_next in s[1:]:
                    if isinstance(result, CutCertificate):
                        break
                    seg = segment(g, result, placed)
                    h = seg.trail
                    assert segment(g, h, seg.sep_ids) == seg
                    assert all(len(set(path)) == len(path) for path in seg.seg_paths)
                    out = extend_circuit(g, h, placed, e_next)
                    for cut in rng.sample(range(1, len(h)), min(2, len(h) - 1)):
                        assert extend_circuit(g, rotate_closed(h, cut), placed, e_next) == out
                        rotated += 1
                    i = rng.randrange(len(h))
                    detour = _detour_off(g, h, h.vertices[i])
                    if detour is not None:
                        longer = Trail(
                            h.vertices[:i] + detour.vertices + h.vertices[i + 1 :],
                            h.edges[:i] + detour.edges + h.edges[i:],
                        )
                        assert segment(g, longer, placed) == seg
                        assert extend_circuit(g, longer, placed, e_next) == out
                        detoured += 1
                    result = out
                    placed.add(e_next)
                assert result == find_circuit(g, s)
        assert rotated and detoured, (rotated, detoured)

    def test_canonical_form_puts_smallest_separator_first(self):
        g, h, s = three_segment_hub()
        rot = segment(g, h, s).trail
        slots = [i for i, e in enumerate(rot.edges) if e in s]
        assert rot.edges[slots[0]] == min(s)
        assert slots[-1] == len(rot.edges) - 1


def _detour_off(g, h, v):
    """Closed trail v, w, ..., v over edges off h whose vertices other than v
    are all off h, or None: inserted at v, it is a detour of one segment."""
    on_h = set(h.vertices)
    h_edges = h.edge_set()
    for w, e in g.adjacency[v]:
        if e in h_edges or w in on_h:
            continue
        parent = {w: None}
        queue = deque([w])
        while queue:
            x = queue.popleft()
            for y, f in g.adjacency[x]:
                if f in h_edges or f == e:
                    continue
                if y == v:
                    verts, edges = [v, x], [f]
                    while parent[x] is not None:
                        x, back = parent[x]
                        verts.append(x)
                        edges.append(back)
                    return Trail(tuple(verts) + (v,), tuple(edges) + (e,))
                if y not in on_h and y not in parent:
                    parent[y] = (x, f)
                    queue.append(y)
    return None


def _first_detour(h, sep_slots):
    """First within-segment repeated vertex, as a vertex-index pair."""
    start = 0
    for slot in sep_slots:
        seen = {}
        for i in range(start, slot + 1):
            v = h.vertices[i]
            if v in seen:
                return seen[v], i
            seen[v] = i
        start = slot + 1
    return None


def _rescanned(h, s):
    """segment's trail and separator slots by the loop the one walk replaced,
    with its number of cuts: rotate h at the canonical cut, then cut out the
    first detour inside a segment and scan again from segment 0 until none
    is left."""
    size = len(h.edges)
    slots = [i for i, e in enumerate(h.edges) if e in s]
    idx = min(range(len(slots)), key=lambda i: h.edges[slots[i]])
    cut = (slots[idx - 1] + 1) % size
    cur = rotate_closed(h, cut)
    slots = [(i - cut) % size for i in slots[idx:] + slots[:idx]]
    cuts = 0
    while (detour := _first_detour(cur, slots)) is not None:
        i1, i2 = detour
        verts = cur.vertices[: i1 + 1] + cur.vertices[i2 + 1 :]
        cur = Trail(verts, cur.edges[:i1] + cur.edges[i2:])
        slots = [p if p < i1 else p - (i2 - i1) for p in slots]
        cuts += 1
    return cur, tuple(slots), cuts


def _circuit_graph(verts, rng=None):
    """The closed walk verts, which repeats no vertex pair, as a trail of the
    graph of its steps, the edge ids shuffled when rng is given."""
    ids = list(range(len(verts) - 1))
    if rng is not None:
        rng.shuffle(ids)
    pairs = [None] * len(ids)
    for k, eid in enumerate(ids):
        pairs[eid] = (verts[k], verts[k + 1])
    return Graph.from_edges(max(verts) + 1, pairs), Trail(tuple(verts), tuple(ids))


def _planted_circuit(rng):
    """A cycle with closed walks over unused vertex pairs planted at random
    positions, so that detours nest, come back to any visited vertex and
    may span a separator."""
    n = rng.randint(4, 9)
    verts = rng.sample(range(n), rng.randint(3, n))
    verts.append(verts[0])
    used = {frozenset(p) for p in zip(verts, verts[1:])}
    for _ in range(rng.randint(0, 5)):
        i = rng.randrange(len(verts))
        walk = [verts[i]]
        while len(walk) < 5 and (len(walk) == 1 or walk[-1] != walk[0]):
            free = [u for u in range(n) if u != walk[-1] and frozenset((walk[-1], u)) not in used]
            if not free:
                break
            walk.append(rng.choice(free))
            used.add(frozenset(walk[-2:]))
        if walk[-1] != walk[0] and frozenset((walk[-1], walk[0])) not in used:
            walk.append(walk[0])
            used.add(frozenset(walk[-2:]))
        if len(walk) > 3 and walk[-1] == walk[0]:
            verts[i : i + 1] = walk
    return _circuit_graph(verts, rng)


class TestOneWalk:
    """segment against the rescan loop it replaced, kept here as the reference."""

    def _matches_the_rescan(self, g, h, s):
        seg = segment(g, h, s)
        trail, slots, cuts = _rescanned(h, frozenset(s))
        assert (seg.trail, seg.sep_slots) == (trail, slots)
        assert seg.sep_ids == tuple(trail.edges[i] for i in slots)
        again = segment(g, seg.trail, seg.sep_ids)
        assert again == seg and again.trail is seg.trail
        return seg, cuts

    @pytest.mark.parametrize(
        "verts, seps, expect, cuts",
        [
            # segment 0 starts at 0 and comes back to it twice
            ((0, 1, 2, 0, 3, 4, 0, 5, 6, 0), {8}, (0, 5, 6, 0), 2),
            # the detour 2-3-4-2 nests in the detour 1-2-5-1
            ((0, 1, 2, 3, 4, 2, 5, 1, 6, 0), {8}, (0, 1, 6, 0), 2),
            # vertex 0 repeats only across the separators 1 and 3: kept
            ((0, 1, 2, 0, 3, 4, 0), {1, 3}, (3, 4, 0, 1, 2, 0, 3), 0),
            # one detour in each of two segments
            ((0, 1, 2, 3, 1, 4, 5, 6, 7, 5, 0), {4, 9}, (0, 1, 4, 5, 0), 2),
        ],
        ids=["back-to-first-vertex", "nested", "across-a-separator", "one-per-segment"],
    )
    def test_planted_detours(self, verts, seps, expect, cuts):
        g, h = _circuit_graph(verts)
        seg, cut = self._matches_the_rescan(g, h, seps)
        assert seg.trail.vertices == expect and cut == cuts

    def test_a_canonical_circuit_comes_back_as_itself(self):
        g, h, s = three_segment_hub()
        assert segment(g, h, s).trail is h

    def test_random_planted_detours(self):
        rng = random.Random(23)
        seen = {"cut": 0, "cut twice": 0, "kept a repeat": 0}
        for _ in range(400):
            g, h = _planted_circuit(rng)
            s = rng.sample(h.edges, rng.randint(1, min(4, len(h.edges))))
            seg, cuts = self._matches_the_rescan(g, h, s)
            seen["cut"] += cuts > 0
            seen["cut twice"] += cuts > 1
            seen["kept a repeat"] += len(set(seg.trail.vertices)) < len(seg.trail)
        assert all(count >= 20 for count in seen.values()), seen


class TestNormalize:
    def test_fixpoint_on_clean_circuit(self):
        g, h, s = three_segment_hub()
        out = segment(g, h, s).trail
        assert len(out) == len(h)
        segment(g, out, s)  # must not raise

    def test_detour_excised(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0, 3, 4, 0), (0, 2, 1, 3, 5, 4))
        out = segment(g, h, {5}).trail
        assert out.vertices == (4, 0, 3, 4)
        assert out.edges == (4, 3, 5)
        assert len(out) == len(h) - 3

    def test_loop_spanning_a_separator_is_kept(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0, 3, 4, 0), (0, 2, 1, 3, 5, 4))
        # vertex 0 repeats across segments; with separators on both triangle
        # sides the repeat never falls inside one segment
        out = segment(g, h, {1, 3}).trail
        assert len(out) == len(h)
        assert circuit_fault(g.n, g.edges, out.vertices, out.edges, {1, 3}) == ""

    def test_result_still_covers_separators(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0, 3, 4, 0), (0, 2, 1, 3, 5, 4))
        out = segment(g, h, {5}).trail
        assert {5} <= out.edge_set()
        assert out.is_closed
