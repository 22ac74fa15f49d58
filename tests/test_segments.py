import random
from collections import deque

from circuitcover import finder
from circuitcover.cuts import CutCertificate
from circuitcover.finder import extend_circuit, find_circuit
from circuitcover.graphs import Graph, Trail, validate_trail
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
        validate_trail(g, out)

    def test_result_still_covers_separators(self):
        g = bowtie()
        h = Trail((0, 1, 2, 0, 3, 4, 0), (0, 2, 1, 3, 5, 4))
        out = segment(g, h, {5}).trail
        assert {5} <= out.edge_set()
        assert out.is_closed
