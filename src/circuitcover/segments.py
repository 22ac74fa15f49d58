"""Decompose a circuit through prescribed edges into separator-free segments.

segment puts a circuit H through separators e_1..e_k in canonical form
H_1 e_1 H_2 e_2 ... H_k e_k (e_1 = the separator with the smallest edge id)
in one walk: it rotates H and cuts every closed detour inside a segment out
at its repeated vertex, so that each segment is a path, which is the only
structural property the rerouting machinery needs.  Detours that span a
separator are kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .certificates import circuit_fault
from .errors import CoherenceViolated
from .graphs import Graph, Trail


def rotate_closed(h: Trail, cut: int) -> Trail:
    """Rotate a closed trail so that it starts at vertex position cut,
    0 <= cut < len(h.edges)."""
    if not h.is_closed:
        raise ValueError("can only rotate a closed trail")
    if cut == 0:
        return h
    verts = h.vertices[cut:-1] + h.vertices[: cut + 1]
    edges = h.edges[cut:] + h.edges[:cut]
    return Trail(verts, edges)


@dataclass(frozen=True)
class SegmentedCircuit:
    """Canonically rotated circuit with its segments H_1..H_k.

    Segment j (0-based) spans trail vertex indices seg_bounds[j] inclusive;
    its separator follows immediately.  Segments are vertex-paths; distinct
    segments may share vertices.
    """

    trail: Trail
    sep_slots: tuple[int, ...]  # edge-slot positions of e_1..e_k
    sep_ids: tuple[int, ...]  # edge ids of e_1..e_k in circuit order

    @property
    def k(self) -> int:
        return len(self.sep_ids)

    @cached_property
    def seg_bounds(self) -> tuple[tuple[int, int], ...]:
        bounds = []
        start = 0
        for slot in self.sep_slots:
            bounds.append((start, slot))
            start = slot + 1
        return tuple(bounds)

    @cached_property
    def seg_paths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            self.trail.vertices[a : b + 1] for a, b in self.seg_bounds
        )

    @cached_property
    def h_vertices(self) -> frozenset:
        return frozenset(self.trail.vertices)

    @cached_property
    def h_edges(self) -> frozenset:
        return frozenset(self.trail.edges)

    @cached_property
    def places(self) -> dict:
        """Each H-vertex's (segment, position) pairs, in segment order."""
        out: dict[int, list[tuple[int, int]]] = {}
        for j, path in enumerate(self.seg_paths):
            for p, v in enumerate(path):
                out.setdefault(v, []).append((j, p))
        return out

    def spans(self, vertices: Iterable[int]) -> tuple[tuple[int, int] | None, ...]:
        """Per segment j, the smallest and largest positions on its path of
        the set's vertices, or None when none lies on it; one pass."""
        out: list[tuple[int, int] | None] = [None] * self.k
        for v in vertices:
            for j, p in self.places.get(v, ()):
                span = out[j]
                if span is None:
                    out[j] = (p, p)
                elif p < span[0]:
                    out[j] = (p, span[1])
                elif p > span[1]:
                    out[j] = (span[0], p)
        return tuple(out)

    def closure(self, spans: tuple[tuple[int, int] | None, ...]) -> frozenset:
        """Vertices of every segment between the ends of its span."""
        out: set = set()
        for path, span in zip(self.seg_paths, spans):
            if span is not None:
                out.update(path[span[0] : span[1] + 1])
        return frozenset(out)


def segment(g: Graph, h: Trail, s_prefix: Iterable[int]) -> SegmentedCircuit:
    """Circuit h in canonical form, with the edges of s_prefix as separators.

    h is validated and its separators found once.  It is rotated to start
    just after the separator before the smallest-id one, and one walk over
    the segments makes each a path: a segment with distinct vertices stays
    as it is, and in any other a stack pass truncates the path back to a
    repeated vertex's earlier visit.  The result's trail is a circuit
    through s_prefix no longer than h, the rotated trail itself when nothing
    is cut, and segmenting it again gives the same SegmentedCircuit.
    """
    s_set = frozenset(s_prefix)
    if not s_set:
        raise ValueError("need at least one separator edge")
    fault = circuit_fault(g.n, g.edges, h.vertices, h.edges, s_set)
    if fault:
        raise ValueError(f"h is no circuit through the separators: {fault}")
    edges = h.edges
    slots = [i for i, eid in enumerate(edges) if eid in s_set]
    # rotating moves each slot back by the cut, cyclically
    idx = slots.index(edges.index(min(s_set)))
    size = len(edges)
    cut = (slots[idx - 1] + 1) % size
    slots = [(i - cut) % size for i in slots[idx:] + slots[:idx]]
    if slots[-1] != size - 1:
        raise CoherenceViolated("canonical rotation must end on a separator")
    trail = rotate_closed(h, cut)
    verts, edges = trail.vertices, trail.edges
    # segment j is verts[start:slot + 1], and its separator edges[slot] follows
    out_v, out_e, out_slots = [], [], []
    start = 0
    for slot in slots:
        run = verts[start : slot + 1]
        if len(set(run)) == len(run):
            out_v += run
            out_e += edges[start : slot + 1]
        else:
            keep, pos = [], {}  # the path's trail indices; edges[i - 1] enters i
            for i in range(start, slot + 1):
                p = pos.get(verts[i])
                if p is None:
                    pos[verts[i]] = len(keep)
                    keep.append(i)
                else:  # a detour closes at verts[i]: cut it out
                    for r in keep[p + 1 :]:
                        del pos[verts[r]]
                    del keep[p + 1 :]
            out_v += [verts[i] for i in keep]
            out_e += [edges[i - 1] for i in keep[1:]] + [edges[slot]]
        out_slots.append(len(out_e) - 1)
        start = slot + 1
    if len(out_e) < size:
        trail = Trail(tuple(out_v) + verts[-1:], tuple(out_e))
        slots = out_slots
    # sep_ids comes from a list, not a generator: a tuple filled from a
    # generator is resized as it grows, which, once per extension, left
    # find_dense's small-object allocator 3 MB of arenas larger
    return SegmentedCircuit(
        trail=trail,
        sep_slots=tuple(slots),
        sep_ids=tuple([trail.edges[i] for i in slots]),
    )
