"""Decompose a circuit through prescribed edges into separator-free segments.

segment puts a circuit H through separators e_1..e_k in canonical form
H_1 e_1 H_2 e_2 ... H_k e_k (e_1 = the separator with the smallest edge id):
it rotates H and excises every closed detour inside a segment, so that each
segment is a path, which is the only structural property the rerouting
machinery needs.  Detours that span a separator are kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import CoherenceViolated
from .graphs import Graph, Trail, validate_trail


def _separator_slots(h: Trail, s_prefix: frozenset) -> list[int]:
    slots = [i for i, eid in enumerate(h.edges) if eid in s_prefix]
    found = {h.edges[i] for i in slots}
    if found != s_prefix:
        raise ValueError(f"circuit is missing prescribed edges {sorted(s_prefix - found)}")
    return slots


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


def _canonical_cut(h: Trail, s_set: frozenset) -> tuple[int, list[int]]:
    """The vertex position the canonical rotation cuts closed h at, and the
    separator slots of the rotated trail, in order.

    The separators are found on h once: rotating moves each slot back by
    the cut, cyclically, so the slots from the smallest-id separator on come
    first and the cyclic predecessor's slot becomes the last edge.
    """
    slots = _separator_slots(h, s_set)
    edges = h.edges
    idx = min(range(len(slots)), key=lambda i: edges[slots[i]])
    size = len(edges)
    cut = (slots[idx - 1] + 1) % size
    return cut, [(i - cut) % size for i in slots[idx:] + slots[:idx]]


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

    h is validated once, rotated, and each closed detour inside a segment is
    cut out at its repeated vertex until every segment is a path.  The
    result's trail is a circuit through s_prefix no longer than h, and
    segmenting it again gives the same SegmentedCircuit.
    """
    s_set = frozenset(s_prefix)
    if not s_set:
        raise ValueError("need at least one separator edge")
    validate_trail(g, h)
    if not h.is_closed:
        raise ValueError("h must be a closed trail")
    cut, slots = _canonical_cut(h, s_set)
    cur = rotate_closed(h, cut)
    while (detour := _first_detour(cur, slots)) is not None:
        # edges i1..i2-1 lie inside one segment, so every separator after
        # them moves back by their count
        i1, i2 = detour
        verts = cur.vertices[: i1 + 1] + cur.vertices[i2 + 1 :]
        edges = cur.edges[:i1] + cur.edges[i2:]
        cur = Trail(verts, edges)
        slots = [p if p < i1 else p - (i2 - i1) for p in slots]
    if slots[-1] != len(cur.edges) - 1:
        raise CoherenceViolated("canonical rotation must end on a separator")
    # sep_ids comes from a list, not a generator: a tuple filled from a
    # generator is resized as it grows, which, once per extension, left
    # find_dense's small-object allocator 3 MB of arenas larger
    return SegmentedCircuit(
        trail=cur,
        sep_slots=tuple(slots),
        sep_ids=tuple([cur.edges[i] for i in slots]),
    )


def _first_detour(h: Trail, sep_slots: list[int]) -> tuple[int, int] | None:
    """First within-segment repeated vertex, as a vertex-index pair."""
    start = 0
    for slot in sep_slots:
        seen: dict[int, int] = {}
        for i in range(start, slot + 1):
            v = h.vertices[i]
            if v in seen:
                return seen[v], i
            seen[v] = i
        start = slot + 1
    return None
