"""Reach fixpoints, coherent trails, and the rerouting descent.

This implements the bridge case of the circuit extension: given a circuit H
through k prescribed edges and a further edge e=ab that is a bridge of
G-E(H), either produce a circuit through all k+1 edges or an odd cut of size
at most k+1.

Vocabulary (all relative to the segmented circuit H and the excluded e):
  admissible trail  - trail in G-E(H)-e whose inner vertices avoid V(H);
  reach of X        - H-vertices admissibly reachable from X;
  levels A_i / B_i  - iterated reach closures grown from a and b;
  spans             - per level and segment, the smallest and largest path
                      positions of the level's vertices on that segment; the
                      closure of a level is every segment between its span;
  coherent trail    - a trail at level (n, m) satisfying, as check_coherent
                      checks:
    C1  it passes every separator, starts in A_{n+1} and ends in B_{m+1};
    C2  every stretch between consecutive H-vertices of the trail that is
        not a single H edge is admissible (its inner vertices avoid V(H), so
        it uses no H edge) and does not have both ends in A_{n+1}, nor both
        in B_{m+1};
    C3  each nonempty closure of A_n or B_m on a segment is a recorded
        subtrail, and subtrails of different segments do not overlap.

The descent repeatedly reroutes a coherent trail to strictly smaller levels
until both levels hit zero, at which point the circuit assembles from the
trail, the two entry witnesses, and e itself.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .cuts import CutCertificate, certify
from .errors import BadParam, CoherenceViolated, DescentStalled, NoSharedSegment
from .graphs import Graph, Trail, trail_concat, validate_trail
from .segments import SegmentedCircuit, segment


class SpanWitness(NamedTuple):
    """Where a segment-closure subpath sits inside a coherent trail.

    Trail positions q_lo..q_hi hold the segment positions s_lo..s_hi in
    order (step=+1) or reversed (step=-1).
    """

    q_lo: int
    q_hi: int
    s_lo: int
    s_hi: int
    step: int


@dataclass(frozen=True)
class ReachState:
    """Level sets grown from both endpoints of the excluded edge, each with
    its segment spans; a_trees and b_trees map each reached H-vertex to the
    search tree (parent map) of the first level that reached it, and its
    witness trail is its tree path."""

    graph: Graph
    excluded: int
    a_levels: tuple[frozenset, ...]  # A_0 = empty, A_1, ... (stabilized)
    b_levels: tuple[frozenset, ...]
    a_spans: tuple[tuple, ...]  # SegmentedCircuit.spans of each level
    b_spans: tuple[tuple, ...]
    a_trees: dict
    b_trees: dict

    def level(self, side: str, i: int) -> frozenset:
        levels = self.a_levels if side == "A" else self.b_levels
        return levels[min(i, len(levels) - 1)]

    def spans(self, side: str, i: int) -> tuple[tuple[int, int] | None, ...]:
        spans = self.a_spans if side == "A" else self.b_spans
        return spans[min(i, len(spans) - 1)]

    def witness(self, side: str, v: int) -> Trail:
        return _tree_path((self.a_trees if side == "A" else self.b_trees)[v], v)

    def swapped(self) -> "ReachState":
        return replace(
            self,
            a_levels=self.b_levels,
            b_levels=self.a_levels,
            a_spans=self.b_spans,
            b_spans=self.a_spans,
            a_trees=self.b_trees,
            b_trees=self.a_trees,
        )

    def first_hit_level(self, side: str, j: int) -> int | None:
        spans = self.a_spans if side == "A" else self.b_spans
        return next((i for i in range(1, len(spans)) if spans[i][j]), None)


def _admissible_search(
    g: Graph, seg: SegmentedCircuit, excluded: int, x: Iterable[int]
) -> dict[int, tuple[int, int] | None]:
    """Breadth-first search in G-E(H)-excluded from the vertices of x, taken
    in increasing order; vertices of V(H) outside x absorb the search.

    Maps each source to None and each other reached vertex to its (previous
    vertex, edge id) on the search tree, in the order reached.
    """
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(sorted(set(x)))
    banned = seg.h_edges | {excluded}
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        if v in seg.h_vertices and parent[v] is not None:
            continue  # absorbing: admissible trails end at H-vertices
        for w, eid in g.adjacency[v]:
            if eid not in banned and w not in parent:
                parent[w] = (v, eid)
                queue.append(w)
    return parent


def _tree_path(parent: dict[int, tuple[int, int] | None], v: int) -> Trail:
    """Path from the search's source to v along the parent map."""
    verts = [v]
    edges = []
    while parent[v] is not None:
        v, eid = parent[v]
        verts.append(v)
        edges.append(eid)
    return Trail(tuple(reversed(verts)), tuple(reversed(edges)))


def compute_reach(
    g: Graph, seg: SegmentedCircuit, excluded: int, x: Iterable[int]
) -> tuple[frozenset, dict]:
    """H-vertices admissibly reachable from x, each with one witness trail.

    Search runs in G-E(H)-excluded; vertices of V(H) outside x absorb the
    search, so witness paths have all inner vertices off H.
    """
    g.endpoints(excluded)  # raises BadEdgeId
    x = set(x)
    bad = sorted(v for v in x if not 0 <= v < g.n)
    if bad:
        raise BadParam(f"source vertex {bad[0]} out of range (n={g.n})")
    parent = _admissible_search(g, seg, excluded, x)
    reached = {v: _tree_path(parent, v) for v in parent if v in seg.h_vertices}
    return frozenset(reached), reached


def hopping_fixpoint(
    g: Graph, seg: SegmentedCircuit, excluded: int, a: int, b: int
) -> ReachState | CutCertificate:
    """Iterate both reach sequences to their joint fixpoint.

    Returns the state when some segment is hit from both sides; otherwise
    the two hit-sets are segment-disjoint and the side hitting fewer
    segments yields an odd cut of size at most k+1.
    """
    if not 0 <= excluded < g.m or {a, b} != set(g.edges[excluded]):
        raise BadParam(f"{a} and {b} are not the endpoints of edge {excluded}")

    def grow(start: int) -> tuple[tuple[frozenset, ...], tuple[tuple, ...], dict]:
        levels = [frozenset()]
        spans = [(None,) * seg.k]
        trees: dict[int, dict] = {}
        sources = {start}
        while True:
            parent = _admissible_search(g, seg, excluded, sources)
            for v in parent:
                if v in seg.h_vertices:
                    trees.setdefault(v, parent)
            nxt = frozenset(trees)
            if len(levels) > 1 and nxt == levels[-1]:  # A_1 stays even if empty
                return tuple(levels), tuple(spans), trees
            levels.append(nxt)
            spans.append(seg.spans(nxt))
            sources = seg.closure(spans[-1])

    a_levels, a_spans, a_trees = grow(a)
    b_levels, b_spans, b_trees = grow(b)
    if any(sa and sb for sa, sb in zip(a_spans[-1], b_spans[-1])):
        return ReachState(
            g, excluded, a_levels, b_levels, a_spans, b_spans, a_trees, b_trees
        )
    hits_a = sum(1 for span in a_spans[-1] if span)
    hits_b = sum(1 for span in b_spans[-1] if span)
    if hits_a <= hits_b:
        side_vertices, endpoint, other = a_levels[-1], a, b
    else:
        side_vertices, endpoint, other = b_levels[-1], b, a
    region = _admissible_search(g, seg, excluded, set(side_vertices) | {endpoint})
    cert = certify(g, region)
    if other in region or excluded not in cert.boundary:
        raise CoherenceViolated("fixpoint region leaked across the excluded edge")
    if not cert.odd or cert.size > seg.k + 1:
        raise CoherenceViolated(
            f"fixpoint cut invalid: size={cert.size}, k+1={seg.k + 1}"
        )
    return cert


@dataclass
class CoherentTrail:
    """Trail through all separators with per-level bookkeeping.

    intervals maps (side, segment) to the SpanWitness of that side's
    segment closure inside the trail.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    n: int
    m: int
    intervals: dict

    @property
    def w(self) -> int:
        return len(self.edges)

    @property
    def level(self) -> tuple[int, int]:
        return (self.n, self.m)

    def trail(self) -> Trail:
        return Trail(self.vertices, self.edges)


def check_coherent(q: CoherentTrail, state: ReachState, seg: SegmentedCircuit) -> None:
    """Assert the three coherence conditions plus bookkeeping consistency."""
    g = state.graph
    t = q.trail()
    validate_trail(g, t)
    if state.excluded in q.edges:
        raise CoherenceViolated("trail uses the excluded edge")
    # C1: all separators covered, endpoints at the next levels
    if not set(seg.sep_ids) <= set(q.edges):
        raise CoherenceViolated("C1: trail misses a separator edge")
    if q.vertices[0] not in state.level("A", q.n + 1):
        raise CoherenceViolated("C1: start vertex not at level n+1")
    if q.vertices[-1] not in state.level("B", q.m + 1):
        raise CoherenceViolated("C1: end vertex not at level m+1")
    # C2: the stretches between consecutive H-vertices; C1 put both trail
    # ends on H, and a stretch with inner vertices has only non-H edges
    a_next = state.level("A", q.n + 1)
    b_next = state.level("B", q.m + 1)
    on_h = [i for i, v in enumerate(q.vertices) if v in seg.h_vertices]
    for r, tt in zip(on_h, on_h[1:]):
        if tt == r + 1 and q.edges[r] in seg.h_edges:
            continue
        ends = {q.vertices[r], q.vertices[tt]}
        if len(ends & a_next) > 1 or len(ends & b_next) > 1:
            raise CoherenceViolated("C2: both stretch ends inside one level set")
    # C3: segment closures are witnessed subtrails with cross-segment
    # disjoint intervals
    for side, lvl in (("A", q.n), ("B", q.m)):
        for j, span in enumerate(state.spans(side, lvl)):
            witness = q.intervals.get((side, j))
            if span is None:
                if witness is not None:
                    raise CoherenceViolated(f"C3: stale interval for {side}, segment {j}")
                continue
            if witness is None:
                raise CoherenceViolated(f"C3: missing interval for {side}, segment {j}")
            if (witness.s_lo, witness.s_hi) != span:
                raise CoherenceViolated(f"C3: interval span mismatch on segment {j}")
            if witness.q_hi - witness.q_lo != witness.s_hi - witness.s_lo:
                raise CoherenceViolated("C3: interval length mismatch")
            path = seg.seg_paths[j]
            for off in range(witness.q_hi - witness.q_lo + 1):
                sv = (
                    path[witness.s_lo + off]
                    if witness.step == 1
                    else path[witness.s_hi - off]
                )
                if q.vertices[witness.q_lo + off] != sv:
                    raise CoherenceViolated("C3: interval does not witness the closure")
    items = list(q.intervals.items())
    for i in range(len(items)):
        for jdx in range(i + 1, len(items)):
            (s1, j1), w1 = items[i]
            (s2, j2), w2 = items[jdx]
            if j1 == j2:
                continue
            if not (w1.q_hi < w2.q_lo or w2.q_hi < w1.q_lo):
                raise CoherenceViolated(
                    f"C3: intervals for segments {j1} and {j2} overlap"
                )


def initial_coherent_trail(
    state: ReachState, seg: SegmentedCircuit, force_segment: int | None = None
) -> CoherentTrail:
    """Coherent trail along H between the first levels hitting one segment.

    Picks the segment minimizing the level sum (or the forced segment), and
    walks H from the chosen start vertex around through every separator to
    the chosen end vertex, skipping only part of that segment.
    """
    candidates = []
    js = [force_segment] if force_segment is not None else range(seg.k)
    for j in js:
        la = state.first_hit_level("A", j)
        lb = state.first_hit_level("B", j)
        if la is not None and lb is not None:
            candidates.append((la + lb, j, la, lb))
    if not candidates:
        raise NoSharedSegment("no segment is reached from both endpoints")
    _, j, la, lb = min(candidates)
    n, m = la - 1, lb - 1
    alpha = state.spans("A", la)[j][0]
    beta = state.spans("B", lb)[j][0]
    vs, _ = seg.seg_bounds[j]
    big_l = len(seg.trail.edges)
    ga, gb = vs + alpha, vs + beta

    if beta <= alpha:
        direction = 1
        verts = seg.trail.vertices[ga : big_l + 1] + seg.trail.vertices[1 : gb + 1]
        edges = seg.trail.edges[ga:] + seg.trail.edges[:gb]

        def qpos(gidx: int) -> int:
            return gidx - ga if gidx >= ga else (big_l - ga) + gidx

    else:
        direction = -1
        verts = tuple(reversed(seg.trail.vertices[: ga + 1])) + tuple(
            reversed(seg.trail.vertices[gb:big_l])
        )
        edges = tuple(reversed(seg.trail.edges[:ga])) + tuple(
            reversed(seg.trail.edges[gb:])
        )

        def qpos(gidx: int) -> int:
            return ga - gidx if gidx <= ga else ga + (big_l - gidx)

    intervals = {}
    for side, lvl in (("A", n), ("B", m)):
        for j2, span in enumerate(state.spans(side, lvl)):
            if span is None:
                continue
            if j2 == j:
                raise CoherenceViolated(
                    "chosen segment has a nonempty closure below its first level"
                )
            vs2, _ = seg.seg_bounds[j2]
            p1, p2 = qpos(vs2 + span[0]), qpos(vs2 + span[1])
            intervals[(side, j2)] = SpanWitness(
                min(p1, p2), max(p1, p2), span[0], span[1], direction
            )
    q = CoherentTrail(
        vertices=tuple(verts),
        edges=tuple(edges),
        n=n,
        m=m,
        intervals=intervals,
    )
    check_coherent(q, state, seg)
    return q


# ---------------------------------------------------------------------------
# descent transformations


def _subspan(old: SpanWitness, s_lo: int, s_hi: int) -> SpanWitness:
    """Witness for a sub-range of segment positions inside an old witness."""
    if not (old.s_lo <= s_lo and s_hi <= old.s_hi):
        raise CoherenceViolated("projected span escapes the recorded interval")
    if old.step == 1:
        q_lo = old.q_lo + (s_lo - old.s_lo)
        q_hi = old.q_lo + (s_hi - old.s_lo)
    else:
        q_lo = old.q_lo + (old.s_hi - s_hi)
        q_hi = old.q_lo + (old.s_hi - s_lo)
    return SpanWitness(q_lo, q_hi, s_lo, s_hi, old.step)


def _demote(q: CoherentTrail, state: ReachState, seg: SegmentedCircuit, side: str) -> CoherentTrail:
    """Drop one level on the given side; intervals shrink in place."""
    n, m = q.n, q.m
    new_lvl = (n - 1) if side == "A" else (m - 1)
    intervals = dict(q.intervals)
    for j, span in enumerate(state.spans(side, new_lvl)):
        old = intervals.pop((side, j), None)
        if span is None:
            continue
        if old is None:
            raise CoherenceViolated("closure nonempty but no recorded interval")
        intervals[(side, j)] = _subspan(old, *span)
    out = replace(
        q,
        n=new_lvl if side == "A" else n,
        m=new_lvl if side == "B" else m,
        intervals=intervals,
    )
    check_coherent(out, state, seg)
    return out


def _mirror(q: CoherentTrail) -> CoherentTrail:
    """Reverse the trail and swap the roles of the two sides."""
    w = q.w
    intervals = {
        ("A" if side == "B" else "B", j): SpanWitness(
            w - wit.q_hi, w - wit.q_lo, wit.s_lo, wit.s_hi, -wit.step
        )
        for (side, j), wit in q.intervals.items()
    }
    return CoherentTrail(
        vertices=tuple(reversed(q.vertices)),
        edges=tuple(reversed(q.edges)),
        n=q.m,
        m=q.n,
        intervals=intervals,
    )


class _Restart(Exception):
    """Internal: descent should rebuild from the named segment."""

    def __init__(self, segment_index: int):
        self.segment_index = segment_index


def _reroute_a_side(
    q: CoherentTrail, state: ReachState, seg: SegmentedCircuit
) -> CoherentTrail:
    """One rerouting step on the A side (n >= 1, start vertex fresh at n+1).

    Splices the witness trail of the start vertex into the trail, replacing
    the stretch of segment j between the frontier anchor and the witness
    source; the A level strictly drops.
    """
    n, m = q.n, q.m
    start = q.vertices[0]
    if start in state.level("A", n):
        raise CoherenceViolated("reroute called although demotion applies")
    p = state.witness("A", start)
    x = p.vertices[0]
    if p.vertices[-1] != start:
        raise CoherenceViolated("witness trail does not end at the start vertex")
    spans_n = state.spans("A", n)
    inside = [
        (j, px)
        for j, px in seg.places.get(x, ())
        if spans_n[j] is not None and spans_n[j][0] <= px <= spans_n[j][1]
    ]
    if not inside:
        raise CoherenceViolated("witness source lies outside the level closure")
    j, px = inside[0]
    wit = q.intervals[("A", j)]
    d = wit.q_lo + (px - wit.s_lo) if wit.step == 1 else wit.q_lo + (wit.s_hi - px)
    if q.vertices[d] != x:
        raise CoherenceViolated("interval arithmetic lost the witness source")
    path = seg.seg_paths[j]
    frontiers = []  # frontiers[i]: the end vertices of A_{i+1}'s span on j
    for i in range(1, n + 2):
        span = state.spans("A", i)[j]
        frontiers.append(set() if span is None else {path[span[0]], path[span[1]]})
    frontier_union = set().union(*frontiers[:n])
    c = next((r for r in range(d, -1, -1) if q.vertices[r] in frontier_union), None)
    if c is None:
        raise CoherenceViolated("no frontier anchor before the witness source")
    n_prime = next(
        (i for i in range(n + 1) if q.vertices[c] in frontiers[i]), None
    )
    if n_prime is None or n_prime >= n:
        raise DescentStalled(f"anchor level {n_prime} does not drop below {n}")
    b_wit = q.intervals.get(("B", j))
    overlaps_b = b_wit is not None and not (b_wit.q_hi < c or b_wit.q_lo > d)
    if overlaps_b or x in state.level("B", m + 1):
        raise _Restart(j)
    if set(p.edges) & set(q.edges):
        raise CoherenceViolated("witness trail shares an edge with the trail")

    len_p = len(p.edges)

    def remap(pos: int) -> int:
        if pos <= c:
            return c - pos
        if pos >= d:
            return c + len_p + (pos - d)
        raise CoherenceViolated("position inside the removed stretch survived")

    verts = (
        tuple(reversed(q.vertices[: c + 1]))
        + tuple(reversed(p.vertices))[1:]
        + q.vertices[d + 1 :]
    )
    edges = (
        tuple(reversed(q.edges[:c]))
        + tuple(reversed(p.edges))
        + q.edges[d:]
    )
    intervals = {}
    for j2, span in enumerate(state.spans("A", n_prime)):
        if span is not None:
            old = q.intervals.get(("A", j2))
            if old is None:
                raise CoherenceViolated("closure nonempty but no recorded interval")
            sub = _subspan(old, *span)
            intervals[("A", j2)] = _remap_witness(sub, remap)
        b_old = q.intervals.get(("B", j2))
        if b_old is not None:
            intervals[("B", j2)] = _remap_witness(b_old, remap)
    if not all(eid in seg.h_edges for eid in q.edges[c:d]):
        raise CoherenceViolated("removed stretch has a non-H edge")
    out = CoherentTrail(
        vertices=verts,
        edges=edges,
        n=n_prime,
        m=m,
        intervals=intervals,
    )
    check_coherent(out, state, seg)
    return out


def _remap_witness(wit: SpanWitness, remap) -> SpanWitness:
    p1, p2 = remap(wit.q_lo), remap(wit.q_hi)
    step = wit.step if p2 > p1 or (p1 == p2) else -wit.step
    if p2 < p1:
        p1, p2 = p2, p1
    return SpanWitness(p1, p2, wit.s_lo, wit.s_hi, step)


def reroute_descent(
    q: CoherentTrail, state: ReachState, seg: SegmentedCircuit
) -> CoherentTrail:
    """Bring a coherent trail down to level (0, 0).

    Each iteration either demotes an endpoint one level, splices a witness
    trail (strictly dropping one level), or restarts from a segment now
    known to be shared at smaller levels; the level sum strictly decreases.
    """
    check_coherent(q, state, seg)
    guard = q.n + q.m + 1
    while (q.n, q.m) != (0, 0):
        guard -= 1
        if guard < 0:
            raise DescentStalled("level sum failed to reach zero in budget")
        before = q.n + q.m
        if q.n >= 1 and q.vertices[0] in state.level("A", q.n):
            q = _demote(q, state, seg, "A")
        elif q.m >= 1 and q.vertices[-1] in state.level("B", q.m):
            q = _demote(q, state, seg, "B")
        elif q.n >= 1:
            try:
                q = _reroute_a_side(q, state, seg)
            except _Restart as r:
                q = initial_coherent_trail(state, seg, force_segment=r.segment_index)
        else:
            try:
                q = _mirror(_reroute_a_side(_mirror(q), state.swapped(), seg))
                check_coherent(q, state, seg)
            except _Restart as r:
                q = initial_coherent_trail(state, seg, force_segment=r.segment_index)
        if q.n + q.m >= before:
            raise DescentStalled(
                f"level sum did not decrease: {before} -> {q.n + q.m}"
            )
    return q


def bridge_case(
    g: Graph, h: Trail, s_prefix: Iterable[int], e_next: int
) -> Trail | CutCertificate:
    """Extend circuit h by the edge e_next, a bridge of G-E(h).

    Returns the extended circuit, or the odd-cut certificate produced when
    the reach fixpoint shares no segment.  If an endpoint of e_next is off
    the circuit, the result passes it exactly once.
    """
    s_set = frozenset(s_prefix)
    seg = segment(g, h, s_set)
    a, b = g.endpoints(e_next)
    outcome = hopping_fixpoint(g, seg, e_next, a, b)
    if isinstance(outcome, CutCertificate):
        return outcome
    state = outcome
    q = reroute_descent(initial_coherent_trail(state, seg), state, seg)
    a1 = q.vertices[0]
    b1 = q.vertices[-1]
    p_a = state.witness("A", a1)
    p_b = state.witness("B", b1)
    if p_a.vertices[0] != a or p_b.vertices[0] != b:
        raise CoherenceViolated("entry witnesses do not start at the edge endpoints")
    if set(p_a.vertices) & set(p_b.vertices):
        raise CoherenceViolated("entry witnesses are not vertex-disjoint")
    if (set(p_a.edges) | set(p_b.edges)) & set(q.edges):
        raise CoherenceViolated("entry witness shares an edge with the trail")
    circuit = trail_concat(
        Trail((b, a), (e_next,)), p_a, q.trail(), p_b.reverse()
    )
    validate_trail(g, circuit)
    if not circuit.is_closed:
        raise CoherenceViolated("rerouted circuit is not closed")
    return circuit
