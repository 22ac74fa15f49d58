"""Reach fixpoints, coherent trails, and the rerouting descent.

This implements the bridge case of the circuit extension: given a circuit H
through k prescribed edges and a further edge e=ab that is a bridge of
G-E(H), either produce a circuit through all k+1 edges or an odd cut of size
at most k+1.

Vocabulary (all relative to the segmented circuit H and the excluded e):
  admissible trail  - trail in G-E(H)-e whose inner vertices avoid V(H);
  reach of X        - H-vertices admissibly reachable from X;
  levels A_i / B_i  - iterated reach closures grown from a and b, held as
                      one Reach per side;
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
    C3  each nonempty closure of A_n or B_m on a segment is a subtrail,
        and subtrails of different segments do not overlap.  The trail tags
        each vertex with the H position it came from, so a closure's
        subtrail is where its H positions are tagged: they must all be on
        the trail, at consecutive positions in one direction.  Distinct
        segments own distinct H positions, so their subtrails are disjoint.

The descent repeatedly reroutes a coherent trail to strictly smaller levels
until both levels hit zero, at which point the circuit assembles from the
trail, the two entry witnesses, and e itself.  Each step is one reroute of
one side, never a restart or an endpoint demoted.  Let la(j), lb(j) be the
first A and B levels that hit segment j; the initial trail takes a segment
with the smallest sum S* of the two, so n + m + 2 = S* there and every step
lowers n + m.  An A step splices in the witness of some x in the closure of
A_n on a segment j, so la(j) <= n.  A nonempty span of B_m on j would give
la(j) + lb(j) <= n + m < S*, and x in B_{m+1} would give la(j) + lb(j) <=
n + m + 1 < S*, so the step raises on either.
Nor does an end lie in its own level.  The initial start is the low end of
A_{la}'s span on its segment, where A_n has none.  After a reroute the start
is an end of A_{n'+1}'s span on j, n' the smallest such index; the levels
nest, so a start in A_{n'} would end A_{n'}'s span too.  An A step keeps the
B end and m, and a B step is its mirror image.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .certificates import circuit_fault, trail_fault
from .cuts import CutCertificate, certify
from .errors import BadParam, CoherenceViolated
from .graphs import Graph, Trail, trail_concat, tree_path
from .segments import SegmentedCircuit


class Reach(NamedTuple):
    """Level sets grown from one endpoint of the excluded edge, with their
    segment spans; trees maps each reached H-vertex to the search tree
    (parent map) of the first level that reached it, and its witness trail
    is its tree path.  An index past the fixpoint reads the last level."""

    levels: tuple[frozenset, ...]  # level 0 = empty, 1, ... (stabilized)
    spans: tuple[tuple, ...]  # SegmentedCircuit.spans of each level
    trees: dict

    def level(self, i: int) -> frozenset:
        return self.levels[min(i, len(self.levels) - 1)]

    def span(self, i: int) -> tuple[tuple[int, int] | None, ...]:
        return self.spans[min(i, len(self.spans) - 1)]

    def witness(self, v: int) -> Trail:
        return tree_path(self.trees[v], v)

    def first_hit(self, j: int) -> int | None:
        return next((i for i, s in enumerate(self.spans) if i and s[j]), None)


class ReachState(NamedTuple):
    """The reach from each endpoint of the excluded edge: a from a, b from b."""

    graph: Graph
    excluded: int
    a: Reach
    b: Reach


def _admissible_search(
    g: Graph, seg: SegmentedCircuit, excluded: int, x: Iterable[int]
) -> dict[int, tuple[int, int] | None]:
    """Breadth-first search in G-E(H)-excluded from the vertices of x, taken
    in increasing order; vertices of V(H) outside x absorb the search.

    Maps each source to None and each other reached vertex to its (previous
    vertex, edge id) on the search tree, in the order reached.
    """
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(sorted(set(x)))
    adjacency, h_edges, h_vertices = g.adjacency, seg.h_edges, seg.h_vertices
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        if v in h_vertices and parent[v] is not None:
            continue  # absorbing: admissible trails end at H-vertices
        for w, eid in adjacency[v]:
            if w not in parent and eid != excluded and eid not in h_edges:
                parent[w] = (v, eid)
                queue.append(w)
    return parent


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

    def grow(start: int) -> Reach:
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
                return Reach(tuple(levels), tuple(spans), trees)
            levels.append(nxt)
            spans.append(seg.spans(nxt))
            sources = seg.closure(spans[-1])

    reach_a, reach_b = grow(a), grow(b)
    if any(sa and sb for sa, sb in zip(reach_a.spans[-1], reach_b.spans[-1])):
        return ReachState(g, excluded, reach_a, reach_b)
    hits_a = sum(1 for span in reach_a.spans[-1] if span)
    hits_b = sum(1 for span in reach_b.spans[-1] if span)
    if hits_a <= hits_b:
        side, endpoint, other = reach_a, a, b
    else:
        side, endpoint, other = reach_b, b, a
    region = _admissible_search(g, seg, excluded, set(side.levels[-1]) | {endpoint})
    cert = certify(g, region)
    if other in region or excluded not in cert.boundary:
        raise CoherenceViolated("fixpoint region leaked across the excluded edge")
    if not cert.odd or cert.size > seg.k + 1:
        raise CoherenceViolated(
            f"fixpoint cut invalid: size={cert.size}, k+1={seg.k + 1}"
        )
    return cert


class CoherentTrail(NamedTuple):
    """Trail through all separators, each vertex tagged with its H position.

    at[r] is the index on seg.trail of the H position that vertices[r] came
    from, or -1 for an inner vertex of a spliced witness.  C3 then reads:
    every H position of a nonempty closure of A_n or B_m on a segment is
    tagged, at consecutive trail positions in one direction, and that run is
    the closure's subtrail.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    n: int
    m: int
    at: tuple[int, ...]

    def trail(self) -> Trail:
        return Trail(self.vertices, self.edges)


def _positions(q: CoherentTrail) -> dict[int, int]:
    """Trail position of each H index tagged on q.

    An index is tagged twice where the trail visits that H position twice: a
    closed initial walk, or a splice whose anchor is the witness source.  The
    map keeps the later visit.
    """
    return {t: r for r, t in enumerate(q.at) if t >= 0}


def check_coherent(q: CoherentTrail, state: ReachState, seg: SegmentedCircuit) -> None:
    """Assert the three coherence conditions, C3 read from the tags."""
    g = state.graph
    fault = trail_fault(g.n, g.edges, q.vertices, q.edges)
    if fault:
        raise CoherenceViolated(f"coherent trail fails: {fault}")
    if state.excluded in q.edges:
        raise CoherenceViolated("trail uses the excluded edge")
    # C1: all separators covered, endpoints at the next levels
    if not set(seg.sep_ids) <= set(q.edges):
        raise CoherenceViolated("C1: trail misses a separator edge")
    a_next = state.a.level(q.n + 1)
    b_next = state.b.level(q.m + 1)
    if q.vertices[0] not in a_next:
        raise CoherenceViolated("C1: start vertex not at level n+1")
    if q.vertices[-1] not in b_next:
        raise CoherenceViolated("C1: end vertex not at level m+1")
    # C2: the stretches between consecutive H-vertices; C1 put both trail
    # ends on H, and a stretch with inner vertices has only non-H edges
    on_h = [i for i, v in enumerate(q.vertices) if v in seg.h_vertices]
    for r, tt in zip(on_h, on_h[1:]):
        if tt == r + 1 and q.edges[r] in seg.h_edges:
            continue
        ends = {q.vertices[r], q.vertices[tt]}
        if len(ends & a_next) > 1 or len(ends & b_next) > 1:
            raise CoherenceViolated("C2: both stretch ends inside one level set")
    # C3: every tag names the trail vertex it sits on, and each closure's H
    # indices sit at consecutive trail positions in one direction; segments
    # own distinct H indices, so subtrails of different segments are disjoint
    if len(q.at) != len(q.vertices):
        raise CoherenceViolated(
            f"C3: {len(q.at)} tags for a trail of {len(q.vertices)} vertices"
        )
    h = seg.trail.vertices
    for r, (v, tag) in enumerate(zip(q.vertices, q.at)):
        if tag == -1:
            continue
        if not 0 <= tag < len(h):
            raise CoherenceViolated(f"C3: tag {tag} at position {r} is not an H position")
        if h[tag] != v:
            raise CoherenceViolated(
                f"C3: tag {tag} at position {r} names vertex {h[tag]}, not {v}"
            )
    pos = _positions(q)
    for side, spans in (("A", state.a.span(q.n)), ("B", state.b.span(q.m))):
        for j, span in enumerate(spans):
            if span is None:
                continue
            vs = seg.seg_bounds[j][0]
            run = [pos.get(vs + p) for p in range(span[0], span[1] + 1)]
            if None in run:
                raise CoherenceViolated(f"C3: {side} closure on segment {j} is off the trail")
            step = 1 if run[-1] >= run[0] else -1
            if run != list(range(run[0], run[-1] + step, step)):
                raise CoherenceViolated(f"C3: {side} closure on segment {j} is not a subtrail")


def initial_coherent_trail(state: ReachState, seg: SegmentedCircuit) -> CoherentTrail:
    """Coherent trail along H between the first levels hitting one segment.

    Picks the segment with the smallest sum of its first A and B levels,
    and walks H from the chosen start vertex around through every separator
    to the chosen end vertex, skipping only part of that segment.  The trail
    is not checked here: reroute_descent checks it on entry.
    """
    a, b = state.a, state.b
    candidates = []
    for j in range(seg.k):
        la, lb = a.first_hit(j), b.first_hit(j)
        if la is not None and lb is not None:
            candidates.append((la + lb, j, la, lb))
    if not candidates:
        raise CoherenceViolated("no segment is reached from both endpoints")
    _, j, la, lb = min(candidates)
    n, m = la - 1, lb - 1
    # the walk is closed when both ends are one H position of segment j, which
    # no closure at levels (n, m) may then reach
    if a.span(n)[j] or b.span(m)[j]:
        raise CoherenceViolated(
            "chosen segment has a nonempty closure below its first level"
        )
    vs, _ = seg.seg_bounds[j]
    big_l = len(seg.trail.edges)
    ga = vs + a.span(la)[j][0]
    gb = vs + b.span(lb)[j][0]
    # H positions are taken mod L, so the walk passes the rotation point as
    # position 0, where segment 0 starts
    if gb <= ga:
        walk = range(ga, gb + big_l + 1)
        edges = seg.trail.edges[ga:] + seg.trail.edges[:gb]
    else:
        walk = range(ga, gb - big_l - 1, -1)
        edges = seg.trail.edges[:ga][::-1] + seg.trail.edges[gb:][::-1]
    at = tuple(t % big_l for t in walk)
    return CoherentTrail(
        vertices=tuple(seg.trail.vertices[t] for t in at),
        edges=edges,
        n=n,
        m=m,
        at=at,
    )


# ---------------------------------------------------------------------------
# descent transformations


def _mirror(q: CoherentTrail) -> CoherentTrail:
    """Reverse the trail and swap the roles of the two sides."""
    return CoherentTrail(q.vertices[::-1], q.edges[::-1], q.m, q.n, q.at[::-1])


def _reroute(
    q: CoherentTrail, near: Reach, far: Reach, seg: SegmentedCircuit
) -> CoherentTrail:
    """One rerouting step on the start's side, whose reach is near (n >= 1,
    start vertex fresh at n+1); far is the end's reach.

    Splices the witness trail of the start vertex into the trail, replacing
    the stretch of segment j between the frontier anchor and the witness
    source; n strictly drops.  q must be coherent, so each closure's
    subtrail is found through the tags.  Messages call the start's side A.
    """
    n, m = q.n, q.m
    start = q.vertices[0]
    if start in near.level(n):
        raise CoherenceViolated(f"start vertex {start} is already in A_{n}")
    p = near.witness(start)
    x = p.vertices[0]
    if p.vertices[-1] != start:
        raise CoherenceViolated("witness trail does not end at the start vertex")
    spans_n = near.span(n)
    inside = [
        (j, px)
        for j, px in seg.places.get(x, ())
        if spans_n[j] is not None and spans_n[j][0] <= px <= spans_n[j][1]
    ]
    if not inside:
        raise CoherenceViolated("witness source lies outside the level closure")
    j, px = inside[0]
    vs = seg.seg_bounds[j][0]
    d = _positions(q)[vs + px]
    path = seg.seg_paths[j]
    frontiers = []  # frontiers[i]: the end vertices of A_{i+1}'s span on j
    for i in range(1, n + 2):
        span = near.span(i)[j]
        frontiers.append(set() if span is None else {path[span[0]], path[span[1]]})
    frontier_union = set().union(*frontiers[:n])
    c = next((r for r in range(d, -1, -1) if q.vertices[r] in frontier_union), None)
    if c is None:
        raise CoherenceViolated("no frontier anchor before the witness source")
    n_prime = next(
        (i for i in range(n + 1) if q.vertices[c] in frontiers[i]), None
    )
    if n_prime is None or n_prime >= n:
        raise CoherenceViolated(f"anchor level {n_prime} does not drop below {n}")
    if far.span(m)[j] is not None or x in far.level(m + 1):
        raise CoherenceViolated(f"segment {j} is shared below the initial level sum")
    if not all(eid in seg.h_edges for eid in q.edges[c:d]):
        raise CoherenceViolated("removed stretch has a non-H edge")
    # tags of the witness after the start: inner vertices are off H, and x
    # keeps its own; a one-vertex witness is the start itself
    lp = len(p.vertices)
    spliced = (-1,) * (lp - 2) + (q.at[d],) if lp > 1 else ()
    return CoherentTrail(
        vertices=q.vertices[c::-1] + p.vertices[-2::-1] + q.vertices[d + 1 :],
        edges=q.edges[:c][::-1] + p.edges[::-1] + q.edges[d:],
        n=n_prime,
        m=m,
        at=q.at[c::-1] + spliced + q.at[d + 1 :],
    )


def reroute_descent(
    q: CoherentTrail, state: ReachState, seg: SegmentedCircuit
) -> CoherentTrail:
    """Bring a coherent trail down to level (0, 0).

    Each iteration splices a witness trail into one side, the A side while
    n >= 1 and else the mirrored B side, and strictly lowers that side's
    level.  q must come from initial_coherent_trail or an earlier step (see
    the module docstring); a trail with an end inside its own level, or on
    a segment shared at a smaller level sum, raises CoherenceViolated.  q
    is checked on entry and every step's trail after it, so each trail of
    the descent is checked once.
    """
    check_coherent(q, state, seg)
    guard = q.n + q.m + 1
    while (q.n, q.m) != (0, 0):
        guard -= 1
        if guard < 0:
            raise CoherenceViolated("level sum failed to reach zero in budget")
        before = q.n + q.m
        if q.n >= 1:
            q = _reroute(q, state.a, state.b, seg)
        else:
            q = _mirror(_reroute(_mirror(q), state.b, state.a, seg))
        check_coherent(q, state, seg)
        if q.n + q.m >= before:
            raise CoherenceViolated(
                f"level sum did not decrease: {before} -> {q.n + q.m}"
            )
    return q


def bridge_case(
    g: Graph, seg: SegmentedCircuit, e_next: int
) -> Trail | CutCertificate:
    """Extend the segmented circuit H by the edge e_next, a bridge of G-E(H).

    seg comes from segment, which the caller has run on H.  Returns the
    extended circuit, or the odd-cut certificate produced when the reach
    fixpoint shares no segment.  If an endpoint of e_next is off the
    circuit, the result passes it exactly once.
    """
    a, b = g.endpoints(e_next)
    outcome = hopping_fixpoint(g, seg, e_next, a, b)
    if isinstance(outcome, CutCertificate):
        return outcome
    state = outcome
    q = reroute_descent(initial_coherent_trail(state, seg), state, seg)
    a1 = q.vertices[0]
    b1 = q.vertices[-1]
    p_a = state.a.witness(a1)
    p_b = state.b.witness(b1)
    if p_a.vertices[0] != a or p_b.vertices[0] != b:
        raise CoherenceViolated("entry witnesses do not start at the edge endpoints")
    if set(p_a.vertices) & set(p_b.vertices):
        raise CoherenceViolated("entry witnesses are not vertex-disjoint")
    circuit = trail_concat(
        Trail((b, a), (e_next,)), p_a, q.trail(), p_b.reverse()
    )
    fault = circuit_fault(g.n, g.edges, circuit.vertices, circuit.edges, ())
    if fault:
        raise CoherenceViolated(f"rerouted circuit fails: {fault}")
    return circuit
