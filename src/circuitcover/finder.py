"""Build a circuit through prescribed edges, or certify an odd cut.

The construction is inductive: start from a circuit through the first edge
uv (uv plus a BFS path from v to u; no path means uv is a bridge) and fold
the remaining edges in one at a time.  Each step first puts the circuit in
the canonical form H_1 e_1 ... H_k e_k of `segment`, every segment a path,
and works on that form.  An edge already on the circuit is free.  An edge
with an end that has no other leftover edge is a bridge of the leftover
graph.  For any other, one unit-capacity flow over the leftover graph first
tries to route it through the one circuit vertex a splice can use; when that
flow succeeds, the edge splices in through the closed trail it yields.
Only when it fails does one lowlink DFS say whether the edge is a bridge of
the leftover and, if not, which 2-edge-connected component holds it.  The
flows and the DFS run on G itself and bar the circuit's edges, so setting
one up costs the circuit's length, not G's size.  A bridge goes through the
rerouting machinery, which either succeeds or emits an odd cut of size at
most the number of edges placed so far, and so at most |S|.  A component
that misses the circuit is contracted to one vertex in G's own edge ids,
and the bridge case runs there on the same segmented circuit.  The DFS
names the component's boundary as well, and the contraction trusts it
after O(|boundary|) checks, so the component is searched once.
"""
from __future__ import annotations

from collections import Counter, deque
from typing import Iterable

from .certificates import circuit_fault, trail_fault
from .cuts import CutCertificate, certify
from .errors import CoherenceViolated, DisconnectedInput, EmptyPrescribed
from .graphs import (
    FlowNetwork,
    Graph,
    Trail,
    bridges_and_2ec_components,
    contract_subgraph,
    edge_ids,
    euler_circuit,
    is_connected,
    trail_concat,
    tree_path,
)
from .hopping import bridge_case
from .segments import SegmentedCircuit, rotate_closed, segment


def _base_circuit(g: Graph, eid: int) -> Trail | CutCertificate:
    """Circuit (u, v, ..., u) through the edge eid = uv, or the bridge
    certificate.

    The path back from v to u is a BFS path in G - eid that scans each
    adjacency in edge-id order, and the search ends the moment it discovers
    u, whose tree edge is then fixed.  When u is unreachable, eid is a
    bridge and v's component is an odd cut of size one.
    """
    u, v = g.endpoints(eid)
    adjacency = g.adjacency
    parent = {v: None}  # vertex -> (previous vertex, edge id) on the BFS tree
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y, e in adjacency[x]:
            if e != eid and y not in parent:
                parent[y] = (x, e)
                if y == u:
                    p = tree_path(parent, u)
                    return Trail((u,) + p.vertices, (eid,) + p.edges)
                queue.append(y)
    cert = certify(g, parent.keys())
    if cert.boundary != frozenset({eid}):
        raise CoherenceViolated("an unreachable endpoint must mean a bridge")
    return cert


def _trail_through_edge(
    g: Graph, barred: Iterable[int], eid: int, s: int, t: int
) -> Trail | None:
    """s-t trail of g through the edge eid = xy that avoids the `barred`
    edges (a closed trail through eid when s == t), or None when the flow
    below falls short of 2.

    One unit-capacity flow of value 2 on g with the barred edges and eid
    barred, from x and y to s and t (twice to s when s == t), splits into a
    walk from x and a walk from y; the trail is the x-walk reversed, eid,
    then the y-walk, oriented to start at s.  Barring costs the size of
    `barred`, and the flow is the one on the graph L = g - barred with eid
    deleted.  When s == t, a flow of value 2 proves that s lies in eid's
    2-edge-connected component of L: the closed trail passes through s and
    eid, and stays connected without any one of its edges.  That component
    meets the rest of L only through bridges, so no augmenting path leaves
    it and comes back.
    """
    x, y = g.endpoints(eid)
    net = FlowNetwork(g, barred)
    net.out[eid] = -2
    if net.max_flow({x: 1, y: 1}, {s: 2} if s == t else {s: 1, t: 1}) != 2:
        return None
    p1, p2 = _two_walks(net, (x, y), (s, t))
    walk = trail_concat(p1.reverse(), Trail((x, y), (eid,)), p2)
    if walk.start != s:
        walk = walk.reverse()
    fault = trail_fault(g.n, g.edges, walk.vertices, walk.edges)
    if fault:
        raise CoherenceViolated(f"flow walks make no trail: {fault}")
    if walk.start != s or walk.end != t:
        raise CoherenceViolated("flow walks do not end at the requested targets")
    return walk


def _two_walks(
    net: FlowNetwork, starts: tuple[int, int], ends: tuple[int, int]
) -> tuple[Trail, Trail]:
    """Split a 2-unit flow into a walk from each start to one of the ends.

    Each walk leaves a vertex by its first unscanned edge, in adjacency
    order, whose unit leaves that vertex, and stops only when no such edge
    is left.  A vertex's scanner is made the first time a walk leaves it
    and resumes where it stopped, so each edge is scanned at most once from
    each end.
    """
    out = net.out
    adjacency = net.g.adjacency
    unscanned = {}

    def leave(v: int) -> tuple[int, int] | None:
        scan = unscanned.get(v)
        if scan is None:
            scan = unscanned[v] = iter(adjacency[v])
        for w, e in scan:
            if out[e] == v:
                return w, e
        return None

    walks = []
    for v in starts:
        verts = [v]
        edges = []
        while (step := leave(v)) is not None:
            v, e = step
            verts.append(v)
            edges.append(e)
        if v not in ends:
            raise CoherenceViolated("flow walk is stuck at a vertex")
        walks.append(Trail(tuple(verts), tuple(edges)))
    return walks[0], walks[1]


def extend_circuit(
    g: Graph, h: Trail, s_prefix: Iterable[int], e_next: int
) -> Trail | CutCertificate:
    """Circuit through s_prefix plus e_next, or an odd-cut certificate.

    h must be a circuit through s_prefix.  It is segmented once on entry,
    and everything below reads its canonical form H = seg.trail: an e_next
    already on H returns H itself.  When an end of e_next has no other edge
    outside H, e_next goes straight to bridge_case.  Otherwise the splice is
    tried first, at the smallest vertex of H with two or more edges outside
    H; only when that flow fails does the lowlink DFS classify e_next.  The
    flows and the DFS bar H's edges instead of listing the leftover.  When
    e_next lies in a 2-edge-connected component of G - E(H) that shares no
    vertex with H, the component is contracted to the new vertex g.n
    (`contract_subgraph`) in g's own edge ids.  The DFS names the
    component's boundary, and the contraction trusts it after O(|boundary|)
    checks instead of searching the component again.  H and its canonical
    form are the same there, so bridge_case extends seg itself through the
    smallest boundary bridge, and its circuit or cut lifts back with no edge
    mapping.
    """
    seg = segment(g, h, s_prefix)
    h = seg.trail
    if e_next in seg.h_edges:
        return h
    # An end of e_next whose only leftover edge is e_next makes it a bridge
    # of the leftover, which is all the DFS below would find.
    adjacency = g.adjacency
    visits = Counter(h.vertices[:-1])
    if any(len(adjacency[u]) == 2 * visits[u] + 1 for u in g.endpoints(e_next)):
        return bridge_case(g, seg, e_next)
    # Splice first, at v, the smallest vertex of h with two leftover edges.
    # A 2-unit flow to v proves that v lies in e_next's 2-edge-connected
    # component comp of the leftover.  Every vertex of comp has two leftover
    # edges inside it, so no smaller vertex of h is in comp: v is
    # min(comp & V(h)), and the flow is the call the DFS route below would make.
    v = min((u for u, k in visits.items() if len(adjacency[u]) >= 2 * k + 2), default=None)
    if v is not None:
        star = _trail_through_edge(g, seg.h_edges, e_next, v, v)
        if star is not None:
            return _splice(g, seg, star)
    bridges, comp, boundary = bridges_and_2ec_components(g, seg.h_edges, e_next)
    if comp is None:
        return bridge_case(g, seg, e_next)
    shared = comp & seg.h_vertices
    if shared:
        v = min(shared)
        star = _trail_through_edge(g, seg.h_edges, e_next, v, v)
        if star is None:
            raise CoherenceViolated("2-edge-connected edge set must route to both targets")
        return _splice(g, seg, star)
    # detached component: contract it, extend through its smallest boundary
    # bridge, then open the contracted vertex into a trail through e_next.
    # H shares no vertex with comp, so seg is H's canonical form in the
    # contraction too, whose searches never reach comp's inner edges.  comp
    # and its boundary are the DFS's, checked only in O(|boundary|); the
    # lift check below and find_circuit's last check still guard the answer.
    if not boundary or not bridges.issuperset(boundary):
        raise CoherenceViolated("a detached component must hang on bridges")
    try:
        contracted = contract_subgraph(g, comp, boundary)
    except ValueError as exc:  # a refusal of the DFS's answer is a finder fault
        raise CoherenceViolated(f"a detached component must contract: {exc}") from exc
    outcome = bridge_case(contracted, seg, boundary[0])
    if isinstance(outcome, CutCertificate):
        side = outcome.side
        if g.n in side:
            side = (side - {g.n}) | comp
        cert = certify(g, side)
        if cert.boundary != outcome.boundary or not cert.odd:
            raise CoherenceViolated("contracted certificate did not lift cleanly")
        return cert
    return _open_contracted_vertex(g, outcome, comp, boundary, e_next)


def _splice(g: Graph, seg: SegmentedCircuit, star: Trail) -> Trail:
    """H merged with the closed trail star through e_next, which shares a
    vertex with H, by an Euler tour of the union from H's start: it holds
    every edge of the union, separators and e_next among them, or raises."""
    return euler_circuit(g, seg.h_edges | star.edge_set(), start=seg.trail.vertices[0])


def _open_contracted_vertex(g, circuit_c, comp, barred, e_next) -> Trail:
    """Replace the single visit of the contracted vertex g.n by a trail
    through e_next inside comp, a 2-edge-connected component of g - barred.

    circuit_c is a circuit of the contraction, in g's own ids.  barred is
    comp's boundary: a search that left comp through a bridge could never
    come back, so barring it keeps the flow in comp and changes neither the
    flow nor its walks.  H shares no vertex with comp, so none of H's edges
    lies on a row the flow or its walks read, and they need no barring.
    """
    occurrences = [i for i, v in enumerate(circuit_c.vertices[:-1]) if v == g.n]
    if len(occurrences) != 1:
        raise CoherenceViolated("contracted vertex must be passed exactly once")
    rotated = rotate_closed(circuit_c, occurrences[0])
    edges = rotated.edges
    d_first = next(v for v in g.endpoints(edges[0]) if v in comp)
    d_last = next(v for v in g.endpoints(edges[-1]) if v in comp)
    outer = Trail((d_first, *rotated.vertices[1:-1], d_last), edges)
    inner = _trail_through_edge(g, barred, e_next, d_last, d_first)
    if inner is None:
        raise CoherenceViolated("2-edge-connected edge set must route to both targets")
    out = trail_concat(outer, inner)
    fault = circuit_fault(g.n, g.edges, out.vertices, out.edges, ())
    if fault:
        raise CoherenceViolated(f"opened circuit fails: {fault}")
    return out


def find_circuit(g: Graph, s: Iterable[int]) -> Trail | CutCertificate:
    """Circuit through every edge of s, or an odd cut of size at most |S|.

    A returned certificate refutes the universal condition (some odd cut has
    size at most |S|); the particular set s may still be feasible, which the
    exhaustive oracle can decide on small instances.
    """
    s_list = sorted(edge_ids(g, s))
    if not s_list:
        raise EmptyPrescribed("need at least one prescribed edge")
    if not is_connected(g):
        raise DisconnectedInput("find_circuit requires a connected graph")
    result = _base_circuit(g, s_list[0])
    if isinstance(result, CutCertificate):
        return result
    placed = {s_list[0]}
    for e_next in s_list[1:]:
        result = extend_circuit(g, result, placed, e_next)
        if isinstance(result, CutCertificate):
            if not result.odd or result.size > len(s_list):
                raise CoherenceViolated("certificate is not an odd cut of size <= |S|")
            return result
        placed.add(e_next)
    fault = circuit_fault(g.n, g.edges, result.vertices, result.edges, s_list)
    if fault:
        raise CoherenceViolated(f"circuit fails verification: {fault}")
    return result
