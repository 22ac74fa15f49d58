"""Odd cuts: bridges, bounded Gusfield tree, parity scan, brute-force oracle.

An odd cut is an edge boundary of odd cardinality.  The boundary of A is odd
exactly when A contains an odd number of odd-degree vertices, so minimum odd
cuts reduce to minimum T-cuts for T = odd-degree vertices, and those are
attained among the fundamental cuts of a Gomory-Hu tree (Padberg & Rao
1982).  The tree is working state of min_odd_cut and edge_connectivity:
each builds it only up to the bound its answer needs, and neither returns it.
A cut below 2 is a bridge, so min_odd_cut needs no tree for a bound of 2:
one lowlink DFS (graphs.bridge_runs) finds every such cut.  Above 2, most
of the tree's pairs are at least bound-edge-connected, and a maximum-
adjacency ordering certifies that without a flow (Nagamochi & Ibaraki,
"Computing edge-connectivity in multigraphs and capacitated graphs", SIAM
J. Discrete Math. 1992): _bound_classes groups such vertices, and the tree
takes a pair within one group as a flow that reached the bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CoherenceViolated, DisconnectedInput, TooLarge
from .graphs import FlowNetwork, Graph, bridge_runs, edge_boundary, is_connected


_DISCONNECTED = "min_odd_cut requires a connected graph"


@dataclass(frozen=True)
class CutCertificate:
    """A vertex side together with its recomputed edge boundary."""

    side: frozenset
    boundary: frozenset

    @property
    def size(self) -> int:
        return len(self.boundary)

    @property
    def odd(self) -> bool:
        return self.size % 2 == 1

    def is_valid_for(self, g: Graph) -> bool:
        # not certificates.cut_fault: edge_boundary scans the smaller side, not all m edges
        return (
            0 < len(self.side) < g.n
            and edge_boundary(g, self.side) == self.boundary
        )

    def to_json(self) -> dict:
        return {
            "side": sorted(self.side),
            "boundary": sorted(self.boundary),
            "size": self.size,
            "odd": self.odd,
        }


def certify(g: Graph, side: Iterable[int]) -> CutCertificate:
    s = frozenset(side)
    return CutCertificate(s, edge_boundary(g, s))


def _bound_classes(g: Graph, k: int) -> list[int]:
    """A class label per vertex, such that two vertices with one label are
    joined by at least k edge-disjoint paths.

    Each phase runs a maximum-adjacency ordering on the quotient multigraph
    of the current classes, with a bucket queue: it scans next an unscanned
    class with the most edges r(y) to the scanned ones.  A class's row lists
    the other class once per edge between them (g's own rows in the first
    phase, rebuilt from g's edges in each later one), so scanning x adds 1
    to r(y) per entry, and no r(y) exceeds the longest row.  When r(y)
    reaches k, x and y are k-edge-connected (Nagamochi & Ibaraki 1992: the
    edges scanned so far hold k edge-disjoint x-y paths), so their classes
    merge.  A cut below k splits no class, so the quotient keeps every cut
    below k and the certificate holds for the graph itself.  Phases repeat
    until one merges nothing; then the phase's last two classes are below
    k apart (Stoer & Wagner, J. ACM 1997), so when k is at most the edge
    connectivity, every vertex ends in one class.  The first phase scans
    vertex 0 first, and a later vertex scanned with r = 0 has no edge to
    those before it, so a disconnected g raises DisconnectedInput there.
    """
    label = list(range(g.n))  # each vertex's class, a vertex of the quotient
    count = g.n
    rows = g.adjacency  # per class, (other class, edge id) for each edge
    while count > 1:
        if len(rows) > count:  # classes merged: the quotient's rows
            rows = [[] for _ in range(count)]
            for e, (u, v) in enumerate(g.edges):
                a, b = label[u], label[v]
                if a != b:
                    rows[a].append((b, e))
                    rows[b].append((a, e))
        r = [0] * count
        scanned = [False] * count
        # bucket i holds the classes pushed when their r was i
        buckets: list[list[int]] = [[] for _ in range(max(map(len, rows)) + 1)]
        buckets[0] = list(range(count - 1, -1, -1))
        top = 0
        joins: list[list[int]] = [[] for _ in range(count)]
        while top >= 0:
            if not buckets[top]:
                top -= 1
                continue
            x = buckets[top].pop()
            if scanned[x] or r[x] != top:  # a stale entry
                continue
            if not top and x:  # a second start: g is disconnected
                raise DisconnectedInput(_DISCONNECTED)
            scanned[x] = True
            for y, _ in rows[x]:
                if not scanned[y]:
                    ry = r[y] = r[y] + 1
                    buckets[ry].append(y)
                    if ry > top:
                        top = ry
                    if ry >= k:
                        joins[x].append(y)
                        joins[y].append(x)
        if not any(joins):
            break
        # the joined classes merge: the new classes are the join graph's
        # components, numbered in order of their smallest old class
        merged = [-1] * count
        count = 0
        for x in range(len(merged)):
            if merged[x] < 0:
                merged[x] = count
                stack = [x]
                while stack:
                    for y in joins[stack.pop()]:
                        if merged[y] < 0:
                            merged[y] = count
                            stack.append(y)
                count += 1
        label = [merged[c] for c in label]
    return label


def _gusfield(g: Graph, bound: int) -> tuple[list[int], list[int]]:
    """Parent and capacity arrays of Gusfield's cut tree of a connected
    graph, rooted at vertex 0, with every flow stopped at bound.

    Gusfield, "Very simple methods for all pairs network flow analysis",
    SIAM J. Comput. 1990: n-1 max flows on the graph itself, no contraction.
    Stopping at the bound gives the k-partial tree of Bhalgat, Hariharan,
    Kavitha & Panigrahi, STOC 2007.  A pair s, t whose flow reaches the
    bound is separated by no cut below it, so s is in effect contracted into
    t: it stays a leaf under t with capacity = bound, without a source side
    or relabelling.  Tree edges below the bound are exact; an edge at the
    bound means "at least the bound".  No cut reaches n, so with bound g.n
    the tree is the full, exact one.

    A pair in one class of _bound_classes(g, bound) is at least bound-edge-
    connected, so its flow would reach the bound: the pair takes that branch
    without the flow.  Only that branch is skipped, so the parent and
    capacity arrays are the ones every flow would give, tie-breaks included.

    Only a flow's value and, below the bound, its source side are read.
    Any maximum flow has the same value, and its residual reach from s is
    the same smallest minimum s-t cut, so the paths max_flow happens to
    augment along cannot change the tree.
    """
    parent = [0] * g.n
    parent[0] = -1
    capacity = [0] * g.n
    label = _bound_classes(g, bound)
    for s in range(1, g.n):
        t = parent[s]
        if label[s] == label[t]:
            capacity[s] = bound
            continue
        net = FlowNetwork(g)
        value = net.max_flow({s: bound}, {t: bound})
        if value >= bound:
            capacity[s] = bound
            continue
        capacity[s] = value
        side = net.source_side(s)
        # a maximum flow saturates every edge leaving its residual reach
        if t in side or len(edge_boundary(g, side)) != value:
            raise CoherenceViolated(f"flow from {s} to {t} is not a maximum flow")
        for i in side:
            if i != s and parent[i] == t:
                parent[i] = s
        if parent[t] in side:
            parent[s], parent[t] = parent[t], s
            capacity[s], capacity[t] = capacity[t], value
    if parent[0] != -1:
        raise CoherenceViolated("Gomory-Hu tree lost its root at vertex 0")
    return parent, capacity


def min_odd_cut(g: Graph) -> CutCertificate | None:
    """A minimum-cardinality odd cut, or None when all vertex degrees are even.

    Let d be the smallest odd degree: that vertex alone is an odd cut of size
    d, and an odd cut below d has size at most d - 2.  So every flow of the
    Gomory-Hu construction stops at d - 1, and only the fundamental cuts
    below it are scanned for sides containing an odd number of odd-degree
    vertices; the minimum T-cut below d is attained there.  For d = 3 the
    cuts below d - 1 are the bridges, which one DFS finds without a tree,
    and for d = 1 no cut is below d - 1.
    Among equally small T-odd cuts below d, the one whose sorted side is
    lexicographically smallest is reported.  Otherwise the answer has size d
    and its side is the smallest odd vertex of degree d.  No reported side
    contains vertex 0: when vertex 0 is the only such vertex, the side is
    V minus vertex 0.

    A disconnected g raises DisconnectedInput.  The bridge DFS (d = 3) and
    the class step's first phase (d >= 5) scan every vertex anyway and say
    so; otherwise is_connected does, and it answers a g with fewer than
    n - 1 edges before g.adjacency builds a row per vertex, so neither do
    the degrees here.
    """
    degree = [len(row) for row in g.adjacency] if g.n <= g.m + 1 else []
    d = min((x for x in degree if x % 2 == 1), default=None)
    if d in (None, 1) and not is_connected(g):
        raise DisconnectedInput(_DISCONNECTED)
    if d is None:
        return None
    cert = _odd_cut_below(g, d - 1)
    if cert is not None:
        return cert
    v = next((v for v in range(1, g.n) if degree[v] == d), None)
    return _checked_cut(g, range(1, g.n) if v is None else (v,), d)


def _odd_cut_below(g: Graph, bound: int) -> CutCertificate | None:
    """The minimum odd cut of a connected graph if it is below bound, else None.

    No cut of a connected graph is below 1.  A cut below 2 is a bridge, and
    its boundary of one edge is odd, so with bound 2 the answer is the
    bridge whose far side from vertex 0, sorted, is lexicographically
    smallest: the side the tree scan below would pick, since the tree's
    edges below 2 are the graph's bridges.  Above 2, parity scan over the
    Gusfield tree whose flows stop at bound: a cut below bound separates no
    pair the tree joined, so it is a cut of the graph with those pairs
    contracted, whose tree is exact, and its minimum T-cut is attained at a
    T-odd tree edge (Padberg & Rao 1982).
    """
    if bound <= 1:
        return None
    if bound == 2:
        order, runs = bridge_runs(g, 0)
        if len(order) < g.n:  # min_odd_cut's connectivity check at d = 3
            raise DisconnectedInput(_DISCONNECTED)
        side = min((sorted(order[lo:hi]) for lo, hi in runs.values()), default=None)
        return None if side is None else _checked_cut(g, side, 1)
    parent, capacity = _gusfield(g, bound)
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(1, g.n):
        children[parent[v]].append(v)
    order = [0]
    for v in order:  # breadth-first: every parent precedes its children
        order.extend(children[v])
    odd = [g.degree(v) % 2 for v in range(g.n)]
    # leaves first, odd[v] becomes the number of odd-degree vertices under v
    for v in reversed(order[1:]):
        odd[parent[v]] += odd[v]
    t_odd = [v for v in order[1:] if odd[v] % 2 == 1 and capacity[v] < bound]
    if not t_odd:
        return None
    size = min(capacity[v] for v in t_odd)

    def subtree(v: int) -> tuple[int, ...]:
        out = [v]
        for u in out:
            out.extend(children[u])
        return tuple(sorted(out))

    # the root is vertex 0, so no subtree contains it
    side = min(subtree(v) for v in t_odd if capacity[v] == size)
    return _checked_cut(g, side, size)


def _checked_cut(g: Graph, side: Iterable[int], size: int) -> CutCertificate:
    cert = certify(g, side)
    if cert.size != size or not cert.odd:
        raise CoherenceViolated(f"the side found is not an odd cut of size {size}")
    return cert


def brute_force_min_odd_cut(g: Graph) -> CutCertificate | None:
    """Exact minimum odd cut by enumerating all bipartitions (n <= 24)."""
    if g.n > 24:
        raise TooLarge(f"brute force guard: n={g.n} > 24")
    if not is_connected(g):
        raise DisconnectedInput("brute_force_min_odd_cut requires a connected graph")
    if all(g.degree(v) % 2 == 0 for v in range(g.n)):
        return None
    masks = [(1 << u, 1 << v) for u, v in g.edges]
    best: tuple[int, tuple, int] | None = None
    # sides range over subsets of {1..n-1}: each bipartition once, 0 outside
    for bits in range(1, 1 << (g.n - 1)):
        a = bits << 1
        size = 0
        for mu, mv in masks:
            if bool(a & mu) != bool(a & mv):
                size += 1
        if size % 2 == 0:
            continue
        side = tuple(v for v in range(1, g.n) if a >> v & 1)
        key = (size, side)
        if best is None or key < best[:2]:
            best = (size, side, a)
    if best is None:
        raise CoherenceViolated("an odd-degree vertex exists, yet no bipartition is odd")
    return certify(g, best[1])


def edge_connectivity(g: Graph) -> int:
    """Global edge connectivity: the smallest capacity of the Gomory-Hu tree.

    It is at most the minimum degree, so every flow stops there.
    """
    if g.n <= 1 or not is_connected(g):
        return 0
    min_degree = min(g.degree(v) for v in range(g.n))
    return min(_gusfield(g, min_degree)[1][1:])  # vertex 0 is the root
