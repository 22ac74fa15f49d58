"""Immutable simple graphs, trails, and the elementary subroutines.

Vertices are 0..n-1; edges carry stable integer ids given by their position
in the edge list.  Trails record both vertices and edge ids so that
distinct-edge checking stays exact when vertices repeat.  All operations are
pure functions over immutable inputs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .certificates import circuit_fault
from .errors import BadEdgeId, BadParam, NotConnected, NotEven

EdgeIds = frozenset  # edge sets are frozensets of edge ids


def edge_list_fault(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, str] | None:
    """(id, reason) for the first edge that keeps `edges` from being a
    simple graph on the vertices 0..n-1, or None when there is none."""
    seen = set()
    for eid, (u, v) in enumerate(edges):
        if u == v:
            return eid, f"edge {eid} is a self-loop at {u}"
        if not (0 <= u < n and 0 <= v < n):
            return eid, f"edge {eid}=({u},{v}) has endpoint out of range"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return eid, f"edge {eid}=({u},{v}) duplicates an earlier edge"
        seen.add(key)
    return None


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with indexed edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        if fault := edge_list_fault(self.n, self.edges):
            raise ValueError(fault[1])

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, tuple((int(u), int(v)) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex list of (neighbor, edge id), ordered by edge id."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < self.m):
            raise BadEdgeId(f"edge id {eid} out of range (m={self.m})")
        return self.edges[eid]

    def all_edges(self) -> EdgeIds:
        return frozenset(range(self.m))


def edge_ids(g: Graph, ids: Iterable[int]) -> EdgeIds:
    """ids as a frozenset (a frozenset is not copied); an id that g lacks
    raises BadEdgeId, which names the smallest such id."""
    ids = frozenset(ids)
    if ids and (min(ids) < 0 or max(ids) >= g.m):
        bad = min(e for e in ids if not 0 <= e < g.m)
        raise BadEdgeId(f"edge id {bad} out of range (m={g.m})")
    return ids


def check_vertices(g: Graph, vertices: Iterable[int]) -> None:
    """Raise BadParam unless every vertex is one of g's."""
    n = g.n
    for v in vertices:
        if not 0 <= v < n:
            raise BadParam(f"vertex {v} out of range (n={n})")


@dataclass(frozen=True)
class Trail:
    """Walk with pairwise-distinct edges; vertices[i]--vertices[i+1] = edges[i].

    A trivial trail is a single vertex with no edges; it counts as closed.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("trail needs exactly one more vertex than edges")

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def is_closed(self) -> bool:
        return self.start == self.end

    def edge_set(self) -> EdgeIds:
        return frozenset(self.edges)

    def reverse(self) -> "Trail":
        return Trail(tuple(reversed(self.vertices)), tuple(reversed(self.edges)))

    def __len__(self) -> int:
        return len(self.edges)


def trail_concat(*parts: Trail) -> Trail:
    """Join trails end to start, unchecked: each caller checks the result
    with `certificates`, which finds a repeated edge or a broken join."""
    verts = list(parts[0].vertices)
    edges = list(parts[0].edges)
    for p in parts[1:]:
        verts.extend(p.vertices[1:])
        edges.extend(p.edges)
    return Trail(tuple(verts), tuple(edges))


def tree_path(parent: dict[int, tuple[int, int] | None], v: int) -> Trail:
    """Path to v from the source (parent None) along a search's parent map."""
    verts = [v]
    edges = []
    while parent[v] is not None:
        v, eid = parent[v]
        verts.append(v)
        edges.append(eid)
    return Trail(tuple(reversed(verts)), tuple(reversed(edges)))


# ---------------------------------------------------------------------------
# boundaries, parity, components


def edge_boundary(g: Graph, side: Iterable[int]) -> EdgeIds:
    """Edges with exactly one endpoint in `side`.

    Only the smaller of `side` and its complement is scanned: an edge with
    one end in it crosses exactly when its other end is not in it.
    """
    a = set(side)
    check_vertices(g, a)
    n = g.n
    adjacency = g.adjacency
    if 2 * len(a) <= n:
        return frozenset([e for v in a for w, e in adjacency[v] if w not in a])
    return frozenset(
        [e for v in range(n) if v not in a for w, e in adjacency[v] if w in a]
    )


def is_even_subgraph(g: Graph, f: Iterable[int]) -> bool:
    """True iff every vertex has even degree in the edge set f."""
    deg = [0] * g.n
    for eid in f:
        u, v = g.endpoints(eid)
        deg[u] += 1
        deg[v] += 1
    return all(d % 2 == 0 for d in deg)


class SpanningForest(NamedTuple):
    """Depth-first spanning forest of (V, edges), one tree per component.

    Roots are taken in increasing order, so each tree's root is its
    smallest vertex.  A root has parent and parent edge -1 and depth 0.
    `order` lists the vertices in discovery order; each tree is a
    contiguous run of it that starts at its root.
    """

    parent: list[int]
    parent_edge: list[int]
    depth: list[int]
    order: list[int]

    def trees(self) -> list[list[int]]:
        """Each tree's vertices in discovery order, by increasing root."""
        out: list[list[int]] = []
        parent = self.parent
        for v in self.order:
            if parent[v] == -1:
                out.append([])
            out[-1].append(v)
        return out

    def path_edges(self, a: int, b: int) -> list[int]:
        """Edges of the tree path between a and b."""
        parent, parent_edge, depth = self.parent, self.parent_edge, self.depth
        out = []
        while depth[a] > depth[b]:
            out.append(parent_edge[a])
            a = parent[a]
        while depth[b] > depth[a]:
            out.append(parent_edge[b])
            b = parent[b]
        while a != b:
            out.append(parent_edge[a])
            out.append(parent_edge[b])
            a = parent[a]
            b = parent[b]
        if a == -1:  # both walks left their roots: two different trees
            raise ValueError("vertices lie in different trees")
        return out


def spanning_forest(g: Graph, edges: Iterable[int] | None = None) -> SpanningForest:
    """Spanning forest of (V, edges), or of g itself when edges is None.

    Each vertex is marked, and joins `order`, when it is pushed; a vertex's
    unmarked neighbours are pushed in reverse edge-id order.
    """
    # every edge id, with a constant-time `in`, when edges is None
    allowed = range(g.m) if edges is None else edge_ids(g, edges)
    adjacency = g.adjacency
    parent = [-1] * g.n
    parent_edge = [-1] * g.n
    depth = [-1] * g.n
    order = []
    for root in range(g.n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        order.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            d = depth[v] + 1
            for w, eid in reversed(adjacency[v]):
                if depth[w] == -1 and eid in allowed:
                    depth[w] = d
                    parent[w] = v
                    parent_edge[w] = eid
                    order.append(w)
                    stack.append(w)
    return SpanningForest(parent, parent_edge, depth, order)


def connected_components(
    g: Graph, restricted_to: Iterable[int] | None = None
) -> list[frozenset]:
    """Components as vertex sets, ordered by smallest member.

    With `restricted_to`, only edges in that set are used and vertices
    isolated in the restriction are excluded.
    """
    trees = spanning_forest(g, restricted_to).trees()
    if restricted_to is not None:
        trees = [t for t in trees if len(t) > 1]
    return [frozenset(t) for t in trees]


def is_connected(g: Graph) -> bool:
    """True iff a search from vertex 0 reaches all of g's vertices (or g
    has at most one).

    A connected graph has at least n - 1 edges, so with fewer the answer
    is False before g.adjacency builds a row for every vertex: a header
    that declares a huge n with few edges costs nothing.
    """
    n = g.n
    if n <= 1:
        return True
    if n > g.m + 1:
        return False
    adjacency = g.adjacency
    seen = [False] * n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for w, _ in adjacency[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == n


# ---------------------------------------------------------------------------
# bridges and 2-edge-connected components


def bridge_runs(
    g: Graph, root: int, barred: Iterable[int] = frozenset()
) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """(order, runs) of one lowlink DFS of g - barred from root.

    order lists root's connected component of g - barred in discovery
    order.  runs maps each bridge of that component to (lo, hi), in the
    order the DFS finishes them: the bridge's far side from root is
    order[lo:hi].  The runs nest like the subtrees they are.

    One iterative lowlink DFS (Tarjan, IPL 1974).  A non-root vertex v that
    finishes with lowlink equal to its discovery time was entered by a
    bridge, and the bridge's far side is v's DFS subtree: the vertices
    discovered from v on, since v has just finished.
    """
    adjacency = g.adjacency
    disc = [-1] * g.n
    low = [0] * g.n
    disc[root] = 0
    timer = 1
    order = [root]  # disc[order[i]] == i
    runs = {}
    frames = [(root, -1, iter(adjacency[root]))]  # (vertex, entering edge, scan)
    while frames:
        v, in_eid, scan = frames[-1]
        for w, e in scan:
            if e == in_eid or e in barred:
                continue
            d = disc[w]
            if d == -1:
                disc[w] = low[w] = timer
                timer += 1
                order.append(w)
                frames.append((w, e, iter(adjacency[w])))
                break
            if d < low[v]:
                low[v] = d
        else:
            frames.pop()
            if frames:  # v is not the root
                p = frames[-1][0]
                lv = low[v]
                if lv == disc[v]:  # nothing below v reaches above it
                    runs[in_eid] = (lv, timer)
                elif lv < low[p]:  # a bridge's lv exceeds disc[p] >= low[p]
                    low[p] = lv
    return order, runs


def bridges_and_2ec_components(
    g: Graph, barred: Iterable[int], eid: int
) -> tuple[EdgeIds, frozenset | None, tuple[int, ...]]:
    """(bridges, comp, boundary) for the edge eid of g - barred.

    bridges are the bridges of eid's connected component of g - barred;
    comp is the vertex set of the maximal 2-edge-connected subgraph of
    g - barred that holds eid, or None when eid is a bridge; boundary is
    comp's boundary in g - barred, in edge-id order, () when eid is a
    bridge.  A barred eid raises BadParam.

    bridge_runs from an end of eid.  The root lies in comp, and every edge
    that leaves comp is a bridge whose far side is a run of the discovery
    order; those runs are the outermost ones, since any other run lies
    inside the far side of a bridge that leaves comp.  So comp is the
    discovery order with the outermost runs cut out, and the boundary is
    their bridges, found without a second search over comp.
    """
    barred = edge_ids(g, barred)
    root = g.endpoints(eid)[0]
    if eid in barred:
        raise BadParam(f"edge {eid} is barred")
    order, runs = bridge_runs(g, root, barred)
    bridges = frozenset(runs)
    if eid in bridges:
        return bridges, None, ()
    boundary = []
    i = len(order)
    # latest finished first, so each run lies inside the run cut out last
    # or ends at or before that run's start: DFS subtrees nest or are apart
    for e, (lo, hi) in reversed(runs.items()):
        if hi <= i:
            del order[lo:hi]
            boundary.append(e)
            i = lo
    return bridges, frozenset(order), tuple(sorted(boundary))


# ---------------------------------------------------------------------------
# unit-capacity flow (augmenting paths)


class FlowNetwork:
    """Unit-capacity flow on the edges of g, in g's own vertex and edge ids.

    out[e] is the vertex that e's unit of flow leaves, -1 when e carries no
    flow and -2 when e is barred.  A network bars the edges it is given and
    no others, so its set-up loops over the barred edges only.  g.adjacency
    is the residual graph: e is crossable from v to w iff out[e] is -1 or w,
    so neither end can cross a barred edge, and the flow is the one on g
    with the barred edges deleted.  An edge id or a vertex out of range
    raises BadEdgeId or BadParam.
    """

    def __init__(self, g: Graph, barred: Iterable[int] = ()):
        self.g = g
        out = self.out = [-1] * g.m
        for e in edge_ids(g, barred):
            out[e] = -2

    def max_flow(self, supply: dict[int, int], demand: dict[int, int]) -> int:
        """Send units from the supply vertices to the demand vertices, one
        per shortest augmenting path, and return how many arrived.

        Each search starts from the vertices with supply left, in dict
        order, and ends at the first vertex reached with demand left.  Once
        no supply is left, no search runs.
        """
        supply, demand = dict(supply), dict(demand)
        check_vertices(self.g, [*supply, *demand])
        edges, out = self.g.edges, self.out
        value = 0
        while True:
            sources = [v for v, units in supply.items() if units]
            if not sources:
                return value
            parent, end = self._search(sources, demand)
            if end is None:
                return value
            w = end
            while parent[w] != -2:
                e = parent[w]
                a, b = edges[e]
                v = a + b - w
                out[e] = v if out[e] == -1 else -1
                w = v
            supply[w] -= 1
            demand[end] -= 1
            value += 1

    def source_side(self, s: int) -> frozenset:
        """Vertices reachable from s in the residual graph."""
        check_vertices(self.g, (s,))
        parent, _ = self._search([s], {})
        return frozenset(v for v, e in enumerate(parent) if e != -1)

    def _search(self, sources: list[int], demand: dict[int, int]) -> tuple[list[int], int | None]:
        """Breadth-first search of the residual graph from the sources, in
        order, scanning each adjacency in edge-id order.

        Returns the edge each vertex was reached by (-2 at a source, -1 when
        not reached before the search ended) and the first vertex reached
        with demand left, or None; a source with demand left counts at once.

        The search ends one step short of the targets, the vertices with
        demand left.  It first maps each vertex u with a residual arc into a
        target to the smallest id of such an arc, near[u], by scanning the
        targets' own rows.  Vertices are popped in the order they are
        discovered, so the first vertex of near to be discovered is the
        first one a full search would pop, and no vertex popped before it
        has an arc into a target.  Its row is in edge-id order, so the full
        search would leave it through near[u].  The path is the same, and
        the search returns as soon as u is discovered (at once for a
        source), without scanning the rest of u's level.  A target is never
        discovered itself, since whoever discovers it is in near.  With no
        targets, the search floods everything the sources reach.
        """
        adjacency, out = self.g.adjacency, self.out
        parent = [-1] * self.g.n
        for v in sources:
            parent[v] = -2
        near: dict[int, int] = {}
        for t, units in demand.items():
            if units:
                for u, e in adjacency[t]:
                    o = out[e]
                    if (o == -1 or o == t) and near.get(u, e) >= e:
                        near[u] = e
        for v in sources:
            if demand.get(v):
                return parent, v
        for v in sources:
            if v in near:
                return self._step(parent, v, near[v])
        queue = deque(sources)
        while queue:
            v = queue.popleft()
            for w, e in adjacency[v]:
                if parent[w] == -1:
                    o = out[e]
                    if o == -1 or o == w:
                        parent[w] = e
                        if w in near:
                            return self._step(parent, w, near[w])
                        queue.append(w)
        return parent, None

    def _step(self, parent: list[int], u: int, e: int) -> tuple[list[int], int]:
        """The search's end: the target across e from u, reached by e."""
        a, b = self.g.edges[e]
        t = a + b - u
        parent[t] = e
        return parent, t


# ---------------------------------------------------------------------------
# Euler circuits


def euler_circuit(g: Graph, f: Iterable[int], start: int | None = None) -> Trail:
    """Closed trail using every edge of f exactly once (Hierholzer).

    The tour starts at `start`, or at the smallest vertex f touches, and
    leaves each vertex by its unused edge of smallest id.  Adjacency is
    built only for the vertices f touches: each list is filled in edge-id
    order, reversed, and consumed from its end, so the smallest id is taken
    first.  An edge id out of range raises BadEdgeId, a vertex of odd degree
    NotEven, and a start that f does not touch, or an f whose edges do not
    all lie on the tour, NotConnected.
    """
    if start is not None:
        check_vertices(g, (start,))
    ids = sorted(frozenset(f))  # a frozenset is not copied
    if not ids:
        if start is None and g.n == 0:
            raise BadParam("a graph with no vertices has no closed trail")
        return Trail((start if start is not None else 0,), ())
    if ids[0] < 0 or ids[-1] >= g.m:  # the sorted ends decide, without a min or max
        edge_ids(g, ids)  # raises BadEdgeId
    edges = g.edges
    adj: dict[int, list[tuple[int, int]]] = {}
    get = adj.get
    for eid in ids:
        u, v = edges[eid]
        lst = get(u)
        if lst is None:
            adj[u] = [(v, eid)]
        else:
            lst.append((v, eid))
        lst = get(v)
        if lst is None:
            adj[v] = [(u, eid)]
        else:
            lst.append((u, eid))
    for lst in adj.values():
        if len(lst) & 1:
            raise NotEven("some vertex has odd degree in the edge set")
        lst.reverse()
    if start is None:
        start = min(adj)
    elif start not in adj:
        raise NotConnected(f"start vertex {start} is isolated in the edge set")
    used = set()
    # the open walk: stack_v[i] was entered by stack_e[i], -1 at the start
    stack_v = [start]
    stack_e = [-1]
    out_v: list[int] = []
    out_e: list[int] = []
    while stack_v:
        lst = adj[stack_v[-1]]
        while lst:
            w, eid = lst.pop()
            if eid not in used:
                used.add(eid)
                stack_v.append(w)
                stack_e.append(eid)
                break
        else:
            out_v.append(stack_v.pop())
            out_e.append(stack_e.pop())
    # the start leaves last, so out_e ends with its -1
    if len(out_e) != len(ids) + 1:
        raise NotConnected("edge set is not connected")
    out_v.reverse()
    return Trail(tuple(out_v), tuple(out_e[-2::-1]))


# ---------------------------------------------------------------------------
# contraction


def contract_subgraph(g: Graph, w: Iterable[int], boundary: Iterable[int]) -> Graph:
    """g with the connected vertex set w contracted to the new vertex g.n.

    boundary must be w's boundary, the edges with exactly one end in w.  The
    finder takes w and its boundary from the lowlink DFS that found w, so
    the contraction trusts both and runs no search over w.  It keeps two
    O(|boundary|) checks: an edge without exactly one end in w, or two edges
    to one outside vertex (they would be parallel), raise ValueError.

    Every edge keeps its id; each boundary edge has its end in w moved to
    g.n.  w's vertices keep only their inner edges, an island that no search
    from outside w reaches.  Every other row of the adjacency is g's own,
    except at the boundary's outside ends, whose entry is moved to g.n in
    place; g.n's row is in edge-id order.  The result is simple because g
    is, so Graph's O(m) checks are not run again.
    """
    wset = frozenset(w)
    if not wset:
        raise BadParam("cannot contract an empty vertex set")
    n = g.n
    edges = list(g.edges)
    rows = list(g.adjacency)
    ends = {}  # outside end -> boundary edge, in edge-id order
    for e in sorted(edge_ids(g, boundary)):
        a, b = edges[e]
        if (a in wset) == (b in wset):
            raise ValueError(f"edge {e} does not have exactly one end in the set")
        v, x = (a, b) if a in wset else (b, a)
        if x in ends:
            raise ValueError(f"edges {ends[x]} and {e} to {x}: the contraction duplicates an edge")
        ends[x] = e
        edges[e] = (n, b) if a == v else (a, n)
        row = list(rows[x])
        row[row.index((v, e))] = (n, e)
        rows[x] = tuple(row)
        row = list(rows[v])
        row.remove((x, e))
        rows[v] = tuple(row)
    rows.append(tuple(ends.items()))
    # a Graph built without __post_init__, its adjacency filled in
    c = object.__new__(Graph)
    c.__dict__.update(n=n + 1, edges=tuple(edges), adjacency=tuple(rows))
    return c


# ---------------------------------------------------------------------------
# circuit verification


def verify_circuit(g: Graph, t: Trail, s: Iterable[int]) -> bool:
    """Whether t is a closed trail of g covering every edge of s."""
    return not circuit_fault(g.n, g.edges, t.vertices, t.edges, s)
