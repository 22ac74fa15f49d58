"""Answer checkers that share no code with circuitcover.

Every function works on plain data: a vertex count `n`, an edge list
`edges` (edge id = position) and an answer taken apart into tuples, so a
fault in the program's own graph or cut code cannot hide a wrong answer.
Each `*_fault` function returns None for a correct answer and otherwise a
one-line reason.
"""
from __future__ import annotations


def circuit_fault(edges, prescribed, vertices, walk) -> str | None:
    """A closed walk with distinct edge ids, each joining the vertices
    beside it, that covers every prescribed edge."""
    if len(vertices) != len(walk) + 1:
        return "walk needs one more vertex than edges"
    if not walk:
        return "walk is empty"
    if vertices[0] != vertices[-1]:
        return "walk is not closed"
    if len(set(walk)) != len(walk):
        return "walk repeats an edge"
    for i, eid in enumerate(walk):
        if not 0 <= eid < len(edges):
            return f"edge id {eid} does not exist"
        u, v = edges[eid]
        if {vertices[i], vertices[i + 1]} != {u, v}:
            return f"step {i} does not follow edge {eid}"
    missing = set(prescribed) - set(walk)
    if missing:
        return f"prescribed edges not covered: {sorted(missing)}"
    return None


def cut_fault(n, edges, side, boundary, limit) -> str | None:
    """A proper vertex side whose recomputed boundary equals `boundary`,
    has odd size, and has at most `limit` edges."""
    side = set(side)
    if not 0 < len(side) < n:
        return f"side has {len(side)} of {n} vertices"
    if any(not 0 <= v < n for v in side):
        return "side holds a vertex out of range"
    actual = {eid for eid, (u, v) in enumerate(edges) if (u in side) != (v in side)}
    if actual != set(boundary):
        return "boundary does not match the side"
    if len(actual) % 2 == 0:
        return f"cut of size {len(actual)} is even"
    if len(actual) > limit:
        return f"cut of size {len(actual)} exceeds {limit}"
    return None


def min_odd_cut_brute(n, edges) -> int | None:
    """Smallest odd boundary over all bipartitions; None when there is none.

    Exponential in n: a cross-check of `min_odd_cut_networkx` on small
    graphs.  Vertex 0 stays outside the side, so each bipartition is seen
    once.
    """
    best = None
    for mask in range(2, 1 << n, 2):
        size = sum((mask >> u ^ mask >> v) & 1 for u, v in edges)
        if size % 2 == 1 and (best is None or size < best):
            best = size
    return best


def min_odd_cut_networkx(n, edges) -> int | None:
    """Minimum T-odd cut (T = odd-degree vertices) from networkx's
    Gomory-Hu tree and a parity scan of its fundamental cuts.

    Raises ImportError when networkx is missing: the check is never skipped.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges, capacity=1)
    tree = nx.gomory_hu_tree(g)
    odd = [g.degree(v) % 2 for v in range(n)]
    # odd-vertex parity of the subtree under each vertex, rooted at 0
    parent = {0: None}
    order = [0]
    for v in order:
        for w in tree[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    parity = odd[:]
    best = None
    for v in reversed(order[1:]):
        parity[parent[v]] ^= parity[v]
        if parity[v]:
            weight = tree[v][parent[v]]["weight"]
            if best is None or weight < best:
                best = weight
    return best
