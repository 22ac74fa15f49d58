"""Extend an edge set to an even subgraph, or certify an odd cut inside it.

Within each component of G-S the odd-degree vertices of (V, S) are paired
and joined by spanning-tree paths; the symmetric difference of those paths
is a parity-correcting join, so S plus the join is even.  When a component
holds an odd number of such vertices, its boundary is an odd cut inside S.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cuts import CutCertificate, odd_cut_within
from .errors import CoherenceViolated, NotExtendable, TooLarge
from .graphs import Graph, connected_components, is_even_subgraph


@dataclass(frozen=True)
class EvenExtension:
    """An even edge set containing the prescribed edges."""

    even_set: frozenset
    components: int  # components of the even set on its non-isolated vertices

    def to_json(self) -> dict:
        return {"edges": sorted(self.even_set), "components": self.components}


def extend_to_even_subgraph(g: Graph, s: Iterable[int]) -> EvenExtension | CutCertificate:
    """Even superset of s, or the witness odd cut inside s."""
    s_set = frozenset(s)
    cert = odd_cut_within(g, s_set)
    if cert is not None:
        return cert
    t_deg = [0] * g.n
    for eid in s_set:
        u, v = g.endpoints(eid)
        t_deg[u] += 1
        t_deg[v] += 1
    join: set[int] = set()
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        order, parent_edge, parent = _dfs_tree_avoiding(g, root, s_set)
        for v in order:
            seen[v] = True
        odd = [v for v in order if t_deg[v] % 2 == 1]
        if len(odd) % 2:
            raise CoherenceViolated("component parity already certified even")
        depth = {root: 0}
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        for a, b in zip(odd[::2], odd[1::2]):
            join ^= _tree_path_edges(a, b, parent, parent_edge, depth)
    even = s_set | frozenset(join)
    if s_set & join or not is_even_subgraph(g, even):
        raise CoherenceViolated("parity join is not an even extension of the set")
    comps = connected_components(g, even)
    return EvenExtension(even, len(comps))


def _dfs_tree_avoiding(g: Graph, root: int, banned: frozenset):
    """DFS discovery order and tree structure in (V, E minus banned)."""
    order = [root]
    parent = {root: root}
    parent_edge: dict[int, int] = {}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w, eid in reversed(g.adjacency[v]):
            if eid in banned or w in seen:
                continue
            seen.add(w)
            parent[w] = v
            parent_edge[w] = eid
            order.append(w)
            stack.append(w)
    return order, parent_edge, parent


def _tree_path_edges(a: int, b: int, parent, parent_edge, depth) -> set:
    path: set[int] = set()
    x, y = a, b
    while depth[x] > depth[y]:
        path.add(parent_edge[x])
        x = parent[x]
    while depth[y] > depth[x]:
        path.add(parent_edge[y])
        y = parent[y]
    while x != y:
        path.add(parent_edge[x])
        path.add(parent_edge[y])
        x = parent[x]
        y = parent[y]
    return path


def min_components_even_extension(g: Graph, s: Iterable[int]) -> int:
    """Minimum component count over all even supersets of s, by enumerating
    the cycle space (desk-scale guard)."""
    from .oracle import _mask_to_edges, cycle_space_basis, even_set_masks

    s_set = frozenset(s)
    basis = cycle_space_basis(g)
    if g.n > 20 or basis.dim > 24:
        raise TooLarge(f"guard: n={g.n}, cycle-space dim={basis.dim}")
    s_mask = 0
    for eid in s_set:
        s_mask |= 1 << eid
    best: int | None = None
    for f in even_set_masks(basis):
        if s_mask & ~f:
            continue
        edges = _mask_to_edges(f)
        comps = len(connected_components(g, edges)) if edges else 0
        if best is None or comps < best:
            best = comps
    if best is None:
        raise NotExtendable("no even edge set contains the prescribed edges")
    return best
