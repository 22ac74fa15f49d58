"""Extend an edge set to an even subgraph, or certify an odd cut inside it.

Within each component of G-S the odd-degree vertices of (V, S) are paired
and joined by spanning-tree paths; the symmetric difference of those paths
is a parity-correcting join, so S plus the join is even.  When a component
holds an odd number of such vertices, its boundary is an odd cut inside S.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cuts import CutCertificate, certify
from .errors import CoherenceViolated
from .graphs import Graph, connected_components, edge_ids, is_even_subgraph, spanning_forest


@dataclass(frozen=True)
class EvenExtension:
    """An even edge set containing the prescribed edges."""

    even_set: frozenset
    components: int  # components of the even set on its non-isolated vertices

    def to_json(self) -> dict:
        return {"edges": sorted(self.even_set), "components": self.components}


def extend_to_even_subgraph(g: Graph, s: Iterable[int]) -> EvenExtension | CutCertificate:
    """Even superset of s, or the witness odd cut inside s."""
    s_set = edge_ids(g, s)
    t_deg = [0] * g.n
    for eid in s_set:
        u, v = g.edges[eid]
        t_deg[u] += 1
        t_deg[v] += 1
    forest = spanning_forest(g, g.all_edges() - s_set)
    join: set[int] = set()
    for tree in forest.trees():
        odd = [v for v in tree if t_deg[v] % 2 == 1]
        if len(odd) % 2:
            cert = certify(g, tree)
            if not (cert.boundary <= s_set and cert.odd):
                raise CoherenceViolated("component of G-S bounds no odd cut inside S")
            return cert
        for a, b in zip(odd[::2], odd[1::2]):
            join.symmetric_difference_update(forest.path_edges(a, b))
    even = s_set | frozenset(join)
    if s_set & join or not is_even_subgraph(g, even):
        raise CoherenceViolated("parity join is not an even extension of the set")
    comps = connected_components(g, even)
    return EvenExtension(even, len(comps))


def odd_cut_within(g: Graph, s: Iterable[int]) -> CutCertificate | None:
    """An odd cut of g lying inside the edge set s, or None.

    This is extend_to_even_subgraph's certificate: each component of G-S has
    all its outgoing edges in S, and bounds an odd cut exactly when it holds
    an odd number of vertices of odd degree in (V, S).
    """
    outcome = extend_to_even_subgraph(g, s)
    return outcome if isinstance(outcome, CutCertificate) else None
