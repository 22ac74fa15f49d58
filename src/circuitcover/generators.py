"""Deterministic instance families and seeded random graphs.

Vertex numbering conventions are fixed per family so edge ids in golden
tests stay stable: ladders use rails 0..r-1 and r..2r-1 with rung edges
first; double cliques put the first clique on 0..l-1.
"""
from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .cuts import min_odd_cut
from .errors import BadParam, CoherenceViolated, Exhausted
from .graphs import Graph

_ATTEMPTS = 100  # rejection-sampling proposals before random_connected falls back


@dataclass(frozen=True)
class NamedInstance:
    graph: Graph
    prescribed: frozenset
    label: str


def ladder(r: int) -> NamedInstance:
    """Ladder with r rungs: rungs (i, r+i) get ids 0..r-1, then the two
    rails; prescribed defaults to the r-2 inner rungs."""
    if r < 2:
        raise BadParam("ladder needs at least 2 rungs")
    edges = [(i, r + i) for i in range(r)]
    edges += [(i, i + 1) for i in range(r - 1)]
    edges += [(r + i, r + i + 1) for i in range(r - 1)]
    return NamedInstance(
        graph=Graph.from_edges(2 * r, edges),
        prescribed=frozenset(range(1, r - 1)),
        label=f"ladder-{r}",
    )


def double_clique(l: int) -> NamedInstance:
    """Two K_l's joined by the identity matching; prescribed is the whole
    first clique plus one edge of the second."""
    if l < 3 or l % 2 == 0:
        raise BadParam("double_clique needs an odd l >= 3")
    first = list(combinations(range(l), 2))
    second = [(u + l, v + l) for u, v in first]
    matching = [(i, l + i) for i in range(l)]
    edges = first + second + matching
    prescribed = frozenset(range(len(first))) | {len(first)}
    return NamedInstance(
        graph=Graph.from_edges(2 * l, edges),
        prescribed=prescribed,
        label=f"double-clique-{l}",
    )


def two_cycles_bridge(p: int, q: int) -> NamedInstance:
    """Two disjoint cycles joined by one edge; prescribed is one edge from
    each cycle."""
    if p < 3 or q < 3:
        raise BadParam("cycles need length >= 3")
    edges = [(i, (i + 1) % p) for i in range(p)]
    edges += [(p + i, p + (i + 1) % q) for i in range(q)]
    edges.append((0, p))
    return NamedInstance(
        graph=Graph.from_edges(p + q, edges),
        prescribed=frozenset({0, p}),
        label=f"two-cycles-bridge-{p}-{q}",
    )


def _greatest_odd_ell(k: int) -> int:
    # greatest odd l with (2l - 1)^2 <= 8k - 7, i.e. l <= (sqrt(8k-7)+1)/2
    bound = 8 * k - 7
    ell = (math.isqrt(bound) + 1) // 2
    while (2 * ell - 1) ** 2 > bound:
        ell -= 1
    if ell % 2 == 0:
        ell -= 1
    return ell


def gk_lower_witness(k: int) -> NamedInstance:
    """Double-clique witness showing k prescribed edges can defeat any
    circuit even at edge-connectivity l = greatest odd value with
    l(l-1)/2 + 1 <= k."""
    if k < 4:
        raise BadParam("witness construction needs k >= 4")
    ell = _greatest_odd_ell(k)
    inst = double_clique(ell)
    if not len(inst.prescribed) == ell * (ell - 1) // 2 + 1 <= k:
        raise CoherenceViolated("witness needs l(l-1)/2 + 1 <= k prescribed edges")
    return NamedInstance(
        graph=inst.graph,
        prescribed=inst.prescribed,
        label=f"gk-witness-{k}-ell-{ell}",
    )


def random_connected(
    n: int,
    m: int,
    min_odd_cut_at_least: int = 1,
    seed: int = 0,
) -> NamedInstance:
    """Seeded connected random graph accepted once its minimum odd cut is
    absent or at least the threshold.

    Proposals are a uniform spanning tree plus uniform extra edges.  When
    rejection exhausts the attempt budget (thresholds beyond what sparse
    uniform graphs reach), an all-even-degree proposal is built instead,
    which has no odd cuts at all.
    """
    if n < 2 or m < n - 1 or m > n * (n - 1) // 2:
        raise BadParam(f"infeasible n={n}, m={m}")
    threshold = max(min_odd_cut_at_least, 0)
    rng = random.Random(seed)
    label = f"random-n{n}-m{m}-c{threshold}-s{seed}"
    for _ in range(_ATTEMPTS):
        g = _uniform_tree_plus_edges(n, m, rng)
        if _passes_threshold(g, threshold):
            return NamedInstance(g, frozenset(), label)
    g = _even_connected(n, m, rng)
    if g is None or not _passes_threshold(g, threshold):
        raise Exhausted(
            f"no graph with min odd cut >= {threshold} found in {_ATTEMPTS} attempts"
        )
    return NamedInstance(g, frozenset(), label)


def _passes_threshold(g: Graph, threshold: int) -> bool:
    if threshold <= 1:
        return True
    # cheap necessary bound: an odd-degree vertex is an odd cut of its degree
    if any(g.degree(v) % 2 == 1 and g.degree(v) < threshold for v in range(g.n)):
        return False
    cert = min_odd_cut(g)
    return cert is None or cert.size >= threshold


def _uniform_tree_plus_edges(n: int, m: int, rng: random.Random) -> Graph:
    edges = set()
    if n == 2:
        edges.add((0, 1))
    else:
        # uniform labeled tree from a random sequence
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.add((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, v = sorted(leaves)
        edges.add((u, v))
    # sample ranks among the non-edges in combinations() order without
    # listing them: the same draws as sampling from that list
    row_start = [u * (2 * n - u - 1) // 2 for u in range(n)]
    tree = sorted(row_start[u] + v - u - 1 for u, v in edges)
    # non-edges ranked before tree edge j: its rank minus the j tree edges before it
    skip = [r - j for j, r in enumerate(tree)]
    extra = []
    for i in rng.sample(range(n * (n - 1) // 2 - len(tree)), m - len(tree)):
        r = i + bisect_right(skip, i)
        u = bisect_right(row_start, r) - 1
        extra.append((u, r - row_start[u] + u + 1))
    ordered = sorted(edges) + sorted(extra)
    return Graph.from_edges(n, ordered)


def _even_connected(n: int, m: int, rng: random.Random) -> Graph | None:
    """Connected graph with all degrees even: a spanning cycle plus
    edge-disjoint cycles.  Needs m == n or m >= n + 3."""
    if n < 3 or (m != n and m < n + 3):
        return None
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(n):
        u, v = perm[i], perm[(i + 1) % n]
        edges.add((min(u, v), max(u, v)))
    remaining = m - n
    budget = 200 * (remaining + 1)
    while remaining > 0 and budget > 0:
        budget -= 1
        if remaining <= 5:
            length = remaining
        else:
            length = rng.randint(3, min(8, remaining - 3))
        if length < 3 or length > n:
            continue
        cyc = rng.sample(range(n), length)
        pairs = [
            (min(cyc[i], cyc[(i + 1) % length]), max(cyc[i], cyc[(i + 1) % length]))
            for i in range(length)
        ]
        if len(set(pairs)) < length or any(p in edges for p in pairs):
            continue
        edges.update(pairs)
        remaining -= length
    if remaining:
        return None
    return Graph.from_edges(n, sorted(edges))
