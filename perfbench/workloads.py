"""Seeded corpora for the four workloads.

Each build function takes the run's seed and returns the graphs, built
with the program's generators or `Graph.from_edges`, and a function from a
block number to one block of calls.  A run attempts whole blocks.  `sweep_small`
repeats one block, the whole corpus.  `check` takes its corpus in
CHECK_BLOCKS blocks in turn, each with the same number of random and
two-halves graphs, so a run covers many graphs yet ends soon after
`--seconds`.  `find_dense` and `find_cubic` draw fresh prescribed sets for every
block, one set per size, so a run sees many distinct calls and its median
does not hang on a few of them.  The seed picks the graphs and the
prescribed edges; the sizes are fixed grids, so two seeds give blocks of the
same make-up and their timings can be compared.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from circuitcover import generators
from circuitcover.graphs import Graph

MAX_SET_SIZE = 4
EXHAUSTIVE_EDGE_LIMIT = 12
SAMPLES_PER_SIZE = 25
# (n, m) cells of the random part of sweep_small, SMALL_PER_CELL graphs each:
# for n = 4..9, edge counts from a tree (m = n - 1) up to n + 8, capped at
# the complete graph
SMALL_PER_CELL = 2
SMALL_CELLS = [
    (n, m)
    for n in range(4, 10)
    for m in range(n - 1, min(n * (n - 1) // 2, n + 8) + 1, 3)
]
DENSE_N = 200
DENSE_GRAPHS = 12
DENSE_SET_SIZES = range(16, 33)
CUBIC_SIZES = range(100, 401, 12)
CUBIC_SET_SIZES = range(2, 13)
CHECK_N = 120
CHECK_RANDOM = 48
CHECK_HALVES = 16
CHECK_BLOCKS = 4  # divides CHECK_RANDOM and CHECK_HALVES
HALF_MIN_DEGREE = 5
HALF_JOIN = 3


@dataclass(frozen=True)
class Built:
    graphs: list  # circuitcover Graph objects
    # block number -> calls: (graph index, prescribed edge tuple or None)
    block: Callable[[int], list]


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # "find" (find_circuit) or "check" (min_odd_cut)
    build: Callable[[int], Built]
    tail_percentile: int
    # rough seconds for one block untraced plus once traced; a traced run
    # makes round(seconds / pair_seconds) such pairs, so a repeat of it with
    # the same arguments does exactly the same work
    pair_seconds: float


def _named_small() -> list:
    out = [generators.ladder(r).graph for r in range(2, 9)]
    out.append(generators.double_clique(3).graph)
    out.append(generators.two_cycles_bridge(3, 3).graph)
    out.append(generators.two_cycles_bridge(4, 5).graph)
    out += [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)]
    out += [Graph.from_edges(n, list(combinations(range(n), 2))) for n in (4, 5)]
    return out


def _sets(g: Graph, rng: random.Random) -> list:
    sizes = range(1, min(MAX_SET_SIZE, g.m) + 1)
    if g.m <= EXHAUSTIVE_EDGE_LIMIT:
        return [c for k in sizes for c in combinations(range(g.m), k)]
    picked = {
        tuple(sorted(rng.sample(range(g.m), k)))
        for k in sizes
        for _ in range(SAMPLES_PER_SIZE)
    }
    return sorted(picked, key=lambda s: (len(s), s))


def sweep_small(seed: int) -> Built:
    rng = random.Random(seed)
    gs = _named_small()
    for n, m in SMALL_CELLS * SMALL_PER_CELL:
        gs.append(generators.random_connected(n, m, 1, seed=rng.randrange(1 << 30)).graph)
    calls = [(i, s) for i, g in enumerate(gs) for s in _sets(g, rng)]
    return Built(gs, lambda b: calls)


def _fresh_block(gs: list, sizes: range, seed: int, b: int) -> list:
    """Block b: one fresh prescribed set per size, graphs taken in turn."""
    rng = random.Random(seed * 1_000_003 + b)
    out = []
    for j, k in enumerate(sizes):
        gi = (b * len(sizes) + j) % len(gs)
        out.append((gi, tuple(sorted(rng.sample(range(gs[gi].m), k)))))
    return out


def find_dense(seed: int) -> Built:
    rng = random.Random(seed)
    gs = [
        generators.random_connected(DENSE_N, 4 * DENSE_N, 1, seed=rng.randrange(1 << 30)).graph
        for _ in range(DENSE_GRAPHS)
    ]
    return Built(gs, functools.partial(_fresh_block, gs, DENSE_SET_SIZES, seed))


def cubic_graph(n: int, rng: random.Random) -> Graph:
    """Hamiltonian cycle on a shuffled order plus a perfect matching that
    avoids the cycle's edges: cubic and 2-edge-connected."""
    if n < 6 or n % 2:
        raise ValueError("cubic graph needs an even n >= 6")
    while True:
        order = list(range(n))
        rng.shuffle(order)
        cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
        rng.shuffle(order)
        matching = [tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)]
        if not cycle.intersection(matching):
            return Graph.from_edges(n, sorted(cycle) + matching)


def find_cubic(seed: int) -> Built:
    rng = random.Random(seed)
    gs = [cubic_graph(n, rng) for n in CUBIC_SIZES]
    return Built(gs, functools.partial(_fresh_block, gs, CUBIC_SET_SIZES, seed))


def two_halves(n: int, rng: random.Random) -> Graph:
    """Two random halves with minimum degree HALF_MIN_DEGREE joined by
    HALF_JOIN edges, so the minimum odd cut is the join, not a vertex."""
    h = n // 2
    edges = []
    for base in (0, h):
        half = generators.random_connected(h, 4 * h, 1, seed=rng.randrange(1 << 30)).graph
        adj = [set() for _ in range(h)]
        for u, v in half.edges:
            adj[u].add(v)
            adj[v].add(u)
        for u in range(h):
            while len(adj[u]) < HALF_MIN_DEGREE:
                v = rng.randrange(h)
                if v != u and v not in adj[u]:
                    adj[u].add(v)
                    adj[v].add(u)
        edges += [(base + u, base + v) for u in range(h) for v in adj[u] if u < v]
    left = rng.sample(range(h), HALF_JOIN)
    right = rng.sample(range(h, 2 * h), HALF_JOIN)
    edges += list(zip(left, right))
    return Graph.from_edges(2 * h, edges)


def check(seed: int) -> Built:
    rng = random.Random(seed)
    gs = []
    while len(gs) < CHECK_RANDOM:
        g = generators.random_connected(CHECK_N, 4 * CHECK_N, 1, seed=rng.randrange(1 << 30)).graph
        if any(g.degree(v) % 2 for v in range(g.n)):
            gs.append(g)
    gs += [two_halves(CHECK_N, rng) for _ in range(CHECK_HALVES)]
    # block q: the graphs whose index is q modulo CHECK_BLOCKS
    blocks = [[(i, None) for i in range(q, len(gs), CHECK_BLOCKS)] for q in range(CHECK_BLOCKS)]
    return Built(gs, lambda b: blocks[b % CHECK_BLOCKS])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_small", "find", sweep_small, 99, pair_seconds=8.0),
        Workload("find_dense", "find", find_dense, 90, pair_seconds=2.5),
        Workload("find_cubic", "find", find_cubic, 95, pair_seconds=0.4),
        Workload("check", "check", check, 75, pair_seconds=6.0),
    )
}
