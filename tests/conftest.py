import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from circuitcover.graphs import Graph


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def bowtie() -> Graph:
    # two triangles sharing vertex 0
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def triangles_with_bridge() -> Graph:
    # triangles {0,1,2} and {3,4,5} joined by edge (0,3) = id 6
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)])


def atlas_slice() -> list[Graph]:
    """The connected graphs among every 25th graph of the networkx atlas from
    G209, the first on seven vertices, with edge ids in sorted order: a slice
    fixed before any run, whose graphs reach both descent steps.  Skips the
    test without networkx."""
    nx = pytest.importorskip("networkx")
    return [
        Graph.from_edges(a.number_of_nodes(), sorted(a.edges()))
        for a in nx.graph_atlas_g()[209::25]
        if nx.is_connected(a)
    ]


def sparse_random_graphs(count=30):
    """Seeded connected graphs with m between n - 1 and 2n, so that many
    have bridges and several 2-edge-connected components."""
    from circuitcover.generators import random_connected

    rng = random.Random(2024)
    out = []
    for seed in range(count):
        n = rng.randint(4, 30)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        out.append(random_connected(n, m, 1, seed=seed).graph)
    return out


@st.composite
def connected_graphs(draw, min_n=2, max_n=8, max_extra=8):
    """Random connected simple graph: a random recursive tree plus extras."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    spare = sorted(set(combinations(range(n), 2)) - {tuple(sorted(e)) for e in tree})
    k = draw(st.integers(0, min(max_extra, len(spare))))
    extra = draw(st.permutations(spare))[:k] if spare else []
    edges = sorted({tuple(sorted(e)) for e in tree} | set(extra))
    return Graph.from_edges(n, edges)


@st.composite
def simple_graphs(draw, max_n=8):
    """Random simple graph on 0..max_n vertices, connected or not, with its
    edges in random order."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@pytest.fixture(scope="session")
def small_random_graphs():
    """A deterministic spread of small connected graphs for cross-checks."""
    from circuitcover.generators import random_connected

    out = []
    rng = random.Random(99)
    for seed in range(60):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 7))
        out.append(random_connected(n, m, 1, seed=seed).graph)
    return out
