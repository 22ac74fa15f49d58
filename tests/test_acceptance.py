"""Acceptance criteria, one test per criterion, each printing a PASS line.

The corpus is the named families plus 500 seeded random connected graphs on
at most 9 vertices.  Prescribed sets are exhaustive up to size 4 when a
graph has at most 12 edges, else 200 seeded samples per graph.
"""
import math
import random
import time
import zlib
from itertools import combinations

import pytest

from circuitcover.cuts import (
    brute_force_min_odd_cut,
    edge_connectivity,
    min_odd_cut,
)
from circuitcover.cuts import CutCertificate
from circuitcover.finder import find_circuit
from circuitcover.generators import (
    double_clique,
    gk_lower_witness,
    ladder,
    random_connected,
    two_cycles_bridge,
)
from circuitcover.graphs import Trail, verify_circuit
from circuitcover.hopping import bridge_case
from circuitcover.jaeger import EvenExtension, extend_to_even_subgraph, odd_cut_within
from circuitcover.oracle import (
    check_parity_monotonicity,
    cycle_space_basis,
    enumerate_connected_even_sets,
    feasible_by_bruteforce,
    min_components_even_extension,
)
from circuitcover.segments import segment

from conftest import complete_graph, cycle_graph

MAX_SET_SIZE = 4
EXHAUSTIVE_EDGE_LIMIT = 12
SAMPLES_PER_GRAPH = 200



def _named_corpus():
    out = []
    for r in range(2, 9):
        out.append((f"ladder-{r}", ladder(r).graph))
    out.append(("double-clique-3", double_clique(3).graph))
    out.append(("two-cycles-bridge-3-3", two_cycles_bridge(3, 3).graph))
    out.append(("two-cycles-bridge-4-5", two_cycles_bridge(4, 5).graph))
    for n in range(3, 9):
        out.append((f"cycle-{n}", cycle_graph(n)))
    out.append(("k4", complete_graph(4)))
    out.append(("k5", complete_graph(5)))
    return out


def _random_corpus(count=500):
    out = []
    for i in range(count):
        rng = random.Random(7000 + i)
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 8))
        out.append((f"random-{i}", random_connected(n, m, 1, seed=i).graph))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _named_corpus() + _random_corpus()


@pytest.fixture(scope="module")
def prescribed_sets(corpus):
    """Per graph: the S family used by criteria 1 and 4."""
    out = {}
    for label, g in corpus:
        if g.m <= EXHAUSTIVE_EDGE_LIMIT:
            sets = [
                frozenset(c)
                for size in range(1, min(MAX_SET_SIZE, g.m) + 1)
                for c in combinations(range(g.m), size)
            ]
        else:
            rng = random.Random(zlib.crc32(label.encode()))
            sets = []
            per_size = SAMPLES_PER_GRAPH // MAX_SET_SIZE
            for size in range(1, MAX_SET_SIZE + 1):
                for _ in range(per_size):
                    sets.append(frozenset(rng.sample(range(g.m), size)))
            sets = sorted(set(sets), key=sorted)
        out[label] = sets
    return out


def _feasible(masks_desc, s_mask):
    return any(s_mask & ~f == 0 for f in masks_desc)


@pytest.fixture(scope="module")
def finder_sweep(corpus, prescribed_sets):
    """Run the finder over the whole corpus; criteria 1 and 8 both read it.

    Any soundness violation or internal assertion (coherence, witness
    disjointness, descent measure) raises here and fails both criteria.
    """
    t0 = time.perf_counter()
    runs = 0
    for label, g in corpus:
        cut = min_odd_cut(g)
        cut_size = math.inf if cut is None else cut.size
        for s in prescribed_sets[label]:
            runs += 1
            outcome = find_circuit(g, s)
            if isinstance(outcome, Trail):
                assert verify_circuit(g, outcome, s), (label, sorted(s))
            else:
                assert outcome.is_valid_for(g), (label, sorted(s))
                assert outcome.odd and outcome.size <= len(s), (label, sorted(s))
                assert cut_size <= len(s), (label, sorted(s))
            if cut_size > len(s):
                assert isinstance(outcome, Trail), (label, sorted(s))
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_1_oracle_equivalence(corpus, finder_sweep):
    elapsed = finder_sweep["elapsed"]
    assert elapsed < 600, f"criterion 1 exceeded 10 minutes: {elapsed:.1f}s"
    print(
        f"\nPASS criterion 1: oracle equivalence over {len(corpus)} graphs, "
        f"{finder_sweep['runs']} prescribed sets, 0 violations, {elapsed:.1f}s"
    )


def test_criterion_2_characterisation_both_directions(corpus):
    """Both directions of the theorem on the corpus graphs with at most 12
    edges: with min_odd_cut above k every k-set lies in a connected even
    edge set, and otherwise the cut padded to k edges lies in none.  Every
    graph with 2 to 7 vertices is covered for k <= 4 by
    tests/test_oracle.py::TestAtlasTheorem, on the brute-force cut."""
    t0 = time.perf_counter()
    checked = 0
    for label, g in corpus:
        if g.m > EXHAUSTIVE_EDGE_LIMIT:
            continue
        masks = enumerate_connected_even_sets(g)
        cut = min_odd_cut(g)
        cut_size = math.inf if cut is None else cut.size
        for k in range(1, min(MAX_SET_SIZE, g.m) + 1):
            checked += 1
            if cut_size > k:
                for combo in combinations(range(g.m), k):
                    s_mask = sum(1 << e for e in combo)
                    assert _feasible(masks, s_mask), (label, k, combo)
            else:
                padding = [e for e in range(g.m) if e not in cut.boundary]
                bad = set(cut.boundary) | set(padding[: k - cut.size])
                assert len(bad) == k
                assert feasible_by_bruteforce(g, bad) is None, (label, k)
    elapsed = time.perf_counter() - t0
    print(
        f"\nPASS criterion 2: both directions on {checked} (graph, k) pairs, "
        f"0 violations, {elapsed:.1f}s"
    )


def test_criterion_3_min_odd_cut_agreement(corpus):
    t0 = time.perf_counter()
    compared = 0
    for label, g in corpus:
        if g.n > 12:
            continue
        fast = min_odd_cut(g)
        brute = brute_force_min_odd_cut(g)
        if brute is None:
            assert fast is None, label
        else:
            assert fast is not None and fast.size == brute.size, label
        compared += 1
    assert min_odd_cut(ladder(4).graph).size == 3
    assert min_odd_cut(double_clique(3).graph).size == 3
    assert min_odd_cut(two_cycles_bridge(3, 3).graph).size == 1
    assert min_odd_cut(cycle_graph(6)) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 3 exceeded 1 minute: {elapsed:.1f}s"
    print(
        f"\nPASS criterion 3: Gomory-Hu vs brute force on {compared} graphs, "
        f"{elapsed:.1f}s"
    )


def test_criterion_4_jaeger_equivalence(corpus, prescribed_sets):
    t0 = time.perf_counter()
    runs = 0
    for label, g in corpus:
        basis = cycle_space_basis(g)
        if basis.dim > 20:
            continue
        even_masks = [0]
        f = 0
        for step in range(1, 1 << basis.dim):
            f ^= basis.masks[(step & -step).bit_length() - 1]
            even_masks.append(f)
        even_masks.sort(key=lambda mask: -mask.bit_count())
        for s in prescribed_sets[label]:
            runs += 1
            s_mask = sum(1 << e for e in s)
            brute_extendable = _feasible(even_masks, s_mask)
            ext = extend_to_even_subgraph(g, s)
            cut = odd_cut_within(g, s)
            if isinstance(ext, EvenExtension):
                assert cut is None and brute_extendable, (label, sorted(s))
            else:
                assert cut is not None and not brute_extendable, (label, sorted(s))
    elapsed = time.perf_counter() - t0
    print(
        f"\nPASS criterion 4: three-way even-extension equivalence on {runs} "
        f"sets, 0 violations, {elapsed:.1f}s"
    )


def test_criterion_5_ladder_counterexample_family():
    t0 = time.perf_counter()
    checked = 0
    for r in (4, 5, 6):
        g = ladder(r).graph
        rungs = range(r)
        for size in range(3, r):
            for s in map(frozenset, combinations(rungs, size)):
                checked += 1
                ext = extend_to_even_subgraph(g, s)
                assert isinstance(ext, EvenExtension), (r, sorted(s))
                assert min_components_even_extension(g, s) == math.ceil(size / 2), (
                    r,
                    sorted(s),
                )
                outcome = find_circuit(g, s)
                assert isinstance(outcome, CutCertificate), (r, sorted(s))
                assert outcome.size == 3, (r, sorted(s))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"criterion 5 exceeded 1 minute: {elapsed:.1f}s"
    print(
        f"\nPASS criterion 5: ladder rung sets reproduce ceil(|S|/2) components "
        f"and size-3 cuts ({checked} sets, {elapsed:.1f}s)"
    )


def test_criterion_6_threshold_witnesses():
    t0 = time.perf_counter()
    cases = [
        ("g(2)>1", two_cycles_bridge(3, 3).graph, two_cycles_bridge(3, 3).prescribed, 1),
        ("g(3)>2", ladder(4).graph, frozenset({0, 1, 2}), 2),
        ("g(4)>3", gk_lower_witness(4).graph, gk_lower_witness(4).prescribed, 3),
    ]
    for name, g, s, conn in cases:
        assert edge_connectivity(g) == conn, name
        assert isinstance(extend_to_even_subgraph(g, s), EvenExtension), name
        assert feasible_by_bruteforce(g, s) is None, name
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 6: all three witnesses confirmed, {elapsed:.1f}s")


def test_criterion_7_parity_monotonicity(corpus):
    t0 = time.perf_counter()
    checked = 0
    for label, g in corpus:
        if g.m > 12:
            continue
        for k in (1, 2):
            assert check_parity_monotonicity(g, k), (label, k)
            checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nPASS criterion 7: parity monotonicity on {checked} (graph, k) "
        f"pairs, {elapsed:.1f}s"
    )


def test_criterion_8_hopping_internals(finder_sweep):
    # The coherence checker, the witness edge-disjointness assertion, and the
    # descent measure assertion raise on violation; the corpus sweep ran
    # without any such exception.
    assert finder_sweep["runs"] > 0
    g = complete_graph(4)
    h = Trail((0, 1, 2, 0), (0, 3, 1))
    out = bridge_case(g, segment(g, h, {0}), 2)
    assert isinstance(out, Trail)
    assert out.vertices == (3, 0, 1, 3) and out.edges == (2, 0, 4)
    full = find_circuit(g, {0, 2})
    assert isinstance(full, Trail) and full.vertices == (3, 0, 1, 3)
    print(
        f"\nPASS criterion 8: no internal assertion fired across "
        f"{finder_sweep['runs']} finder runs; tetrahedron fixture reproduced exactly"
    )


def test_criterion_9_scale_smoke():
    t0 = time.perf_counter()
    inst = random_connected(200, 800, min_odd_cut_at_least=9, seed=11)
    g = inst.graph
    cut = min_odd_cut(g)
    assert cut is None or cut.size >= 9
    rng = random.Random(5)
    s = frozenset(rng.sample(range(g.m), 8))
    outcome = find_circuit(g, s)
    assert isinstance(outcome, Trail)
    assert verify_circuit(g, outcome, s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"criterion 9 exceeded 5 seconds: {elapsed:.2f}s"
    print(
        f"\nPASS criterion 9: n=200 m=800 |S|=8 verified circuit in "
        f"{elapsed:.2f}s"
    )
