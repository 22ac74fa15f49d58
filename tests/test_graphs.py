import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitcover.certificates import circuit_fault, trail_fault
from circuitcover.errors import BadEdgeId, BadParam, NotConnected, NotEven
from circuitcover.graphs import (
    Graph,
    Trail,
    bridge_runs,
    bridges_and_2ec_components,
    connected_components,
    contract_subgraph,
    edge_boundary,
    euler_circuit,
    is_connected,
    is_even_subgraph,
    spanning_forest,
    trail_concat,
    verify_circuit,
)

from conftest import (
    bowtie,
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    simple_graphs,
)


@pytest.fixture(scope="module")
def nx():
    """networkx, imported once here so that no timed Hypothesis example pays
    for the import."""
    return pytest.importorskip("networkx")


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1, ())

    def test_adjacency_inverts_edge_list(self):
        g = complete_graph(4)
        for v in range(4):
            for w, eid in g.adjacency[v]:
                assert set(g.edges[eid]) == {v, w}


class TestEdgeBoundary:
    def test_pendant_vertex_of_path(self):
        g = path_graph(3)  # a-b-c
        assert edge_boundary(g, {0}) == frozenset({0})

    def test_empty_side(self):
        assert edge_boundary(cycle_graph(5), set()) == frozenset()

    def test_ladder_inner_rail_vertex(self):
        from circuitcover.generators import ladder

        g = ladder(4).graph
        # independently: the boundary of one vertex is its incident edges
        incident = frozenset(eid for _, eid in g.adjacency[1])
        assert edge_boundary(g, {1}) == incident
        assert len(incident) == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            edge_boundary(path_graph(2), {5})

    @given(connected_graphs(), st.data())
    @settings(max_examples=60)
    def test_boundary_parity_matches_odd_degrees(self, g, data):
        side = data.draw(st.sets(st.integers(0, g.n - 1)))
        odd_inside = sum(1 for v in side if g.degree(v) % 2 == 1)
        assert len(edge_boundary(g, side)) % 2 == odd_inside % 2

    @given(simple_graphs(), st.data())
    @settings(max_examples=100)
    def test_matches_the_definition(self, g, data):
        bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        side = {v for v, b in enumerate(bits) if b}
        want = frozenset(e for e, (u, v) in enumerate(g.edges) if (u in side) != (v in side))
        # a side and its complement share their boundary; unless each holds
        # exactly half the vertices, one is scanned itself and the other
        # through its complement
        for a in (side, set(range(g.n)) - side):
            got = edge_boundary(g, a)
            assert type(got) is frozenset and got == want


class TestEvenSubgraph:
    def test_full_cycle_is_even(self):
        g = cycle_graph(6)
        assert is_even_subgraph(g, range(6))

    def test_single_edge_is_odd(self):
        assert not is_even_subgraph(cycle_graph(6), {0})

    def test_two_triangles_of_bridged_graph(self):
        from conftest import triangles_with_bridge

        g = triangles_with_bridge()
        assert is_even_subgraph(g, {0, 1, 2, 3, 4, 5})
        assert not is_even_subgraph(g, {0, 1, 2, 6})


class TestComponents:
    def test_cycle_is_one_component(self):
        g = cycle_graph(6)
        assert connected_components(g, range(6)) == [frozenset(range(6))]

    def test_disjoint_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert len(connected_components(g)) == 2

    def test_ladder_minus_rungs_leaves_two_rails(self):
        from circuitcover.generators import ladder

        g = ladder(4).graph
        rails = g.all_edges() - frozenset(range(4))
        comps = connected_components(g, rails)
        assert sorted(map(sorted, comps)) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_restriction_excludes_isolated_vertices(self):
        g = path_graph(4)
        comps = connected_components(g, {0})
        assert comps == [frozenset({0, 1})]

    @pytest.mark.parametrize("eid", [-1, 3, 99])
    def test_restriction_rejects_an_edge_id_out_of_range(self, eid):
        with pytest.raises(BadEdgeId):
            connected_components(path_graph(4), {0, eid})

    @pytest.mark.parametrize(
        "g, want",
        [
            (Graph(0, ()), True),
            (Graph(1, ()), True),
            (Graph(2, ()), False),
            (Graph.from_edges(3, [(0, 1)]), False),  # 2 is isolated
            (Graph.from_edges(3, [(1, 2)]), False),  # 0 is isolated
            (path_graph(2), True),
            (cycle_graph(5), True),
        ],
        ids=["n0", "n1", "two-isolated", "isolated-last", "isolated-first", "edge", "cycle"],
    )
    def test_is_connected_small_cases(self, g, want):
        assert is_connected(g) == want == (len(connected_components(g)) <= 1)

    @given(simple_graphs())
    @settings(max_examples=100)
    def test_is_connected_matches_components(self, g):
        assert is_connected(g) == (len(connected_components(g)) <= 1)


class TestSpanningForest:
    def test_trees_and_tree_paths(self):
        # triangles {0,1,2} and {3,4,5} joined by edge 6 = (0,3); without
        # edge 6 the forest has two trees, each rooted at its smallest vertex
        from conftest import triangles_with_bridge

        forest = spanning_forest(triangles_with_bridge(), range(6))
        assert forest.trees() == [[0, 2, 1], [3, 5, 4]]
        assert forest.parent_edge == [-1, 0, 1, -1, 3, 4]
        assert sorted(forest.path_edges(1, 2)) == [0, 1]
        assert forest.path_edges(4, 4) == []

    def test_path_between_trees_is_an_error(self):
        forest = spanning_forest(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            forest.path_edges(1, 3)


@st.composite
def _chained_graphs(draw):
    """One to three connected graphs, each joined to the next by one edge,
    so that (V, f) often has several 2-edge-connected components."""
    parts = draw(st.lists(connected_graphs(min_n=3, max_n=6, max_extra=6), min_size=1, max_size=3))
    edges, base = [], 0
    for p in parts:
        if base:
            edges.append((base - 1, base))
        edges += [(base + u, base + v) for u, v in p.edges]
        base += p.n
    return Graph.from_edges(base, edges)


def _classify_each(g, f):
    """eid -> (bridges, component's vertex set, its boundary) in (V, f) for
    every edge eid of f, which bars the other edges."""
    barred = g.all_edges() - frozenset(f)
    return {eid: bridges_and_2ec_components(g, barred, eid) for eid in f}


def _inner_edges(g, f, verts):
    """Edges of f with both ends in verts."""
    return frozenset(e for e in f if g.edges[e][0] in verts and g.edges[e][1] in verts)


class TestBridges:
    def test_tree_is_all_bridges(self):
        g = path_graph(5)
        for bridges, comp, boundary in _classify_each(g, g.all_edges()).values():
            assert bridges == g.all_edges()
            assert comp is None and boundary == ()

    def test_cycle_has_none(self):
        g = cycle_graph(5)
        for bridges, comp, boundary in _classify_each(g, g.all_edges()).values():
            assert bridges == frozenset()
            assert comp == frozenset(range(5)) and boundary == ()
            assert _inner_edges(g, g.all_edges(), comp) == g.all_edges()

    def test_star_left_by_removing_triangle_from_k4(self):
        g = complete_graph(4)
        # remove the triangle on {1,2,3}; the rest is the star at 0
        star = g.all_edges() - frozenset(
            eid for eid, (u, v) in enumerate(g.edges) if u != 0 and v != 0
        )
        for bridges, comp, boundary in _classify_each(g, star).values():
            assert bridges == star and len(bridges) == 3
            assert comp is None and boundary == ()

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_bridge_removal_disconnects(self, g):
        answers = _classify_each(g, g.all_edges())
        # g is connected, so every edge sees the bridges of all of g
        (bridges,) = {b for b, _, _ in answers.values()}
        for eid, (_, comp, _) in answers.items():
            assert (comp is None) == (eid in bridges)
            rest = g.all_edges() - {eid}
            u, v = g.endpoints(eid)
            comps = connected_components(g, rest) + [
                frozenset({w}) for w in (u, v) if all(e == eid for _, e in g.adjacency[w])
            ]
            assert any(u in c and v in c for c in comps) == (eid not in bridges)

    @given(_chained_graphs(), st.data())
    @settings(max_examples=100)
    def test_components_partition_the_non_bridges(self, g, data):
        f = g.all_edges() - data.draw(st.sets(st.integers(0, g.m - 1)))
        answers = _classify_each(g, f)
        bridges = frozenset().union(*(b for b, _, _ in answers.values()))
        comps = {c for _, c, _ in answers.values() if c is not None}
        # a component's edges: the non-bridge edges of f with both ends in it
        comp_edges = {c: _inner_edges(g, f, c) for c in comps}
        assert not any(edges & bridges for edges in comp_edges.values())
        parts = [bridges] + list(comp_edges.values())
        assert sum(len(p) for p in parts) == len(f)
        assert frozenset().union(*parts) == f
        for eid, (own_bridges, comp, boundary) in answers.items():
            assert (comp is None) == (eid in bridges)
            # the bridges returned are those of eid's connected component
            reach = next(c for c in connected_components(g, f) if g.edges[eid][0] in c)
            assert own_bridges == frozenset(b for b in bridges if g.edges[b][0] in reach)
            if comp is None:
                assert boundary == ()
                continue
            assert eid in comp_edges[comp]
            # comp is connected in (V, f), and the boundary is its boundary
            # there, in edge-id order
            assert connected_components(g, comp_edges[comp]) == [comp]
            assert boundary == tuple(
                sorted(e for e in f if (g.edges[e][0] in comp) != (g.edges[e][1] in comp))
            )
        for a, b in combinations(comps, 2):
            assert not a & b

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_runs_are_the_far_sides(self, g):
        order, runs = bridge_runs(g, 0)
        assert sorted(order) == list(range(g.n))
        for e, (lo, hi) in runs.items():
            rest = Graph.from_edges(g.n, [uv for i, uv in enumerate(g.edges) if i != e])
            near = next(c for c in connected_components(rest) if 0 in c)
            assert len(near) < g.n  # e is a bridge
            assert frozenset(order[lo:hi]) == frozenset(range(g.n)) - near

    # f is the barred edge set
    @pytest.mark.parametrize(
        "f, eid", [([5, -1], 0), ([5, 99], 0), ([5], -1), ([5], 99)]
    )
    def test_rejects_an_edge_id_out_of_range(self, f, eid):
        from circuitcover.generators import ladder

        with pytest.raises(BadEdgeId):
            bridges_and_2ec_components(ladder(4).graph, f, eid)

    def test_rejects_an_edge_outside_the_set(self):
        # eid itself barred: it is not an edge of g - barred
        g = cycle_graph(4)
        with pytest.raises(BadParam):
            bridges_and_2ec_components(g, [3], 3)

    def test_barred_edges_are_skipped(self):
        # a 6-cycle with the chord 0-3: barring the chord leaves one cycle;
        # barring the edge 5-0 leaves the 4-cycle 0-1-2-3 with the path
        # 3-4-5 of two bridges hanging off it
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        assert bridges_and_2ec_components(g, [6], 0) == (frozenset(), frozenset(range(6)), ())
        assert bridges_and_2ec_components(g, [5], 6) == (
            frozenset({3, 4}), frozenset({0, 1, 2, 3}), (3,)
        )

    @staticmethod
    def _against_networkx(nx, g, f):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges[e] for e in f)
        nx_bridges = {frozenset(b) for b in nx.bridges(h)}
        two_ec = list(nx.k_edge_components(h, k=2))
        barred = g.all_edges() - frozenset(f)
        for eid in f:
            bridges, comp, boundary = bridges_and_2ec_components(g, barred, eid)
            u, v = g.edges[eid]
            reach = nx.node_connected_component(h, u)
            assert {frozenset(g.edges[b]) for b in bridges} == {
                b for b in nx_bridges if b <= reach
            }
            assert (comp is None) == (frozenset((u, v)) in nx_bridges)
            if comp is None:
                assert boundary == ()
                continue
            assert comp == next(c for c in two_ec if u in c and v in c)
            assert nx.is_connected(h.subgraph(comp))
            assert list(boundary) == sorted(set(boundary))
            assert {frozenset(g.edges[e]) for e in boundary} == {
                frozenset(b) for b in nx.edge_boundary(h, comp)
            }

    @given(_chained_graphs(), st.data())
    @settings(max_examples=60)
    def test_chained_graphs_against_networkx(self, nx, g, data):
        f = g.all_edges() - data.draw(st.sets(st.integers(0, g.m - 1)))
        self._against_networkx(nx, g, f)

    def test_random_connected_against_networkx(self, nx):
        from circuitcover.generators import random_connected

        rng = random.Random(11)
        for seed in range(12):
            n = rng.randint(4, 60)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
            g = random_connected(n, m, 1, seed=seed).graph
            f = frozenset(e for e in range(g.m) if rng.random() < 0.8)
            self._against_networkx(nx, g, f)


def _reference_euler_circuit(g, f, start=None):
    """The Euler tour kernel as it was before it built adjacency only for the
    vertices f touches: n-sized lists, a scan pointer per vertex.  Kept as a
    test-only reference that the tour must match step for step."""
    if start is not None and not (0 <= start < g.n):
        raise BadParam(f"start vertex {start} out of range (n={g.n})")
    allowed = frozenset(f)
    if not allowed:
        if start is None and g.n == 0:
            raise BadParam("a graph with no vertices has no closed trail")
        return Trail((start if start is not None else 0,), ())
    adj = [[] for _ in range(g.n)]
    for eid in sorted(allowed):
        u, v = g.endpoints(eid)
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    if any(len(lst) % 2 for lst in adj):
        raise NotEven("some vertex has odd degree in the edge set")
    if start is None:
        start = min(v for v in range(g.n) if adj[v])
    elif not adj[start]:
        raise NotConnected(f"start vertex {start} is isolated in the edge set")
    ptr = [0] * g.n
    used = set()
    stack = [(start, -1)]
    out_v = []
    out_e = []
    while stack:
        v, e_in = stack[-1]
        lst = adj[v]
        i = ptr[v]
        while i < len(lst) and lst[i][1] in used:
            i += 1
        ptr[v] = i
        if i < len(lst):
            w, eid = lst[i]
            used.add(eid)
            stack.append((w, eid))
        else:
            stack.pop()
            out_v.append(v)
            if e_in != -1:
                out_e.append(e_in)
    if len(out_e) != len(allowed):
        raise NotConnected("edge set is not connected")
    out_v.reverse()
    out_e.reverse()
    return Trail(tuple(out_v), tuple(out_e))


def _tour_or_error(kernel, g, f, start):
    try:
        t = kernel(g, f, start)
    except ValueError as exc:
        return type(exc)
    return t.vertices, t.edges


@st.composite
def _even_sets(draw):
    """A graph of connected_graphs() and the symmetric difference of a
    drawn subset of its fundamental cycles: an even set, not always
    connected."""
    g = draw(connected_graphs())
    forest = spanning_forest(g)
    tree = set(forest.parent_edge)
    f = set()
    for eid, (u, v) in enumerate(g.edges):
        if eid not in tree and draw(st.booleans()):
            f ^= {eid, *forest.path_edges(u, v)}
    return g, frozenset(f)


class TestEulerCircuit:
    def test_triangle(self):
        g = cycle_graph(3)
        t = euler_circuit(g, range(3))
        assert t.is_closed and sorted(t.edges) == [0, 1, 2]

    def test_bowtie_repeats_shared_vertex(self):
        g = bowtie()
        t = euler_circuit(g, g.all_edges())
        assert t.vertices == (0, 1, 2, 0, 3, 4, 0)
        assert sorted(t.edges) == list(range(6))

    def test_disjoint_triangles_not_connected(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        with pytest.raises(NotConnected):
            euler_circuit(g, g.all_edges())

    def test_odd_degree_rejected(self):
        with pytest.raises(NotEven):
            euler_circuit(path_graph(3), {0, 1})

    @pytest.mark.parametrize("f", [range(3), ()])
    @pytest.mark.parametrize("start", [-1, 3])
    def test_start_outside_the_graph_rejected(self, f, start):
        with pytest.raises(BadParam):
            euler_circuit(cycle_graph(3), f, start=start)

    def test_empty_set_without_vertices_rejected(self):
        # there is no vertex for the trivial trail to stand on
        with pytest.raises(BadParam):
            euler_circuit(Graph.from_edges(0, []), ())
        assert euler_circuit(Graph.from_edges(1, []), ()) == Trail((0,), ())

    @given(_even_sets())
    @settings(max_examples=150)
    def test_matches_the_reference_kernel_from_every_start(self, case):
        g, f = case
        touched = sorted({v for eid in f for v in g.edges[eid]})
        for start in [None, *touched]:
            want = _tour_or_error(_reference_euler_circuit, g, f, start)
            assert _tour_or_error(euler_circuit, g, f, start) == want

    @given(connected_graphs(), st.data())
    @settings(max_examples=80)
    def test_matches_the_reference_kernel_on_any_edge_set(self, g, data):
        # odd, disconnected and empty sets too, from every vertex
        f = data.draw(st.frozensets(st.integers(0, g.m - 1)))
        for start in [None, *range(g.n)]:
            want = _tour_or_error(_reference_euler_circuit, g, f, start)
            assert _tour_or_error(euler_circuit, g, f, start) == want

    @pytest.mark.parametrize("eid", [-1, 3])
    def test_rejects_an_edge_id_out_of_range(self, eid):
        # -1 must not be read as edge m - 1, nor m as a missing vertex
        g = cycle_graph(3)
        with pytest.raises(BadEdgeId):
            euler_circuit(g, [0, 1, 2, eid])
        with pytest.raises(BadEdgeId):
            euler_circuit(g, [eid])

    def test_isolated_start_rejected(self):
        g = bowtie()
        with pytest.raises(NotConnected):
            euler_circuit(g, {0, 1, 2}, start=3)  # the triangle 0-1-2 misses 3

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_covers_every_chosen_edge_exactly_once(self, g):
        # largest even subgraph test: strip a spanning-tree parity fix
        from circuitcover.jaeger import extend_to_even_subgraph
        from circuitcover.jaeger import EvenExtension

        ext = extend_to_even_subgraph(g, frozenset())
        assert isinstance(ext, EvenExtension)
        f = ext.even_set
        if not f:
            return
        comps = connected_components(g, f)
        target = comps[0]
        f = frozenset(
            eid for eid in f if g.edges[eid][0] in target and g.edges[eid][1] in target
        )
        t = euler_circuit(g, f)
        assert sorted(t.edges) == sorted(f)


class TestValidateTrail:
    # the check of a trail, open or closed, is certificates.trail_fault.
    # cycle_graph(4): edge i joins i and i + 1 mod 4, so edge m - 1 = 3 is (3, 0)
    @pytest.mark.parametrize(
        "walk, edge_walk, fault",
        [
            ((0, 1, 2, 3, 0), (0, 1, 2, 3), ""),
            ((1, 2, 3), (1, 2), ""),
            ((2,), (), ""),
            ((0, 1, 0), (0, 0), "duplicate edge in walk"),
            ((0, 2), (0,), "step 0 does not follow edge 0"),
            ((0, 1, 3), (0, 1), "step 1 does not follow edge 1"),
            ((3, 0), (-1,), "edge id -1 out of range"),  # not edge m - 1
            ((0, 1), (4,), "edge id 4 out of range"),  # id m
            ((4,), (), "vertex 4 out of range"),  # a one-vertex trail at vertex n
            ((-1,), (), "vertex -1 out of range"),
        ],
        ids=["closed", "open", "one-vertex", "repeat", "mismatch", "later-mismatch",
             "id-minus-one", "id-m", "vertex-n", "vertex-minus-one"],
    )
    def test_table(self, walk, edge_walk, fault):
        g = cycle_graph(4)
        assert trail_fault(g.n, g.edges, walk, edge_walk) == fault


def _ball(g, v0, radius):
    """Vertices within `radius` steps of v0: a connected vertex set."""
    ball = {v0}
    for _ in range(radius):
        ball |= {x for v in ball for x, _ in g.adjacency[v]}
    return ball


def _has_parallel_boundary(g, w):
    """True when two edges join w to one outside vertex."""
    outside = [u if v in w else v for u, v in g.edges if (u in w) != (v in w)]
    return len(set(outside)) < len(outside)


class TestContraction:
    def test_singleton_moves_to_the_new_vertex(self):
        g = complete_graph(4)
        c = contract_subgraph(g, {2}, edge_boundary(g, {2}))
        assert c.n == 5 and c.m == g.m and c.degree(2) == 0
        moved = tuple(tuple(4 if x == 2 else x for x in e) for e in g.edges)
        assert c.edges == moved
        # edges 1, 3 and 5 ended at 2; each outside end keeps its row order
        assert c.adjacency[4] == ((0, 1), (1, 3), (3, 5))
        assert c.adjacency[0] == ((1, 0), (4, 1), (3, 2))

    def test_prism_triangle_contracts_to_k4(self):
        from circuitcover.generators import double_clique

        g = double_clique(3).graph
        c = contract_subgraph(g, {3, 4, 5}, edge_boundary(g, {3, 4, 5}))
        assert c.n == 7 and c.m == g.m == 9
        # the triangle stays behind as an island, cut off from the rest
        assert [c.degree(v) for v in (3, 4, 5)] == [2, 2, 2]
        assert connected_components(c, c.all_edges()) == [
            frozenset({0, 1, 2, 6}), frozenset({3, 4, 5})
        ]
        assert all(c.degree(v) == 3 for v in (0, 1, 2, 6))
        for e, (u, v) in enumerate(g.edges):
            if {u, v} <= {3, 4, 5}:
                assert c.edges[e] == (u, v)
            else:
                assert set(c.edges[e]) - {6} == {u, v} - {3, 4, 5}

    def test_contract_everything(self):
        g = cycle_graph(5)
        c = contract_subgraph(g, range(5), edge_boundary(g, range(5)))
        assert c.n == 6 and c.edges == g.edges
        assert c.adjacency[:5] == g.adjacency and c.adjacency[5] == ()

    def test_empty_set_rejected(self):
        with pytest.raises(BadParam):
            contract_subgraph(cycle_graph(4), [], [])

    # path 0-1-2-3 with edges 0, 1, 2: edge 0 lies inside {0, 1}, edge 2 has
    # no end in it, and the boundary is edge 1 alone
    @pytest.mark.parametrize("boundary", [[1, 0], [1, 2]], ids=["inner", "outside"])
    def test_an_edge_without_one_end_in_w_is_rejected(self, boundary):
        with pytest.raises(ValueError, match="exactly one end"):
            contract_subgraph(path_graph(4), {0, 1}, boundary)

    def test_an_edge_id_out_of_range_is_rejected(self):
        for e in (-1, 3):
            with pytest.raises(BadEdgeId):
                contract_subgraph(path_graph(4), {0, 1}, [1, e])

    @given(connected_graphs(min_n=3), st.data())
    @settings(max_examples=100)
    def test_matches_the_checked_build(self, g, data):
        # the unchecked build must give what Graph builds and checks itself,
        # sharing g's own row wherever the contraction leaves it alone
        w = _ball(g, data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, 2)))
        if _has_parallel_boundary(g, w):
            with pytest.raises(ValueError, match="duplicates"):
                contract_subgraph(g, w, edge_boundary(g, w))
            return
        c = contract_subgraph(g, w, edge_boundary(g, w))
        checked = Graph(g.n + 1, c.edges)
        assert c.edges == checked.edges and c.adjacency == checked.adjacency
        moved = {x for e in edge_boundary(g, w) for x in g.edges[e]}
        for v in range(g.n):
            if v not in moved:
                assert c.adjacency[v] is g.adjacency[v]

    @given(connected_graphs(min_n=3), st.data())
    @settings(max_examples=60)
    def test_cut_lifting(self, g, data):
        w = _ball(g, data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, 1)))
        if _has_parallel_boundary(g, w):
            # two edges from w to one outside vertex would become parallel
            with pytest.raises(ValueError, match="duplicates"):
                contract_subgraph(g, w, edge_boundary(g, w))
            return
        c = contract_subgraph(g, w, edge_boundary(g, w))
        # a side of the contraction off w's island lifts with no id mapping
        side = data.draw(st.sets(st.sampled_from(sorted(set(range(c.n)) - w))))
        lifted = (side - {g.n}) | (w if g.n in side else set())
        assert edge_boundary(g, lifted) == edge_boundary(c, side)


class TestVerifyCircuit:
    # verify_circuit is a bool; the reasons it reads are circuit_fault's
    def test_full_cycle_passes(self):
        g = cycle_graph(6)
        t = euler_circuit(g, range(6))
        assert verify_circuit(g, t, {0, 3}) is True

    def test_duplicate_edge_rejected(self):
        g = path_graph(3)
        t = Trail((0, 1, 0), (0, 0))
        assert verify_circuit(g, t, set()) is False
        assert circuit_fault(g.n, g.edges, t.vertices, t.edges, ()) == "duplicate edge in walk"

    def test_uncovered_edge_reported(self):
        g = bowtie()
        t = Trail((0, 1, 2, 0), (0, 2, 1))
        assert verify_circuit(g, t, {5}) is False
        fault = circuit_fault(g.n, g.edges, t.vertices, t.edges, {5})
        assert fault == "prescribed edges not covered: [5]"

    def test_vertex_out_of_range_rejected(self):
        g = cycle_graph(4)
        for v in (99, -1):
            assert verify_circuit(g, Trail((v,)), set()) is False
            assert circuit_fault(g.n, g.edges, (v,), (), ()) == f"vertex {v} out of range"

    def test_open_walk_rejected(self):
        g = path_graph(3)
        assert verify_circuit(g, Trail((0, 1), (0,)), set()) is False
        assert circuit_fault(g.n, g.edges, (0, 1), (0,), ()) == "walk is not closed"
