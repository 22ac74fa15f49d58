import hashlib
import json
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circuitcover import cuts
from circuitcover.cuts import (
    _gusfield,
    _odd_cut_below,
    brute_force_min_odd_cut,
    certify,
    edge_connectivity,
    min_odd_cut,
)
from circuitcover.errors import BadEdgeId, BadParam, CoherenceViolated, DisconnectedInput
from circuitcover.finder import _two_walks
from circuitcover.generators import double_clique, ladder, random_connected, two_cycles_bridge
from circuitcover.graphs import FlowNetwork, Graph, edge_boundary, is_connected
from circuitcover.jaeger import odd_cut_within

from conftest import (
    complete_graph,
    connected_atlas,
    connected_graphs,
    cycle_graph,
    triangles_with_bridge,
    under_python_optimize,
)


def _nx_graph(nx, g, edges=None):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((g.edges[e] for e in (range(g.m) if edges is None else edges)), capacity=1)
    return h


def _flow_value(g, s, t):
    """Max s-t flow by networkx, an implementation independent of the code under test."""
    nx = pytest.importorskip("networkx")
    return nx.maximum_flow_value(_nx_graph(nx, g), s, t)


def _check_flow(g, net, edges, supply, demand, value):
    """out holds a flow on `edges` that sends `value` units within the
    supply and demand bounds."""
    excess = [0] * g.n  # units sent minus units received
    for e, (u, v) in enumerate(g.edges):
        o = net.out[e]
        if e not in edges:
            assert o == -2
        elif o != -1:
            assert o in (u, v)
            excess[o] += 1
            excess[u + v - o] -= 1
    for v in range(g.n):
        assert -demand.get(v, 0) <= excess[v] <= supply.get(v, 0)
    assert sum(x for x in excess if x > 0) == value


def _full_search(net, sources, demand):
    """FlowNetwork._search as it ran before it ended one step short of the
    targets: a breadth-first search that returns when it discovers a vertex
    with demand left, after every vertex popped before."""
    adjacency, out = net.g.adjacency, net.out
    parent = [-1] * net.g.n
    for v in sources:
        parent[v] = -2
    targets = {v for v, units in demand.items() if units}
    end = next((v for v in sources if v in targets), None)
    queue = deque(sources)
    while end is None and queue:
        v = queue.popleft()
        for w, e in adjacency[v]:
            if parent[w] == -1:
                o = out[e]
                if o == -1 or o == w:
                    parent[w] = e
                    if w in targets:
                        return parent, w
                    queue.append(w)
    return parent, end


class _FullSearchNetwork(FlowNetwork):
    _search = _full_search


# supply and demand around the edge eid = xy and the vertices a, b
FLOW_SHAPES = {
    "splice": lambda x, y, a, b: ({x: 1, y: 1}, {a: 2}),
    "two targets": lambda x, y, a, b: ({x: 1, y: 1}, {a: 1, b: 1} if a != b else {a: 2}),
    "adjacent targets": lambda x, y, a, b: ({a: 2}, {x: 1, y: 1}),
    "source next to a target": lambda x, y, a, b: ({x: 1, a: 1}, {y: 1, b: 1}),
    "source is a target": lambda x, y, a, b: ({a: 1, x: 1}, {x: 1, y: 1}),
    "demand of zero": lambda x, y, a, b: ({a: 2}, {x: 0, y: 2, b: 0}),
}


class TestFlowNetwork:
    def test_supply_caps_the_flow(self):
        g = complete_graph(5)
        for units, want in ((1, 1), (2, 2), (4, 4), (9, 4)):
            net = FlowNetwork(g)
            assert net.max_flow({0: units}, {1: 9}) == want
            _check_flow(g, net, set(range(g.m)), {0: units}, {1: 9}, want)

    def test_edges_outside_the_set_carry_no_flow(self):
        g = cycle_graph(6)
        edges = {0, 1, 2, 3, 4}  # the path 0-1-2-3-4-5; edge 5 = (5, 0) is barred
        net = FlowNetwork(g, g.all_edges() - edges)
        assert net.max_flow({0: 2}, {3: 2}) == 1
        assert net.out[5] == -2
        assert net.source_side(0) == {0}  # the one path is saturated
        _check_flow(g, net, edges, {0: 2}, {3: 2}, 1)

    def test_two_units_into_one_vertex(self):
        # the splice's flow when s == t: C5 without the edge (0, 1), from
        # both of its ends into vertex 3
        g = cycle_graph(5)
        edges = set(range(1, g.m))
        net = FlowNetwork(g, {0})
        assert net.max_flow({0: 1, 1: 1}, {3: 2}) == 2
        _check_flow(g, net, edges, {0: 1, 1: 1}, {3: 2}, 2)

    def test_supply_at_a_demand_vertex_counts_at_once(self):
        g = cycle_graph(4)
        assert FlowNetwork(g).max_flow({2: 1}, {2: 1}) == 1
        net = FlowNetwork(g)
        assert net.max_flow({2: 1, 0: 1}, {2: 1, 1: 1}) == 2
        assert net.out.count(-1) == g.m - 1  # only 0 -> 1 carries a unit

    def test_a_demand_of_zero_units_is_no_target(self):
        # C4: vertex 1 lies on the way from 0 to 2 but asks for nothing
        g = cycle_graph(4)
        net = FlowNetwork(g)
        assert net.max_flow({0: 1}, {1: 0, 2: 1}) == 1
        _check_flow(g, net, set(range(g.m)), {0: 1}, {2: 1}, 1)
        net = FlowNetwork(g)
        assert net.max_flow({0: 1}, {0: 0, 1: 0}) == 0
        assert net.out == [-1] * g.m

    def test_a_source_stops_being_a_target_once_its_demand_is_met(self):
        # the first unit counts at 2 at once; the second must travel from 2
        # to 0, so exactly two edges carry it
        g = cycle_graph(4)
        net = FlowNetwork(g)
        assert net.max_flow({2: 2}, {2: 1, 0: 1}) == 2
        assert g.m - net.out.count(-1) == 2
        _check_flow(g, net, set(range(g.m)), {2: 1}, {0: 1}, 1)  # the unit that moved

    @given(connected_graphs(max_n=8, max_extra=12), st.data())
    @settings(max_examples=150)
    def test_barring_edges_equals_deleting_them(self, g, data):
        # the splice's flow: from the ends x, y of an edge eid that is barred
        # too, to s and t, against the same flow on g with the barred edges
        # deleted and the rest renumbered in order
        barred = data.draw(st.sets(st.integers(0, g.m - 1)))
        eid = data.draw(st.integers(0, g.m - 1))
        x, y = g.endpoints(eid)
        s, t = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
        demand = {s: 2} if s == t else {s: 1, t: 1}
        rest = [e for e in range(g.m) if e not in barred and e != eid]
        net = FlowNetwork(g, barred | {eid})
        ref = FlowNetwork(Graph(g.n, tuple(g.edges[e] for e in rest)))
        value = net.max_flow({x: 1, y: 1}, demand)
        assert value == ref.max_flow({x: 1, y: 1}, demand)
        assert [net.out[e] for e in rest] == ref.out
        assert all(net.out[e] == -2 for e in barred | {eid})
        if value == 2:
            walks = _two_walks(net, (x, y), (s, t))
            for walk, want in zip(walks, _two_walks(ref, (x, y), (s, t))):
                assert walk.vertices == want.vertices
                assert walk.edges == tuple(rest[e] for e in want.edges)

    @given(connected_graphs(max_n=8, max_extra=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_max_flow_matches_the_full_search(self, g, data):
        # every flow, and so every walk, equals the one a search that floods
        # the whole last level would give
        vertex = st.integers(0, g.n - 1)
        barred = data.draw(st.sets(st.integers(0, g.m - 1)))
        eid = data.draw(st.integers(0, g.m - 1))
        x, y = g.endpoints(eid)
        shape = data.draw(st.sampled_from([*FLOW_SHAPES, "any"]))
        if shape == "any":
            units = st.dictionaries(vertex, st.integers(0, 3), max_size=3)
            supply, demand = data.draw(units), data.draw(units)
        else:
            supply, demand = FLOW_SHAPES[shape](x, y, data.draw(vertex), data.draw(vertex))
            # the splice bars the edge it routes through; the others need it
            barred = barred | {eid} if shape in ("splice", "two targets") else barred - {eid}
        net, ref = FlowNetwork(g, barred), _FullSearchNetwork(g, barred)
        value = net.max_flow(supply, demand)
        assert value == ref.max_flow(supply, demand)
        assert net.out == ref.out, shape
        if shape in ("splice", "two targets") and value == 2:
            ends = (*demand, *demand)[:2]
            assert _two_walks(net, (x, y), ends) == _two_walks(ref, (x, y), ends)

    @pytest.mark.parametrize("eid", [-1, 3])
    def test_rejects_an_edge_id_out_of_range_from_a_generator(self, eid):
        with pytest.raises(BadEdgeId):
            FlowNetwork(cycle_graph(3), (e for e in [0, eid, 1]))

    GRAPHS = [random_connected(n, 3 * n, 1, seed=n).graph for n in range(8, 60, 4)]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}")
    def test_against_networkx(self, g):
        nx = pytest.importorskip("networkx")
        rng = random.Random(g.n)
        for trial in range(12):
            # the whole graph, then restricted edge sets
            edges = set(range(g.m)) if trial == 0 else set(rng.sample(range(g.m), 2 * g.m // 3))
            s, t = rng.sample(range(g.n), 2)
            want = nx.maximum_flow_value(_nx_graph(nx, g, edges), s, t)
            net = FlowNetwork(g, g.all_edges() - edges)
            value = net.max_flow({s: g.m}, {t: g.m})
            assert value == want
            _check_flow(g, net, edges, {s: g.m}, {t: g.m}, value)
            side = net.source_side(s)
            assert s in side and t not in side
            assert len(edge_boundary(g, side) & edges) == value
            # two sources and two sinks: a super source and sink for networkx
            s1, s2, t1, t2 = rng.sample(range(g.n), 4)
            supply = {s1: rng.randint(1, 4), s2: rng.randint(1, 4)}
            demand = {t1: rng.randint(1, 4), t2: rng.randint(1, 4)}
            h = _nx_graph(nx, g, edges).to_directed()
            h.add_edges_from(("S", v, {"capacity": k}) for v, k in supply.items())
            h.add_edges_from((v, "T", {"capacity": k}) for v, k in demand.items())
            net = FlowNetwork(g, g.all_edges() - edges)
            value = net.max_flow(supply, demand)
            assert value == nx.maximum_flow_value(h, "S", "T")
            _check_flow(g, net, edges, supply, demand, value)

    # the Gomory-Hu tree's pair flow: max_flow({s: units}, {t: units}) capped at the bound
    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}")
    def test_pair_flow_against_networkx_and_max_flow(self, g):
        nx = pytest.importorskip("networkx")
        rng = random.Random(g.n)
        for trial in range(12):
            edges = set(range(g.m)) if trial == 0 else set(rng.sample(range(g.m), 2 * g.m // 3))
            s, t = rng.sample(range(g.n), 2)
            want = nx.maximum_flow_value(_nx_graph(nx, g, edges), s, t)
            uncapped = FlowNetwork(g, g.all_edges() - edges)
            uncapped.max_flow({s: g.m}, {t: g.m})
            for units in (1, 2, 3, g.m):
                net = FlowNetwork(g, g.all_edges() - edges)
                value = net.max_flow({s: units}, {t: units})
                assert value == min(units, want)
                _check_flow(g, net, edges, {s: units}, {t: units}, value)
                # below the cap the flow is maximum, and a maximum flow's
                # residual reach does not depend on its paths
                if value < units:
                    assert net.source_side(s) == uncapped.source_side(s)

    @pytest.mark.parametrize("eid", [-1, 3, 99])
    def test_rejects_an_edge_id_out_of_range(self, eid):
        with pytest.raises(BadEdgeId):
            FlowNetwork(cycle_graph(3), [0, eid])

    @pytest.mark.parametrize(
        "call",
        [
            lambda net: net.max_flow({9: 1}, {0: 1}),
            lambda net: net.max_flow({0: 1}, {-1: 1}),
            lambda net: net.source_side(9),
        ],
        ids=["supply", "demand", "source-side"],
    )
    def test_rejects_a_vertex_out_of_range(self, call):
        net = FlowNetwork(cycle_graph(3))
        with pytest.raises(BadParam):
            call(net)
        assert net.out == [-1] * 3  # nothing was sent


def _subtree(parent, v):
    """Vertices on v's side of the tree edge (v, parent[v])."""
    out = [v]
    for u in out:
        out.extend(w for w, p in enumerate(parent) if p == u)
    return frozenset(out)


def _path_min(parent, capacity, s, t):
    """The smallest capacity on the tree path between s and t."""

    def ancestors(v):
        out = [v]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    a, b = ancestors(s), ancestors(t)
    common = set(a) & set(b)
    # each vertex below the meeting point stands for its edge to its parent
    return min(capacity[v] for v in a + b if v not in common)


class TestGomoryHu:
    """The full, exact tree: no cut reaches n, so no flow stops at g.n."""

    @given(connected_graphs(min_n=3))
    @settings(max_examples=40, deadline=None)
    def test_tree_answers_all_pairs(self, g):
        parent, capacity = _gusfield(g, g.n)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                assert _path_min(parent, capacity, s, t) == _flow_value(g, s, t)

    @given(connected_graphs(min_n=3))
    @settings(max_examples=40, deadline=None)
    def test_fundamental_partitions_are_min_cuts(self, g):
        parent, capacity = _gusfield(g, g.n)
        for v in range(g.n):
            if parent[v] == -1:
                continue
            side = _subtree(parent, v)
            assert len(edge_boundary(g, side)) == capacity[v]


def _two_k6(joins=3):
    """Two K6's joined by the edges (i, 6 + i) for i < joins: degree 5 away
    from the joins, so with 3 joins the smallest odd degree and the minimum
    degree are 5, and the 3-edge cut between the halves lies below both."""
    k6 = list(combinations(range(6), 2))
    edges = k6 + [(u + 6, v + 6) for u, v in k6] + [(i, 6 + i) for i in range(joins)]
    return Graph.from_edges(12, edges)


class TestGusfieldSelfCheck:
    # the halves of _two_k6() are 5-edge-connected and 3 edges apart, so
    # the tree's flow across them stops below the bound for all three tools
    @staticmethod
    def _one_unit_short(monkeypatch):
        max_flow = FlowNetwork.max_flow
        ran = []

        def short(net, supply, demand):
            ran.append((supply, demand))
            return max_flow(net, supply, demand) - 1

        monkeypatch.setattr(FlowNetwork, "max_flow", short)
        return ran

    def test_wrong_flow_value_is_caught(self, monkeypatch):
        ran = self._one_unit_short(monkeypatch)
        g = _two_k6()
        for tool in (lambda g: _gusfield(g, g.n), min_odd_cut, edge_connectivity):
            ran.clear()
            with pytest.raises(CoherenceViolated, match="not a maximum flow"):
                tool(g)
            assert ran, "a flow must run for the check to be tested"

    def test_caught_under_python_optimize(self):
        script = (
            "from itertools import combinations\n"
            "from circuitcover.cuts import min_odd_cut\n"
            "from circuitcover.errors import CoherenceViolated\n"
            "from circuitcover.graphs import FlowNetwork, Graph\n"
            "k6 = list(combinations(range(6), 2))\n"
            "g = Graph.from_edges(12, k6 + [(u + 6, v + 6) for u, v in k6] + [(0, 6), (1, 7), (2, 8)])\n"
            "max_flow, ran = FlowNetwork.max_flow, []\n"
            "def short(net, supply, demand):\n"
            "    ran.append((supply, demand))\n"
            "    return max_flow(net, supply, demand) - 1\n"
            "FlowNetwork.max_flow = short\n"
            "try:\n"
            "    min_odd_cut(g)\n"
            "except CoherenceViolated as exc:\n"
            "    print(exc)\n"
            "print('flows', len(ran))\n"
        )
        caught, flows = under_python_optimize(script).splitlines()
        assert "not a maximum flow" in caught and flows != "flows 0"


def _runs_one_short(g, root, _real=cuts.bridge_runs):
    """bridge_runs with each bridge's far side one vertex short."""
    order, runs = _real(g, root)
    return order, {e: (lo + 1, hi) for e, (lo, hi) in runs.items()}


class TestBridgeSelfCheck:
    # two triangles joined by a bridge: the smallest odd degree is 3, so
    # min_odd_cut takes the bridge path; each side loses its first vertex
    def test_wrong_bridge_side_is_caught(self, monkeypatch):
        monkeypatch.setattr(cuts, "bridge_runs", _runs_one_short)
        with pytest.raises(CoherenceViolated, match="not an odd cut"):
            min_odd_cut(two_cycles_bridge(3, 3).graph)

    def test_caught_under_python_optimize(self):
        script = (
            "from circuitcover import cuts\n"
            "from circuitcover.errors import CoherenceViolated\n"
            "from circuitcover.generators import two_cycles_bridge\n"
            "runs = cuts.bridge_runs\n"
            "def one_short(g, root):\n"
            "    order, found = runs(g, root)\n"
            "    return order, {e: (lo + 1, hi) for e, (lo, hi) in found.items()}\n"
            "cuts.bridge_runs = one_short\n"
            "try:\n"
            "    cuts.min_odd_cut(two_cycles_bridge(3, 3).graph)\n"
            "except CoherenceViolated as exc:\n"
            "    print(exc)\n"
        )
        assert "not an odd cut" in under_python_optimize(script)


class TestMinOddCut:
    def test_even_cycle_has_none(self):
        assert min_odd_cut(cycle_graph(6)) is None

    def test_bridge_between_triangles(self):
        cert = min_odd_cut(triangles_with_bridge())
        assert cert.size == 1 and cert.boundary == frozenset({6})

    def test_ladder_four_rungs(self):
        cert = min_odd_cut(ladder(4).graph)
        assert cert.size == 3 and cert.odd

    def test_prism(self):
        assert min_odd_cut(double_clique(3).graph).size == 3

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedInput):
            min_odd_cut(g)

    def test_absent_iff_all_degrees_even(self):
        for g in (cycle_graph(5), complete_graph(5), complete_graph(4)):
            expect_none = all(g.degree(v) % 2 == 0 for v in range(g.n))
            assert (min_odd_cut(g) is None) == expect_none

    def test_only_vertex_zero_at_smallest_odd_degree(self):
        # vertex 0 is the one vertex of degree 1, so the side is V minus 0
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        cert = min_odd_cut(g)
        assert cert.size == 1 and cert.side == frozenset({1, 2, 3})

    def test_smallest_odd_vertex_at_smallest_odd_degree(self):
        # K4: no cut is below the degree 3, so the side is the vertex 1
        assert min_odd_cut(complete_graph(4)).side == frozenset({1})

    @given(connected_graphs(min_n=3))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_brute_force(self, g):
        fast = min_odd_cut(g)
        brute = brute_force_min_odd_cut(g)
        if brute is None:
            assert fast is None
        else:
            assert fast is not None and fast.size == brute.size
            assert fast.is_valid_for(g) and fast.odd
            assert brute.is_valid_for(g) and brute.odd


@st.composite
def disconnected_graphs_of_odd_degree_five_or_more(draw):
    """Two or three components, each a K_c (6 <= c <= 8) less some edges of
    a matching, with shuffled vertex numbers: every odd degree is 5 or 7."""
    sizes = draw(st.lists(st.integers(6, 8), min_size=2, max_size=3))
    perm = draw(st.permutations(range(sum(sizes))))
    edges, base = [], 0
    for c in sizes:
        block = range(base, base + c)
        matching = [(u, u + 1) for u in block[:-1:2]]
        dropped = set(draw(st.lists(st.sampled_from(matching), unique=True)))
        edges += [(perm[u], perm[v]) for u, v in combinations(block, 2) if (u, v) not in dropped]
        base += c
    g = Graph.from_edges(len(perm), edges)
    assume(any(g.degree(v) % 2 for v in range(g.n)))
    return g


def _two_k6_apart():
    """Two disjoint K6's, one on the even vertices and one on the odd, so the
    second starts at vertex 1."""
    return Graph.from_edges(12, [(2 * u + b, 2 * v + b) for b in (0, 1) for u, v in combinations(range(6), 2)])


class TestConnectivityFromTheClassStep:
    """With smallest odd degree d >= 5 the class step's first phase says
    whether g is connected; is_connected runs only with no odd degree or
    d = 1."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("is_connected must not run")

    @pytest.mark.parametrize("g", [_two_k6(0), _two_k6_apart()], ids=["blocks", "alternating"])
    def test_two_disjoint_k6(self, monkeypatch, g):
        monkeypatch.setattr(cuts, "is_connected", self._refuse)
        with pytest.raises(DisconnectedInput, match="requires a connected graph"):
            min_odd_cut(g)

    @given(disconnected_graphs_of_odd_degree_five_or_more())
    @settings(max_examples=60, deadline=None)
    def test_disconnected_with_odd_degree_five_or_more(self, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cuts, "is_connected", self._refuse)
            with pytest.raises(DisconnectedInput):
                min_odd_cut(g)

    def test_connected_with_odd_degree_five_or_more(self, monkeypatch):
        graphs = [complete_graph(6), complete_graph(8), _two_k6(), _two_k6(5)]
        expected = [brute_force_min_odd_cut(g) for g in graphs]
        monkeypatch.setattr(cuts, "is_connected", self._refuse)
        for g, brute in zip(graphs, expected):
            cert = min_odd_cut(g)
            assert cert.size == brute.size and cert.is_valid_for(g) and cert.odd

    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(8, [(b + i, b + (i + 1) % 4) for b in (0, 4) for i in range(4)]),
            Graph.from_edges(10, [*combinations(range(5), 2), *combinations(range(5, 10), 2)]),
            Graph.from_edges(8, list(combinations(range(6), 2)) + [(6, 7)]),
            Graph.from_edges(4, [(0, 1), (2, 3)]),
        ],
        ids=["two-c4", "two-k5", "k6-and-k2", "two-k2"],
    )
    def test_no_odd_degree_or_d_one_goes_through_is_connected(self, monkeypatch, g):
        ran = []

        def counted(h):
            ran.append(h)
            return is_connected(h)

        monkeypatch.setattr(cuts, "is_connected", counted)
        with pytest.raises(DisconnectedInput):
            min_odd_cut(g)
        assert ran == [g]


class TestBruteForce:
    def test_k4(self):
        assert brute_force_min_odd_cut(complete_graph(4)).size == 3

    def test_single_edge(self):
        cert = brute_force_min_odd_cut(Graph.from_edges(2, [(0, 1)]))
        assert cert.size == 1

    def test_deterministic_tie_break(self):
        cert = brute_force_min_odd_cut(complete_graph(4))
        assert sorted(cert.side) == [1]  # smallest lexicographic non-root side


class TestHasOddCutLeq:
    """Is there an odd cut of size at most k?  The bounded tree answers it:
    _odd_cut_below(g, k + 1) is the minimum odd cut when it is at most k."""

    def test_ladder_thresholds(self):
        g = ladder(4).graph
        assert _odd_cut_below(g, 4).size == 3
        assert _odd_cut_below(g, 3) is None

    def test_even_graph_always_none(self):
        assert _odd_cut_below(cycle_graph(6), 101) is None


class TestOddCutWithin:
    def test_star_of_k4(self):
        g = complete_graph(4)
        star = frozenset(eid for _, eid in g.adjacency[3])
        cert = odd_cut_within(g, star)
        assert cert is not None and cert.boundary == star

    def test_three_ladder_rungs_contain_no_cut(self):
        g = ladder(4).graph
        assert odd_cut_within(g, {0, 1, 2}) is None

    def test_empty_set(self):
        assert odd_cut_within(cycle_graph(4), set()) is None

    @given(connected_graphs(), st.data())
    @settings(max_examples=60)
    def test_certificate_lies_inside_s(self, g, data):
        s = data.draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
        cert = odd_cut_within(g, s)
        if cert is not None:
            assert cert.boundary <= frozenset(s)
            assert cert.odd and cert.is_valid_for(g)


class TestEdgeConnectivity:
    def test_values(self):
        assert edge_connectivity(cycle_graph(5)) == 2
        assert edge_connectivity(complete_graph(4)) == 3
        assert edge_connectivity(two_cycles_bridge(3, 3).graph) == 1
        assert edge_connectivity(ladder(4).graph) == 2
        assert edge_connectivity(double_clique(3).graph) == 3


class TestCertificateJson:
    def test_round_trip_shape(self):
        cert = min_odd_cut(ladder(4).graph)
        data = json.loads(json.dumps(cert.to_json()))
        assert set(data) == {"side", "boundary", "size", "odd"}
        assert data["odd"] is True and data["size"] == len(data["boundary"])


def _nx_tree_and_min_odd_cut(nx, g):
    """networkx's Gomory-Hu tree and the minimum odd cut size its parity scan finds."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges, capacity=1)
    tree = nx.gomory_hu_tree(h)
    parent = dict(nx.bfs_predecessors(tree, 0))
    odd = {v: g.degree(v) % 2 for v in range(g.n)}
    for v in reversed(list(nx.bfs_tree(tree, 0))[1:]):
        odd[parent[v]] += odd[v]
    size = min(tree[v][parent[v]]["weight"] for v in parent if odd[v] % 2 == 1)
    return tree, size


class TestAgainstNetworkx:
    """Differential test against an independent Gomory-Hu implementation."""

    GRAPHS = [
        random_connected(n, 4 * n, 1, seed=n).graph
        for n in (20 + 100 * i // 29 for i in range(30))
    ]

    def test_corpus_has_odd_vertices(self):
        assert [g.n for g in self.GRAPHS][::29] == [20, 120]
        assert all(any(g.degree(v) % 2 for v in range(g.n)) for g in self.GRAPHS)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}")
    def test_cut_values_agree(self, g):
        nx = pytest.importorskip("networkx")
        nx_tree, nx_size = _nx_tree_and_min_odd_cut(nx, g)
        assert min_odd_cut(g).size == nx_size
        parent, capacity = _gusfield(g, g.n)
        rng = random.Random(g.n)
        for _ in range(10):
            s, t = rng.sample(range(g.n), 2)
            path = nx.shortest_path(nx_tree, s, t)
            want = min(nx_tree[a][b]["weight"] for a, b in zip(path, path[1:]))
            assert _path_min(parent, capacity, s, t) == want
        assert edge_connectivity(g) == min(_flow_value(g, 0, v) for v in range(1, g.n))


def _full_tree_min_odd_cut_size(g):
    """The parity scan over the full, exact Gomory-Hu tree."""
    parent, capacity = _gusfield(g, g.n)
    return min(
        capacity[v]
        for v in range(1, g.n)
        if sum(g.degree(u) % 2 for u in _subtree(parent, v)) % 2 == 1
    )


def _smallest_odd_degree(g):
    return min(g.degree(v) for v in range(g.n) if g.degree(v) % 2 == 1)


def _blocks_graph(rng):
    """2-4 dense blocks of 2-5 vertices, consecutive blocks joined by 0-3
    edges; at most 16 vertices, for the brute force."""
    while True:
        blocks, edges = [], set()
        for _ in range(rng.randint(2, 4)):
            start = blocks[-1].stop if blocks else 0
            block = range(start, start + rng.randint(2, 5))
            edges.update(e for e in combinations(block, 2) if rng.random() < 0.8)
            blocks.append(block)
        for a, b in zip(blocks, blocks[1:]):
            edges.update((rng.choice(a), rng.choice(b)) for _ in range(rng.randint(0, 3)))
        g = Graph.from_edges(blocks[-1].stop, sorted(edges))
        if g.n <= 16 and is_connected(g) and any(g.degree(v) % 2 for v in range(g.n)):
            return g


def _two_halves(n, rng):
    """Two random halves of minimum degree 5 joined by 3 edges, so the
    minimum odd cut (3) is below every odd degree."""
    h = n // 2
    edges = []
    for base in (0, h):
        adj = [set() for _ in range(h)]
        for u, v in random_connected(h, 4 * h, 1, seed=rng.randrange(1 << 30)).graph.edges:
            adj[u].add(v)
            adj[v].add(u)
        for u in range(h):
            while len(adj[u]) < 5:
                v = rng.randrange(h)
                if v != u:
                    adj[u].add(v)
                    adj[v].add(u)
        edges += [(base + u, base + v) for u in range(h) for v in adj[u] if u < v]
    edges += zip(rng.sample(range(h), 3), rng.sample(range(h, 2 * h), 3))
    return Graph.from_edges(2 * h, edges)


_rng = random.Random(2024)
BLOCK_GRAPHS = [_blocks_graph(_rng) for _ in range(300)]
HALVES_GRAPHS = [_two_halves(n, _rng) for n in range(40, 121, 10)]


class TestBelowSmallestOddDegree:
    """Minimum odd cuts smaller than every odd degree, where the bounded
    Gomory-Hu flows must not stop too early."""

    def test_blocks_agree_with_brute_force(self):
        below = 0
        for g in BLOCK_GRAPHS:
            cert, brute = min_odd_cut(g), brute_force_min_odd_cut(g)
            assert cert.size == brute.size and cert.odd and cert.is_valid_for(g)
            assert 0 not in cert.side
            below += brute.size < _smallest_odd_degree(g)
        assert below >= 30, "the corpus must reach below the smallest odd degree"

    @pytest.mark.parametrize("g", HALVES_GRAPHS, ids=lambda g: f"n{g.n}")
    def test_two_halves_agree_with_networkx(self, g):
        nx = pytest.importorskip("networkx")
        cert = min_odd_cut(g)
        assert cert.size == _nx_tree_and_min_odd_cut(nx, g)[1] == 3
        assert cert.size < _smallest_odd_degree(g) and cert.is_valid_for(g)

    @pytest.mark.parametrize(
        "graphs", [BLOCK_GRAPHS[:100], HALVES_GRAPHS], ids=["blocks", "halves"]
    )
    def test_bounded_answers_match_the_full_tree(self, graphs):
        for g in graphs:
            full = _full_tree_min_odd_cut_size(g)
            assert min_odd_cut(g).size == full
            # every bound, not only the d - 1 that min_odd_cut passes
            for bound in range(_smallest_odd_degree(g) + 3):
                cert = _odd_cut_below(g, bound)
                assert (cert is None) == (full >= bound)
                if cert is not None:
                    assert cert.size == full and cert.odd and cert.is_valid_for(g)
            assert edge_connectivity(g) == min(_gusfield(g, g.n)[1][1:])


def _tree_odd_cut_below(g, bound):
    """The parity scan over the Gusfield tree whose flows stop at bound, as
    _odd_cut_below ran it for every bound before cuts below 2 were bridges."""
    parent, capacity = _gusfield(g, bound)
    scan = [(capacity[v], sorted(_subtree(parent, v))) for v in range(1, g.n) if capacity[v] < bound]
    t_odd = [(c, side) for c, side in scan if sum(g.degree(u) % 2 for u in side) % 2 == 1]
    if not t_odd:
        return None
    size, side = min(t_odd)
    cert = certify(g, side)
    assert cert.size == size
    return cert


class TestBridgePath:
    """Cuts below 2 are bridges, found by one lowlink DFS and no tree."""

    def test_odd_cut_matches_the_bound_two_tree(self):
        bridged = 0
        for g in BLOCK_GRAPHS + HALVES_GRAPHS:
            cert = _odd_cut_below(g, 2)
            assert cert == _tree_odd_cut_below(g, 2)
            bridged += cert is not None
        assert bridged >= 200, "the corpus must have bridges"

    def test_atlas_agrees_with_brute_force(self):
        atlas = connected_atlas()
        bound_two = bridged = 0
        for g in atlas:
            cert, brute = min_odd_cut(g), brute_force_min_odd_cut(g)
            assert (cert is None) == (brute is None)
            if cert is None:
                continue
            assert cert.size == brute.size and cert.odd and cert.is_valid_for(g)
            if _smallest_odd_degree(g) == 3:
                bound_two += 1
                if cert.size == 1:
                    assert cert.side == brute.side
                    bridged += 1
        assert bound_two >= 480 and bridged >= 6, (bound_two, bridged)


def _flow_only_gusfield(g, bound):
    """_gusfield as it ran before the class step: a flow for every pair."""
    parent = [0] * g.n
    parent[0] = -1
    capacity = [0] * g.n
    for s in range(1, g.n):
        t = parent[s]
        net = FlowNetwork(g)
        value = net.max_flow({s: bound}, {t: bound})
        if value >= bound:
            capacity[s] = bound
            continue
        capacity[s] = value
        side = net.source_side(s)
        assert t not in side and len(edge_boundary(g, side)) == value
        for i in side:
            if i != s and parent[i] == t:
                parent[i] = s
        if parent[t] in side:
            parent[s], parent[t] = parent[t], s
            capacity[s], capacity[t] = capacity[t], value
    assert parent[0] == -1
    return parent, capacity


class TestBoundClasses:
    """The class step: pairs a maximum-adjacency ordering certifies to be at
    least bound-edge-connected take the tree's "reached the bound" branch
    without a flow, and the tree is the one every flow would give."""

    @staticmethod
    def _skipped(monkeypatch, cases):
        """Assert the tree equals the flow-only one in every (g, bound) case;
        return how many of the cases' pairs ran no flow."""
        max_flow = FlowNetwork.max_flow
        ran = []

        def counted(net, supply, demand):
            ran.append(supply)
            return max_flow(net, supply, demand)

        monkeypatch.setattr(FlowNetwork, "max_flow", counted)
        skipped = 0
        for g, bound in cases:
            ran.clear()
            tree = _gusfield(g, bound)
            flows = len(ran)
            skipped += g.n - 1 - flows
            assert tree == _flow_only_gusfield(g, bound), (g, bound)
            # the flow-only tree runs a flow per pair, through the counter
            assert len(ran) == flows + g.n - 1, "the counted max_flow must be the one that runs"
        return skipped

    def test_tree_matches_the_flow_only_tree_on_the_atlas(self, monkeypatch):
        cases = [(g, bound) for g in connected_atlas() for bound in range(2, g.n + 1)]
        assert len(cases) == 5785
        skipped = self._skipped(monkeypatch, cases)
        assert skipped >= 8000, skipped  # of 33,907 pairs

    def test_tree_matches_the_flow_only_tree_below_both_bounds(self, monkeypatch):
        # the bounds min_odd_cut and edge_connectivity pass: d - 1 and the
        # minimum degree
        cases = [
            (g, bound)
            for g in BLOCK_GRAPHS + HALVES_GRAPHS
            for bound in (_smallest_odd_degree(g) - 1, min(g.degree(v) for v in range(g.n)))
        ]
        skipped = self._skipped(monkeypatch, cases)
        assert skipped >= 6500, skipped  # of 6,784 pairs

    @given(connected_graphs(max_n=9, max_extra=20), st.data())
    @settings(max_examples=120, deadline=None)
    def test_one_class_is_bound_connected(self, g, data):
        k = data.draw(st.integers(1, g.n))
        label = cuts._bound_classes(g, k)
        for s, t in combinations(range(g.n), 2):
            if label[s] == label[t]:
                assert _flow_value(g, s, t) >= k, (s, t, k)
        # a phase that merges nothing has two classes below k apart
        if all(_flow_value(g, 0, v) >= k for v in range(1, g.n)):
            assert len(set(label)) == 1

    def test_edge_connectivity_at_the_minimum_degree_runs_no_flow(self, monkeypatch):
        max_flow = FlowNetwork.max_flow
        ran = []

        def counted(net, supply, demand):
            ran.append(supply)
            return max_flow(net, supply, demand)

        monkeypatch.setattr(FlowNetwork, "max_flow", counted)
        for g in (complete_graph(7), double_clique(5).graph, _two_k6(6)):
            assert edge_connectivity(g) == min(g.degree(v) for v in range(g.n))
        assert ran == []
        # below the minimum degree a flow runs, through the counter
        assert edge_connectivity(_two_k6()) == 3 and ran


class TestPinnedCutAnswers:
    # SHA-256 over every answer of the cut tools on the corpus below, as they
    # gave them when each flow ran on a network of arc pairs
    PINNED = "3ab6762787d117fb471b515874543286dded8ef4d0531f2b75a2b029cd0ea0ec"

    @staticmethod
    def _corpus():
        # seeded connected graphs with 2n to 4n edges, each alone and joined
        # to the next by 1-3 edges, which make odd cuts below the smallest
        # odd degree
        rng = random.Random(23)

        def graph():
            n = rng.randint(2, 30)
            top = n * (n - 1) // 2
            m = rng.randint(min(2 * n, top), min(4 * n, top))
            return random_connected(n, m, 1, seed=rng.randrange(1 << 30)).graph

        for _ in range(60):
            a, b = graph(), graph()
            joins = {(rng.randrange(a.n), a.n + rng.randrange(b.n)) for _ in range(rng.randint(1, 3))}
            shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
            yield a
            yield Graph.from_edges(a.n + b.n, a.edges + shifted + tuple(sorted(joins)))

    def test_answers_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        below = 0
        for g in self._corpus():
            cert = min_odd_cut(g)
            parent, capacity = _gusfield(g, g.n)
            cut = None if cert is None else (sorted(cert.side), sorted(cert.boundary), cert.size)
            key = (cut, tuple(parent), tuple(capacity), edge_connectivity(g))
            digest.update(repr(key).encode())
            below += cert is not None and cert.size < _smallest_odd_degree(g)
        assert below >= 20, "the corpus must reach below the smallest odd degree"
        assert digest.hexdigest() == self.PINNED
