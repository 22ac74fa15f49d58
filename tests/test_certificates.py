"""The plain-data checker against a second opinion.

The finder checks its own trails with `certificates`, so the second opinion
on a circuit is written here and shares no code with it: each step's two
vertices are its edge's two ends, the edges are distinct ids in range, and
the walk is closed and covers S.  On a cut it is the library's
`edge_boundary` plus parity, the stated claims and the size bound.
"""
from itertools import combinations

import pytest

from circuitcover.certificates import circuit_fault, cut_fault, ints, result_fault
from circuitcover.cuts import CutCertificate
from circuitcover.finder import find_circuit
from circuitcover.graphio import circuit_result, cut_result
from circuitcover.graphs import edge_boundary

from conftest import atlas_slice, cycle_graph, sparse_random_graphs


def _library_accepts(g, data, s) -> bool:
    if data["status"] == "circuit":
        walk, edge_walk = data["walk"], data["edge_walk"]
        return (
            len(walk) == len(edge_walk) + 1
            and len(set(edge_walk)) == len(edge_walk)
            and all(0 <= e < g.m for e in edge_walk)
            and all({walk[i], walk[i + 1]} == set(g.edges[e]) for i, e in enumerate(edge_walk))
            and 0 <= walk[0] < g.n
            and walk[0] == walk[-1]
            and set(s) <= set(edge_walk)
        )
    side, boundary = frozenset(data["side"]), frozenset(data["boundary"])
    try:
        recomputed = edge_boundary(g, side)
    except ValueError:
        return False
    return (
        0 < len(side) < g.n
        and recomputed == boundary
        and len(boundary) % 2 == 1
        and data["odd"] is True
        and data["size"] == len(boundary)
        and len(boundary) <= len(s)
    )


def _corrupted(g, data):
    """Copies of a result, each with one fault a careless producer might make."""
    if data["status"] == "circuit":
        walk, edge_walk = data["walk"], data["edge_walk"]
        yield {**data, "walk": walk[:-1], "edge_walk": edge_walk[:-1]}  # drop the last step
        yield {**data, "walk": walk + [walk[1]], "edge_walk": edge_walk + [edge_walk[0]]}
        for wrong in ((edge_walk[-1] + 1) % g.m, g.m):  # a wrong edge id
            yield {**data, "edge_walk": edge_walk[:-1] + [wrong]}
    else:
        side = set(data["side"])
        moved = min(side)
        outside = min(set(range(g.n)) - side)
        yield {**data, "side": sorted(side - {moved} | {outside})}  # move a side vertex
        yield {**data, "side": sorted(side | {outside})}  # grow the side
        yield {**data, "size": data["size"] + 1}  # flip the claims
        yield {**data, "odd": not data["odd"]}


def _agreements(graphs, sizes) -> tuple[int, int]:
    """Answers and rejected corruptions over every set of the given sizes;
    asserts that the two checks agree on each."""
    answers = rejected = 0
    for g in graphs:
        for k in sizes:
            for s in combinations(range(g.m), k):
                out = find_circuit(g, s)
                data = cut_result(out) if isinstance(out, CutCertificate) else circuit_result(out)
                assert result_fault(g.n, g.edges, data, s) == "", (g, s)
                assert _library_accepts(g, data, s), (g, s)
                answers += 1
                for bad in _corrupted(g, data):
                    fault = result_fault(g.n, g.edges, bad, s)
                    assert (not fault) == _library_accepts(g, bad, s), (g, s, bad, fault)
                    rejected += bool(fault)
    return answers, rejected


def test_agrees_with_the_library_on_every_answer_and_its_corruptions():
    assert _agreements(sparse_random_graphs(), (1, 2)) == (16622, 4 * 16622)


def test_agrees_on_the_atlas_slice():
    assert _agreements(atlas_slice(), (1, 2, 3)) == (9235, 4 * 9235)


class TestShapes:
    def test_ints_takes_only_a_list_of_integers(self):
        assert ints({"side": [0, 2]}, "side") == (0, 2)
        for value in (None, 5, [0, "1"], [True], {"0": 1}):
            with pytest.raises(ValueError, match="'side' must be a list of integers"):
                ints({"side": value}, "side")

    def test_walk_and_edges_of_different_lengths(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="one more vertex than edges"):
            circuit_fault(g.n, g.edges, [0, 1], [0, 1], ())
        with pytest.raises(ValueError, match="one more vertex than edges"):
            result_fault(g.n, g.edges, {"status": "circuit", "walk": [], "edge_walk": []}, None)

    @pytest.mark.parametrize("size, odd", [("1", True), (1, 1), (None, None)])
    def test_cut_claims_of_the_wrong_type(self, size, odd):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="'size' and 'odd'"):
            cut_fault(g.n, g.edges, [0], [0, 3], size, odd, None)

    def test_status_must_name_an_answer(self):
        with pytest.raises(ValueError, match="nothing to verify"):
            result_fault(3, ((0, 1), (1, 2), (0, 2)), {"status": "infeasible"}, None)
