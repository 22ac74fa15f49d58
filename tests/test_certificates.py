"""The plain-data checker against the library's own object checks.

`certificates` shares no code with the finder; the second opinion here is
the library's: `validate_trail` plus closure and coverage for a circuit, and
`edge_boundary` plus parity, the stated claims and the size bound for a cut.
"""
from itertools import combinations

import pytest

from circuitcover.certificates import circuit_fault, cut_fault, ints, result_fault
from circuitcover.cuts import CutCertificate
from circuitcover.finder import find_circuit
from circuitcover.graphio import circuit_result, cut_result
from circuitcover.graphs import Trail, edge_boundary, validate_trail

from conftest import cycle_graph, sparse_random_graphs


def _library_accepts(g, data, s) -> bool:
    if data["status"] == "circuit":
        t = Trail(tuple(data["walk"]), tuple(data["edge_walk"]))
        try:
            validate_trail(g, t)
        except ValueError:
            return False
        return t.is_closed and set(s) <= set(t.edges)
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


def test_agrees_with_the_library_on_every_answer_and_its_corruptions():
    answers = rejected = 0
    for g in sparse_random_graphs():
        for k in (1, 2):
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
    assert (answers, rejected) == (16622, 4 * 16622)


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
