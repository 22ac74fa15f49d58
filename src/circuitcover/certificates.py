"""The rules for a valid answer, checked on plain data.

An answer is a certificate: a closed trail through every prescribed edge, or
an odd cut of at most |S| edges.  Each check takes the graph as n and its
edge list and the answer as a result's fields, and says why the answer
certifies nothing, or "" when it holds; it raises ValueError only for a
field of the wrong shape.  The module imports nothing from the package, so
`verify`, `find --certify` and `graphs.verify_circuit` share no code with
the construction they check.  The finder calls it in turn: each trail it
builds passes `trail_fault` or `circuit_fault` before it is used, and a
fault there is the finder's own.
"""
from __future__ import annotations

from typing import Collection, Iterable


def ints(data: dict, key: str) -> tuple[int, ...]:
    """A result field that must hold a list of integers; ValueError otherwise."""
    value = data.get(key)
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"result field {key!r} must be a list of integers")
    return tuple(value)


def trail_fault(n: int, edges, walk, edge_walk) -> str:
    """Why walk/edge_walk is no trail of the graph, open or closed."""
    if len(walk) != len(edge_walk) + 1:
        raise ValueError("trail needs exactly one more vertex than edges")
    if len(set(edge_walk)) != len(edge_walk):
        return "duplicate edge in walk"
    # each step below matches its two vertices to an edge of the graph, so
    # only a walk without edges can hold a vertex that does not exist
    a = walk[0]
    if not edge_walk and not 0 <= a < n:
        return f"vertex {a} out of range"
    m = len(edges)
    for i, eid in enumerate(edge_walk):
        if not 0 <= eid < m:
            return f"edge id {eid} out of range"
        u, v = edges[eid]
        b = walk[i + 1]
        if not ((a == u and b == v) or (a == v and b == u)):
            return f"step {i} does not follow edge {eid}"
        a = b
    return ""


def circuit_fault(n: int, edges, walk, edge_walk, prescribed: Iterable[int]) -> str:
    """Why walk/edge_walk is no closed trail through every prescribed edge."""
    fault = trail_fault(n, edges, walk, edge_walk)
    if fault:
        return fault
    if walk[0] != walk[-1]:
        return "walk is not closed"
    missing = frozenset(prescribed).difference(edge_walk)
    if missing:
        return f"prescribed edges not covered: {sorted(missing)}"
    return ""


def cut_fault(n: int, edges, side, boundary, size, odd, bound: int | None) -> str:
    """Why side is no odd cut with the stated boundary, size and parity and
    at most `bound` edges (None: no bound).  The boundary is recomputed in
    one pass over the edge list, so a huge n with few edges costs m only."""
    side, boundary = frozenset(side), frozenset(boundary)
    if type(size) is not int or type(odd) is not bool:
        raise ValueError("result fields 'size' and 'odd' must be an integer and a boolean")
    if not all(0 <= v < n for v in side):
        return "side has a vertex out of range"
    if not 0 < len(side) < n:
        return "side is empty or holds every vertex, so it cuts nothing"
    if boundary != {e for e, (u, v) in enumerate(edges) if (u in side) != (v in side)}:
        return "boundary mismatch"
    if len(boundary) % 2 == 0:
        return "boundary is not odd"
    if size != len(boundary) or not odd:
        return f"claimed size {size} / odd {odd} do not match the boundary"
    if bound is not None and len(boundary) > bound:
        return f"cut size {len(boundary)} exceeds |S| = {bound}"
    return ""


def result_fault(n: int, edges, data: dict, prescribed: Collection[int] | None) -> str:
    """Why a result object certifies nothing for the prescribed set; with
    prescribed None, against no size bound and no coverage."""
    status = data.get("status")
    if status == "odd-cut":
        bound = None if prescribed is None else len(prescribed)
        side, boundary = ints(data, "side"), ints(data, "boundary")
        return cut_fault(n, edges, side, boundary, data.get("size"), data.get("odd"), bound)
    if status == "circuit":
        walk, edge_walk = ints(data, "walk"), ints(data, "edge_walk")
        return circuit_fault(n, edges, walk, edge_walk, prescribed or ())
    raise ValueError("nothing to verify: status is not circuit/odd-cut")
