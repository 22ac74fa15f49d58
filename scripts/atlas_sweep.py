#!/usr/bin/env python3
"""Run the finder on every small prescribed set of every atlas graph.

    python3 scripts/atlas_sweep.py

The graph atlas of Read & Wilson (An Atlas of Graphs, Oxford 1998), which
networkx ships as `networkx.graph_atlas_g()`, holds all 1,253 graphs on 0-7
vertices.  The 995 connected ones with at least two vertices are swept in
atlas order, edge ids taken from `sorted(G.edges())`, with every prescribed
set of size 1..4 in `itertools.combinations` order.  Each answer is
checked: a circuit must pass `certificates.circuit_fault`, a cut must be a
valid odd cut of size at most |S|, and a cut may come only when the
brute-force minimum odd cut is at most |S|.  The script prints the calls, the detached cases
(`contract_subgraph` calls), the descent's reroutes (`_reroute` calls,
A and B steps alike), the cut answers for a set that some circuit covers
(`cut_feasible`, by `feasible_by_bruteforce`, whose witness is verified)
and a SHA-256 over the answers, each hashed by `scripts/answer_digest.py`'s
`answer_key`.  It exits 1 when a check fails.
Run it from the root of a source checkout: the program comes from `src/`.
It makes 707,981 calls and takes a few minutes.
"""
import hashlib
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))  # also when loaded as a module

from answer_digest import answer_key  # noqa: E402
from circuitcover import Trail, find_circuit, finder, hopping  # noqa: E402
from circuitcover.certificates import circuit_fault  # noqa: E402
from circuitcover.cuts import brute_force_min_odd_cut  # noqa: E402
from circuitcover.graphs import Graph, verify_circuit  # noqa: E402
from circuitcover.oracle import feasible_by_bruteforce  # noqa: E402


def atlas_graphs() -> list[Graph]:
    """The connected atlas graphs with at least two vertices, in atlas order."""
    import networkx as nx

    return [
        Graph.from_edges(a.number_of_nodes(), sorted(a.edges()))
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() >= 2 and nx.is_connected(a)
    ]


def _fault(g: Graph, s: tuple, out, min_cut) -> str | None:
    """What is wrong with the answer out for the set s, or None."""
    if isinstance(out, Trail):
        fault = circuit_fault(g.n, g.edges, out.vertices, out.edges, s)
        return f"circuit fails verification: {fault}" if fault else None
    if not (out.odd and out.size <= len(s) and out.is_valid_for(g)):
        return f"certificate is not an odd cut of size <= {len(s)}"
    if min_cut is None or min_cut.size > len(s):
        return "certificate where the minimum odd cut exceeds |S|"
    return None


def sweep(max_size: int) -> dict:
    """Calls, detached cases, reroutes, cuts for feasible sets and the
    answers' SHA-256 of the sweep up to max_size; raises RuntimeError on the
    first failed check."""
    counts = {"calls": 0, "detached": 0, "reroutes": 0, "cut_feasible": 0}
    wrapped = [(finder, "contract_subgraph", "detached"), (hopping, "_reroute", "reroutes")]
    saved = [getattr(module, name) for module, name, _ in wrapped]

    def counted(fn, key):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    for (module, name, key), fn in zip(wrapped, saved):
        setattr(module, name, counted(fn, key))
    sha = hashlib.sha256()
    try:
        for gi, g in enumerate(atlas_graphs()):
            min_cut = brute_force_min_odd_cut(g)
            for k in range(1, min(max_size, g.m) + 1):
                for s in combinations(range(g.m), k):
                    out = find_circuit(g, s)
                    fault = _fault(g, s, out, min_cut)
                    if fault is None and not isinstance(out, Trail):
                        witness = feasible_by_bruteforce(g, s)
                        if witness is not None and not verify_circuit(g, witness, s):
                            fault = "the oracle's witness fails verification"
                        counts["cut_feasible"] += witness is not None
                    if fault is not None:
                        raise RuntimeError(f"graph {gi}, S = {s}: {fault}")
                    sha.update(repr(answer_key(out)).encode())
                    counts["calls"] += 1
    finally:
        for (module, name, _), fn in zip(wrapped, saved):
            setattr(module, name, fn)
    return {**counts, "sha256": sha.hexdigest()}


def main() -> int:
    try:
        out = sweep(4)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(" ".join(f"{k}={v}" for k, v in out.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
