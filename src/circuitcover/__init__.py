"""Circuits through prescribed edges, with odd-cut certificates.

Given a connected simple graph and a set S of prescribed edges, find_circuit
either returns a closed trail covering S or an odd edge cut of size at most
|S| refuting the universal condition.  The package also ships even-subgraph
extension, minimum odd cuts, an exhaustive feasibility oracle, and
deterministic instance generators.  Everything else, the descent's steps
included, lives in its submodule.
"""

__version__ = "0.1.0"

from .cuts import (
    CutCertificate,
    brute_force_min_odd_cut,
    edge_connectivity,
    min_odd_cut,
)
from .finder import find_circuit
from .generators import (
    NamedInstance,
    double_clique,
    gk_lower_witness,
    ladder,
    random_connected,
    two_cycles_bridge,
)
from .graphs import Graph, Trail, verify_circuit
from .jaeger import EvenExtension, extend_to_even_subgraph, odd_cut_within
from .oracle import (
    check_parity_monotonicity,
    feasible_by_bruteforce,
    min_components_even_extension,
)

__all__ = [
    "Graph",
    "Trail",
    "CutCertificate",
    "EvenExtension",
    "NamedInstance",
    "find_circuit",
    "verify_circuit",
    "min_odd_cut",
    "brute_force_min_odd_cut",
    "edge_connectivity",
    "odd_cut_within",
    "extend_to_even_subgraph",
    "min_components_even_extension",
    "feasible_by_bruteforce",
    "check_parity_monotonicity",
    "ladder",
    "double_clique",
    "two_cycles_bridge",
    "gk_lower_witness",
    "random_connected",
]
