"""Circuits through prescribed edges, with odd-cut certificates.

Given a connected simple graph and a set S of prescribed edges, find_circuit
either returns a closed trail covering S or an odd edge cut of size at most
|S| refuting the universal condition.  The package also ships even-subgraph
extension, minimum odd cuts, an exhaustive feasibility oracle, and
deterministic instance generators.
"""

__version__ = "0.1.0"

from .cuts import (
    CutCertificate,
    GomoryHuTree,
    brute_force_min_odd_cut,
    edge_connectivity,
    gomory_hu_tree,
    has_odd_cut_leq,
    min_odd_cut,
    odd_cut_within,
)
from .finder import extend_circuit, find_circuit
from .generators import (
    NamedInstance,
    double_clique,
    gk_lower_witness,
    ladder,
    random_connected,
    two_cycles_bridge,
)
from .graphs import (
    Graph,
    Trail,
    connected_components,
    contract_subgraph,
    edge_boundary,
    euler_circuit,
    is_even_subgraph,
    verify_circuit,
)
from .hopping import (
    bridge_case,
    compute_reach,
    hopping_fixpoint,
    initial_coherent_trail,
    reroute_descent,
)
from .jaeger import EvenExtension, extend_to_even_subgraph, min_components_even_extension
from .oracle import check_parity_monotonicity, feasible_by_bruteforce
from .segments import SegmentedCircuit, segment

__all__ = [
    "Graph",
    "Trail",
    "CutCertificate",
    "GomoryHuTree",
    "EvenExtension",
    "NamedInstance",
    "SegmentedCircuit",
    "bridge_case",
    "brute_force_min_odd_cut",
    "check_parity_monotonicity",
    "compute_reach",
    "connected_components",
    "contract_subgraph",
    "double_clique",
    "edge_boundary",
    "edge_connectivity",
    "euler_circuit",
    "extend_circuit",
    "extend_to_even_subgraph",
    "feasible_by_bruteforce",
    "find_circuit",
    "gk_lower_witness",
    "gomory_hu_tree",
    "has_odd_cut_leq",
    "hopping_fixpoint",
    "initial_coherent_trail",
    "is_even_subgraph",
    "ladder",
    "min_components_even_extension",
    "min_odd_cut",
    "odd_cut_within",
    "random_connected",
    "reroute_descent",
    "segment",
    "two_cycles_bridge",
    "verify_circuit",
]
