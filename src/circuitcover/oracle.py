"""Ground-truth feasibility by exhaustive search over the cycle space.

A circuit through S exists iff some connected even edge set contains S;
even edge sets are exactly the GF(2) span of the fundamental cycles of a
spanning forest, enumerated here with Gray-code updates.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import NotExtendable, TooLarge
from .graphs import Graph, Trail, connected_components, euler_circuit, spanning_forest

_DIM_GUARD = 24


@dataclass(frozen=True)
class CycleSpaceBasis:
    """Fundamental cycles of a spanning forest, as edge-id bitmasks."""

    masks: tuple[int, ...]
    forest_edges: frozenset

    @property
    def dim(self) -> int:
        return len(self.masks)


def cycle_space_basis(g: Graph) -> CycleSpaceBasis:
    forest = spanning_forest(g)
    forest_edges = frozenset(forest.parent_edge) - {-1}
    masks = []
    for eid, (u, v) in enumerate(g.edges):
        if eid in forest_edges:
            continue
        mask = 1 << eid
        for e in forest.path_edges(u, v):
            mask ^= 1 << e
        masks.append(mask)
    return CycleSpaceBasis(tuple(masks), forest_edges)


def even_set_masks(basis: CycleSpaceBasis) -> Iterator[int]:
    """Every even edge set as a bitmask, in Gray-code order from the empty
    set: each differs from the one before by a single basis cycle."""
    f = 0
    yield f
    for step in range(1, 1 << basis.dim):
        f ^= basis.masks[(step & -step).bit_length() - 1]
        yield f


def _mask_to_edges(mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _edge_mask(g: Graph, s: Iterable[int]) -> int:
    """The edge ids of s as a bitmask; an id g lacks raises BadEdgeId."""
    mask = 0
    for eid in s:
        g.endpoints(eid)  # raises BadEdgeId
        mask |= 1 << eid
    return mask


def _is_connected_edge_set(g: Graph, edges: frozenset) -> bool:
    return len(connected_components(g, edges)) <= 1


def feasible_by_bruteforce(g: Graph, s: Iterable[int]) -> Trail | None:
    """Euler tour of the first connected even superset of s in Gray-code
    order, or None when no such edge set exists."""
    basis = cycle_space_basis(g)
    if basis.dim > _DIM_GUARD:
        raise TooLarge(f"cycle-space dimension {basis.dim} exceeds guard {_DIM_GUARD}")
    s_mask = _edge_mask(g, s)
    for f in even_set_masks(basis):
        if s_mask & ~f:
            continue
        edges = _mask_to_edges(f)
        if _is_connected_edge_set(g, edges):
            return euler_circuit(g, edges)
    return None


def min_components_even_extension(g: Graph, s: Iterable[int]) -> int:
    """Minimum component count over all even supersets of s, by enumerating
    the cycle space (desk-scale guard)."""
    basis = cycle_space_basis(g)
    if g.n > 20 or basis.dim > _DIM_GUARD:
        raise TooLarge(f"guard: n={g.n}, cycle-space dim={basis.dim}")
    s_mask = _edge_mask(g, s)
    best: int | None = None
    for f in even_set_masks(basis):
        if s_mask & ~f:
            continue
        edges = _mask_to_edges(f)
        comps = len(connected_components(g, edges)) if edges else 0
        if best is None or comps < best:
            best = comps
    if best is None:
        raise NotExtendable("no even edge set contains the prescribed edges")
    return best


def enumerate_connected_even_sets(g: Graph) -> list[int]:
    """All nonempty connected even edge sets, as bitmasks, largest first."""
    basis = cycle_space_basis(g)
    if basis.dim > _DIM_GUARD:
        raise TooLarge(f"cycle-space dimension {basis.dim} exceeds guard {_DIM_GUARD}")
    out = []
    for f in even_set_masks(basis):
        if f and _is_connected_edge_set(g, _mask_to_edges(f)):
            out.append(f)
    out.sort(key=lambda mask: -mask.bit_count())
    return out


def check_parity_monotonicity(g: Graph, k: int) -> bool:
    """True iff feasibility of every (2k-1)-set implies feasibility of every
    2k-set, checked exhaustively (m <= 16 guard)."""
    if g.m > 16:
        raise TooLarge(f"guard: m={g.m} > 16")
    if k < 1:
        raise ValueError("k must be positive")
    even_sets = enumerate_connected_even_sets(g)

    def all_feasible(size: int) -> bool:
        if size > g.m:
            return True
        for combo in combinations(range(g.m), size):
            s_mask = 0
            for eid in combo:
                s_mask |= 1 << eid
            if not any(s_mask & ~f == 0 for f in even_sets):
                return False
        return True

    return (not all_feasible(2 * k - 1)) or all_feasible(2 * k)
