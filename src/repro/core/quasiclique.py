"""γ-quasi-clique definitions and predicates (paper Definitions 1–3).

A graph G = (V, E) is a γ-quasi-clique (0 ≤ γ ≤ 1) if it is connected
and every vertex v has degree d(v) ≥ ceil(γ·(|V|−1)). The mining
problem asks for all vertex sets S with |S| ≥ τ_size such that G(S) is
a *maximal* γ-quasi-clique: no strict superset S′ ⊃ S induces one.

All γ-arithmetic throughout the library goes through :func:`ceil_gamma`
and :func:`floor_div_gamma`, which guard against float representation
error (e.g. ``0.6 * 5 == 3.0000000000000004``) so that a γ given as
2/3 behaves like the rational it stands for. The pruning rules read
their thresholds from :func:`ceil_table`, whose entries are
:func:`ceil_gamma` values, so a table lookup and a direct call agree bit
for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import lru_cache

from ..graph.adjacency import Graph
from ..graph.traversal import is_connected_subset

#: Tolerance absorbing float representation error in γ·x products.
GAMMA_EPS = 1e-9


def check_params(gamma: float, min_size: int) -> None:
    """Reject a (γ, τ_size) pair this library cannot mine.

    γ must lie in [0.5, 1] — the regime where Theorem 1 bounds a
    quasi-clique's diameter by 2, which every spawn and pruning rule
    relies on — and τ_size must be at least 1. Raises ValueError.
    """
    if not 0.5 <= gamma <= 1.0:
        raise ValueError(
            f"gamma must be in [0.5, 1] (the diameter-2 regime), got {gamma}"
        )
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")


def ceil_gamma(gamma: float, x: int) -> int:
    """ceil(γ·x), robust to float error; the degree floor everywhere."""
    return math.ceil(gamma * x - GAMMA_EPS)


def ceil_table(gamma: float, n: int) -> tuple[int, ...]:
    """``table[x] == ceil_gamma(gamma, x)`` for every x in 0..n (at least).

    One table serves a whole task domain: every threshold a bounding
    round compares against is ceil(γ·x) for some x ≤ |domain|. Lengths
    are rounded up to a power of two so domains of similar size share
    one cached table.
    """
    return _ceil_table(gamma, n.bit_length())


@lru_cache(maxsize=128)
def _ceil_table(gamma: float, length_bits: int) -> tuple[int, ...]:
    return tuple(ceil_gamma(gamma, x) for x in range(1 << length_bits))


def floor_div_gamma(value: float, gamma: float) -> int:
    """floor(value / γ), robust to float error (used by U_S^min, Eq. 3)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return math.floor(value / gamma + GAMMA_EPS)


def degree_floor(gamma: float, size: int) -> int:
    """Minimum in-subgraph degree for a member of a γ-quasi-clique of `size`."""
    return ceil_gamma(gamma, size - 1)


def kcore_threshold(gamma: float, min_size: int) -> int:
    """k = ceil(γ·(τ_size−1)) from Theorem 2 (size-threshold pruning)."""
    return ceil_gamma(gamma, min_size - 1)


def is_quasi_clique(
    graph: Graph,
    vertex_set: Iterable[int],
    gamma: float,
    require_connected: bool = True,
) -> bool:
    """True iff G(S) is a γ-quasi-clique (Definition 1).

    For γ ≥ 0.5 the degree condition already implies connectivity
    (any two non-adjacent members must share a neighbor), but the check
    is cheap and keeps the predicate correct for every γ.
    """
    s = set(vertex_set)
    if not s:
        return False
    if any(not graph.has_vertex(v) for v in s):
        return False
    floor_deg = degree_floor(gamma, len(s))
    for v in s:
        if graph.degree_in(v, s) < floor_deg:
            return False
    if require_connected and not is_connected_subset(graph, s):
        return False
    return True


def is_valid_quasi_clique(
    graph: Graph, vertex_set: Iterable[int], gamma: float, min_size: int
) -> bool:
    """Definition 3 validity: γ-quasi-clique with |S| ≥ τ_size."""
    s = set(vertex_set)
    return len(s) >= min_size and is_quasi_clique(graph, s, gamma)


def quasi_clique_deficits(graph: Graph, vertex_set: Iterable[int], gamma: float) -> dict[int, int]:
    """Per-vertex degree shortfall (diagnostics): 0 means satisfied."""
    s = set(vertex_set)
    floor_deg = degree_floor(gamma, len(s))
    return {v: max(0, floor_deg - graph.degree_in(v, s)) for v in s}


def diameter_bound(gamma: float) -> int:
    """Upper bound on a γ-quasi-clique's diameter ([30] Theorem 1).

    The library targets γ ≥ 0.5 where the bound is 2; for smaller γ we
    return the general bound so callers can refuse or widen pulls.
    """
    if gamma >= 0.5:
        return 2
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    # General form from Pei et al.: diameter ≤ ceil(2/γ) − 1 is a safe
    # (loose) envelope; the codepaths in this library require γ ≥ 0.5.
    return math.ceil(2.0 / gamma) - 1
