"""Pruning rules P1–P7 (paper Section 3.2, Theorems 1–9, Eq. 9).

Each predicate is a pure function of the degree/bound snapshot so the
rules are unit-testable in isolation and reusable by both the serial
miner and the G-thinker task algorithms. Two rule types exist:

* **Type I** — remove a vertex u from ext(S): no valid quasi-clique
  extends S∪{u} within S∪ext(S).
* **Type II** — stop extending S: no valid quasi-clique S′ with
  S ⊂ S′ ⊆ S∪ext(S) exists (some rules also rule out S′ = S).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .degrees import DegreeView
from .domain import TaskDomain, bits
from .quasiclique import ceil_gamma


class Type2Outcome(Enum):
    """Result of the Type II battery for one vertex v ∈ S."""

    NONE = "none"  # no rule fired
    EXT_ONLY = "ext_only"  # Theorem 4 Condition (i): extensions die, S survives
    ALL = "all"  # extensions *and* S die (Thm 4(ii), 6, 8)


# -- P3: degree-based pruning --------------------------------------------


def type1_degree_prunable(gamma: float, s_size: int, d_s_u: int, d_ext_u: int) -> bool:
    """Theorem 3: prune u ∈ ext if d_S(u)+d_ext(u) < ceil(γ(|S|+d_ext(u)))."""
    return d_s_u + d_ext_u < ceil_gamma(gamma, s_size + d_ext_u)


def type2_degree_check(gamma: float, s_size: int, d_s_v: int, d_ext_v: int) -> Type2Outcome:
    """Theorem 4 on one v ∈ S.

    Condition (ii) — d_S(v)+d_ext(v) < ceil(γ(|S|−1+d_ext(v))) — kills S
    and every extension. Condition (i) — d_S(v) < ceil(γ|S|) with
    d_ext(v) = 0 — kills only proper extensions; G(S) itself survives.
    """
    if d_s_v + d_ext_v < ceil_gamma(gamma, s_size - 1 + d_ext_v):
        return Type2Outcome.ALL
    if d_ext_v == 0 and d_s_v < ceil_gamma(gamma, s_size):
        return Type2Outcome.EXT_ONLY
    return Type2Outcome.NONE


# -- P4: upper-bound pruning ---------------------------------------------


def type1_upper_prunable(gamma: float, s_size: int, d_s_u: int, upper: int) -> bool:
    """Theorem 5: prune u ∈ ext if d_S(u)+U_S−1 < ceil(γ(|S|+U_S−1))."""
    return d_s_u + upper - 1 < ceil_gamma(gamma, s_size + upper - 1)


def type2_upper_prunable(gamma: float, s_size: int, d_s_v: int, upper: int) -> bool:
    """Theorem 6: kill S and extensions if d_S(v)+U_S < ceil(γ(|S|+U_S−1))."""
    return d_s_v + upper < ceil_gamma(gamma, s_size + upper - 1)


# -- P5: lower-bound pruning ---------------------------------------------


def type1_lower_prunable(
    gamma: float, s_size: int, d_s_u: int, d_ext_u: int, lower: int
) -> bool:
    """Theorem 7: prune u ∈ ext if d_S(u)+d_ext(u) < ceil(γ(|S|+L_S−1))."""
    return d_s_u + d_ext_u < ceil_gamma(gamma, s_size + lower - 1)


def type2_lower_prunable(
    gamma: float, s_size: int, d_s_v: int, d_ext_v: int, lower: int
) -> bool:
    """Theorem 8: kill S and extensions if d_S(v)+d_ext(v) < ceil(γ(|S|+L_S−1))."""
    return d_s_v + d_ext_v < ceil_gamma(gamma, s_size + lower - 1)


# -- P6: critical-vertex pruning ------------------------------------------


def find_critical_vertex(
    gamma: float, s_size: int, view: DegreeView, lower: int
) -> int | None:
    """Definition 4: v ∈ S with d_S(v)+d_ext(v) == ceil(γ(|S|+L_S−1)).

    Only vertices with at least one ext neighbor qualify here — a
    critical vertex with Γ_ext(v) = ∅ makes Theorem 9 vacuous and
    returning it would stall the caller's move-to-S step.
    """
    target = ceil_gamma(gamma, s_size + lower - 1)
    for v, d_s in view.in_s_of_s.items():
        d_ext = view.in_ext_of_s[v]
        if d_ext > 0 and d_s + d_ext == target:
            return v
    return None


# -- P7: cover-vertex pruning ----------------------------------------------


@dataclass
class CoverVertexMask:
    """The selected cover vertex (local ID) and its covered ext mask (Eq. 9)."""

    vertex: int
    covered_mask: int


def cover_set_masked(
    domain: TaskDomain, s_mask: int, ext_mask: int, gamma: float, view: DegreeView
) -> CoverVertexMask | None:
    """Best cover vertex u ∈ ext maximizing |C_S(u)| (Eq. 9).

    C_S(u) = Γ_ext(u) ∩ ⋂_{v∈S, v∉Γ(u)} Γ(v). Applicable only when
    d_S(u) ≥ ceil(γ|S|) and every S-vertex non-adjacent to u also has
    d_S(v) ≥ ceil(γ|S|); otherwise Theorems 3/4 subsume the pruning.
    Any quasi-clique built from S ∪ (subset of C_S(u)) stays valid when
    u joins, hence is non-maximal and its subtree can be skipped.
    Γ_ext(u) is one AND, each ⋂ Γ(v) step one more; ties between
    equally large cover sets go to the lowest local ID.
    """
    if not ext_mask:
        return None
    adj = domain.adj
    threshold = ceil_gamma(gamma, s_mask.bit_count())
    best: CoverVertexMask | None = None
    best_size = 0
    for u in bits(ext_mask):
        if view.in_s_of_ext.get(u, 0) < threshold:
            continue
        gamma_ext_u = adj[u] & ext_mask
        # Paper's short-circuit: |Γ_ext(u)| already below the best found.
        if gamma_ext_u.bit_count() <= best_size:
            continue
        covered = gamma_ext_u
        applicable = True
        for v in bits(s_mask & ~adj[u]):
            if view.in_s_of_s[v] < threshold:
                applicable = False
                break
            covered &= adj[v]
            if covered.bit_count() <= best_size:
                break
        if not applicable or covered.bit_count() <= best_size:
            continue
        best = CoverVertexMask(vertex=u, covered_mask=covered)
        best_size = covered.bit_count()
    return best


# -- P1: diameter pruning ----------------------------------------------------


def diameter_filter_masked(domain: TaskDomain, anchor: int, cand_mask: int) -> int:
    """Theorem 1 increment: keep candidates within 2 hops of `anchor`."""
    return cand_mask & domain.two_hop_mask(anchor)
