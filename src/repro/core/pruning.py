"""Pruning rules P1–P7 (paper Section 3.2, Theorems 1–9, Eq. 9).

Each rule is a pure function of a :class:`repro.core.degrees.DegreeView`
and the round's thresholds, so the rules are unit-testable in isolation.
Two rule types exist:

* **Type I** — remove a vertex u from ext(S): no valid quasi-clique
  extends S∪{u} within S∪ext(S).
* **Type II** — stop extending S: no valid quasi-clique S′ with
  S ⊂ S′ ⊆ S∪ext(S) exists (some rules also rule out S′ = S).

Thresholds are read from a :func:`repro.core.quasiclique.ceil_table`
``ceil``. The bound rules (Theorems 5–8, Definition 4) compare against
one of two cutoffs per round, both fixed by the bounds:

* ``upper_cut = ceil(γ(|S|+U_S−1)) − U_S``: Theorem 6 kills S when some
  d_S(v) < upper_cut, Theorem 5 removes u when d_S(u) ≤ upper_cut;
* ``lower_cut = ceil(γ(|S|+L_S−1))``: Theorem 8 kills S when some
  d_S(v)+d_ext(v) < lower_cut, Theorem 7 removes u when
  d_S(u)+d_ext(u) < lower_cut, and Definition 4 calls v critical when
  d_S(v)+d_ext(v) = lower_cut.

A switched-off bound rule passes ``upper_cut = -1`` resp.
``lower_cut = 0``, which no degree can fall below. Theorems 3 and 4 keep
one threshold per vertex, a table lookup each.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .degrees import DegreeView
from .domain import TaskDomain, bit_list
from .quasiclique import ceil_gamma


class Type2Outcome(Enum):
    """Verdict of the Type II battery over S."""

    NONE = "none"  # no rule fired
    EXT_ONLY = "ext_only"  # Theorem 4 Condition (i): extensions die, S survives
    ALL = "all"  # extensions *and* S die (Thm 4(ii), 6, 8)


# -- P3–P5: the Type II battery (Theorems 4, 6, 8) ----------------------------


def type2_outcome(
    ceil: Sequence[int],
    s_size: int,
    view: DegreeView,
    d_s_min: int,
    d_min: int,
    upper_cut: int,
    lower_cut: int,
    use_degree: bool,
) -> Type2Outcome:
    """Theorems 4, 6 and 8 over every v ∈ S; independent of vertex order.

    ALL if any v meets Theorem 6 (d_S^min < upper_cut), Theorem 8
    (d_min < lower_cut) or Theorem 4 Condition (ii)
    (d_S(v)+d_ext(v) < ceil(γ(|S|−1+d_ext(v)))); otherwise EXT_ONLY if
    any v meets Theorem 4 Condition (i) (d_ext(v) = 0 and
    d_S(v) < ceil(γ|S|)): proper extensions die but G(S) survives.
    """
    if d_s_min < upper_cut or d_min < lower_cut:
        return Type2Outcome.ALL
    if not use_degree:
        return Type2Outcome.NONE
    ext_only = False
    base = s_size - 1
    floor_s = ceil[s_size]
    for d_s, d_e in zip(view.ss, view.es):
        if d_s + d_e < ceil[base + d_e]:
            return Type2Outcome.ALL
        if not d_e and d_s < floor_s:
            ext_only = True
    return Type2Outcome.EXT_ONLY if ext_only else Type2Outcome.NONE


# -- P3–P5: the Type I battery (Theorems 3, 5, 7) -----------------------------


def type1_victims(
    ceil: Sequence[int],
    s_size: int,
    view: DegreeView,
    upper_cut: int,
    lower_cut: int,
    use_degree: bool,
) -> int:
    """Mask of the u ∈ ext removed by Theorems 3, 5 or 7 (needs ``view.ee``).

    Theorem 3 removes u when d_S(u)+d_ext(u) < ceil(γ(|S|+d_ext(u))),
    Theorem 5 when d_S(u) ≤ upper_cut, Theorem 7 when
    d_S(u)+d_ext(u) < lower_cut.
    """
    removed = 0
    for u, d_s, d_e in zip(view.ext_ids, view.se, view.ee):
        total = d_s + d_e
        if (
            d_s <= upper_cut
            or total < lower_cut
            or (use_degree and total < ceil[s_size + d_e])
        ):
            removed |= 1 << u
    return removed


# -- P6: critical-vertex pruning ------------------------------------------


def find_critical_vertex(view: DegreeView, lower_cut: int) -> int | None:
    """Definition 4: the first v ∈ S with d_S(v)+d_ext(v) == ceil(γ(|S|+L_S−1)).

    Only vertices with at least one ext neighbor qualify here — a
    critical vertex with Γ_ext(v) = ∅ makes Theorem 9 vacuous and
    returning it would stall the caller's move-to-S step.
    """
    for v, d_s, d_e in zip(view.s_ids, view.ss, view.es):
        if d_e and d_s + d_e == lower_cut:
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
    weak = 0  # S-vertices below the threshold: u must be adjacent to all
    for v, d_s in zip(view.s_ids, view.ss):
        if d_s < threshold:
            weak |= 1 << v
    best: CoverVertexMask | None = None
    best_size = 0
    for u, d_s in zip(view.ext_ids, view.se):
        if d_s < threshold:
            continue
        gamma_ext_u = adj[u] & ext_mask
        # Paper's short-circuit: |Γ_ext(u)| already below the best found.
        if gamma_ext_u.bit_count() <= best_size:
            continue
        non_adjacent = s_mask & ~adj[u]
        if non_adjacent & weak:
            continue
        covered = gamma_ext_u
        for v in bit_list(non_adjacent):
            covered &= adj[v]
            if covered.bit_count() <= best_size:
                break
        if covered.bit_count() <= best_size:
            continue
        best = CoverVertexMask(vertex=u, covered_mask=covered)
        best_size = covered.bit_count()
    return best


# -- P1: diameter pruning ----------------------------------------------------


def diameter_filter_masked(domain: TaskDomain, anchor: int, cand_mask: int) -> int:
    """Theorem 1 increment: keep candidates within 2 hops of `anchor`."""
    return cand_mask & domain.two_hop_mask(anchor)
