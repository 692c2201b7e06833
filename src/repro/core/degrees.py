"""Degree bookkeeping for a mining state ⟨S, ext(S)⟩ — paper (T2).

The pruning rules consume four degree families:

* SS-degrees  d_S(v)      for v ∈ S
* ES-degrees  d_ext(S)(v) for v ∈ S
* SE-degrees  d_S(u)      for u ∈ ext(S)
* EE-degrees  d_ext(S)(u) for u ∈ ext(S)

U_S needs the first three, L_S the first two, and EE-degrees feed only
the Type I rules (Theorems 3 and 7), so their computation is deferred
until right before the Type I pass — if a Type II rule fires first, the
work is saved, exactly as the paper prescribes.

Degrees are computed over a :class:`repro.core.domain.TaskDomain` and
keyed by its *local* IDs; each one is a single
``(adj[v] & mask).bit_count()`` popcount. The downstream consumers
(`repro.core.bounds`, the pruning batteries) read only the
`DegreeView` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domain import TaskDomain, bits


@dataclass
class DegreeView:
    """Snapshot of the four degree families for one (S, ext) state."""

    in_s_of_s: dict[int, int] = field(default_factory=dict)  # d_S(v), v ∈ S
    in_ext_of_s: dict[int, int] = field(default_factory=dict)  # d_ext(v), v ∈ S
    in_s_of_ext: dict[int, int] = field(default_factory=dict)  # d_S(u), u ∈ ext
    in_ext_of_ext: dict[int, int] | None = None  # d_ext(u), u ∈ ext (lazy)

    def sum_s_degrees(self) -> int:
        """Σ_{v∈S} d_S(v) — left operand of the Lemma 2 sum."""
        return sum(self.in_s_of_s.values())

    def min_total_degree_in_s(self) -> int:
        """d_min = min_{v∈S} (d_S(v) + d_ext(v)) — Eq. (1).

        Raises :class:`ValueError` with an explicit message on empty S
        (the quantity is undefined; Eqs. 1–8 all presuppose S ≠ ∅).
        """
        if not self.in_s_of_s:
            raise ValueError("min_total_degree_in_s is undefined for empty S")
        return min(
            self.in_s_of_s[v] + self.in_ext_of_s[v] for v in self.in_s_of_s
        )

    def min_s_degree(self) -> int:
        """d_S^min = min_{v∈S} d_S(v) — Eq. (6).

        Raises :class:`ValueError` with an explicit message on empty S.
        """
        if not self.in_s_of_s:
            raise ValueError("min_s_degree is undefined for empty S")
        return min(self.in_s_of_s.values())

    def ext_degrees_sorted(self) -> list[int]:
        """d_S(u) for u ∈ ext, non-increasing — the Lemma 2 prefix order."""
        return sorted(self.in_s_of_ext.values(), reverse=True)


def compute_degrees_masked(domain: TaskDomain, s_mask: int, ext_mask: int) -> DegreeView:
    """SS/ES/SE degrees: one popcount per (vertex, family).

    SE- and ES-degrees are two views of the same crossing edges (paper
    T2). The returned view is keyed by *local* domain IDs.
    """
    adj = domain.adj
    view = DegreeView()
    in_s_of_s = view.in_s_of_s
    in_ext_of_s = view.in_ext_of_s
    for v in bits(s_mask):
        a = adj[v]
        in_s_of_s[v] = (a & s_mask).bit_count()
        in_ext_of_s[v] = (a & ext_mask).bit_count()
    in_s_of_ext = view.in_s_of_ext
    for u in bits(ext_mask):
        in_s_of_ext[u] = (adj[u] & s_mask).bit_count()
    return view


def compute_ee_degrees_masked(
    domain: TaskDomain, ext_mask: int, view: DegreeView
) -> dict[int, int]:
    """EE-degrees d_ext(u), computed lazily before the Type I pass."""
    adj = domain.adj
    ee = {u: (adj[u] & ext_mask).bit_count() for u in bits(ext_mask)}
    view.in_ext_of_ext = ee
    return ee
