"""Degree bookkeeping for a mining state ⟨S, ext(S)⟩ — paper (T2).

The pruning rules consume four degree families:

* SS-degrees  d_S(v)      for v ∈ S
* ES-degrees  d_ext(S)(v) for v ∈ S
* SE-degrees  d_S(u)      for u ∈ ext(S)
* EE-degrees  d_ext(S)(u) for u ∈ ext(S)

A :class:`DegreeView` holds them as parallel lists over *local*
:class:`repro.core.domain.TaskDomain` IDs in ascending order: ``s_ids``
with ``ss`` and ``es``, ``ext_ids`` with ``se`` and ``ee``. Each entry
is one ``(adj[v] & mask).bit_count()`` popcount.

The families are filled in the order the bounding round needs them.
:func:`ss_degrees` fills SS alone, which is all Eq. 7 (L_S^min) reads —
when Eq. 7 already prunes S, no ES/SE popcount is spent.
:func:`add_crossing_degrees` then adds ES and SE (two views of the same
crossing edges), which U_S, L_S and the Type II battery read. EE-degrees
feed only the Type I rules (Theorems 3 and 7), so
:func:`compute_ee_degrees_masked` runs right before the Type I pass — if
a Type II rule fires first, that work is saved, as the paper prescribes.
"""

from __future__ import annotations

from .domain import TaskDomain, bit_list


class DegreeView:
    """Snapshot of the degree families of one (S, ext) state, as lists."""

    __slots__ = ("s_ids", "ss", "es", "ext_ids", "se", "ee")

    def __init__(self, s_ids: list[int], ss: list[int]):
        self.s_ids = s_ids  # v ∈ S, ascending local ID
        self.ss = ss  # d_S(v)
        self.es: list[int] | None = None  # d_ext(v)
        self.ext_ids: list[int] | None = None  # u ∈ ext, ascending local ID
        self.se: list[int] | None = None  # d_S(u)
        self.ee: list[int] | None = None  # d_ext(u), lazy

    def min_s_degree(self) -> int:
        """d_S^min = min_{v∈S} d_S(v) — Eq. (6).

        Raises :class:`ValueError` with an explicit message on empty S
        (the quantity is undefined; Eqs. 1–8 all presuppose S ≠ ∅).
        """
        if not self.ss:
            raise ValueError("min_s_degree is undefined for empty S")
        return min(self.ss)

    def min_total_degree_in_s(self) -> int:
        """d_min = min_{v∈S} (d_S(v) + d_ext(v)) — Eq. (1).

        Needs the ES-degrees; raises :class:`ValueError` on empty S.
        """
        if not self.ss:
            raise ValueError("min_total_degree_in_s is undefined for empty S")
        return min(map(int.__add__, self.ss, self.es))


def ss_degrees(domain: TaskDomain, s_mask: int) -> DegreeView:
    """A view holding the SS-degrees only."""
    adj = domain.adj
    s_ids = bit_list(s_mask)
    return DegreeView(s_ids, [(adj[v] & s_mask).bit_count() for v in s_ids])


def add_crossing_degrees(
    domain: TaskDomain, view: DegreeView, s_mask: int, ext_mask: int
) -> None:
    """Fill the ES- and SE-degrees of `view` (the S × ext crossing edges)."""
    adj = domain.adj
    view.es = [(adj[v] & ext_mask).bit_count() for v in view.s_ids]
    ext_ids = view.ext_ids = bit_list(ext_mask)
    view.se = [(adj[u] & s_mask).bit_count() for u in ext_ids]


def compute_degrees_masked(domain: TaskDomain, s_mask: int, ext_mask: int) -> DegreeView:
    """SS/ES/SE degrees: one popcount per (vertex, family)."""
    view = ss_degrees(domain, s_mask)
    add_crossing_degrees(domain, view, s_mask, ext_mask)
    return view


def compute_ee_degrees_masked(
    domain: TaskDomain, ext_mask: int, view: DegreeView
) -> list[int]:
    """EE-degrees d_ext(u), parallel to ``view.ext_ids``; computed lazily."""
    adj = domain.adj
    ee = view.ee = [(adj[u] & ext_mask).bit_count() for u in view.ext_ids]
    return ee
