"""Upper and lower bounds on the number of addable vertices (P4, P5).

Implements Eqs. (1)–(8) of the paper:

* ``U_S`` — the largest number of ext(S) vertices that could join S in a
  valid γ-quasi-clique, derived from d_min (Eq. 1–3) and tightened by
  the Lemma 2 prefix-sum condition (Eq. 4).
* ``L_S`` — the smallest number of ext(S) vertices that *must* join S
  before its minimum degree clears the γ floor, from Eq. (7) tightened
  to Eq. (8).

Every threshold is read from a :func:`repro.core.quasiclique.ceil_table`
``ceil`` (``ceil[x] == ceil_gamma(γ, x)``), and both bounds share one
prefix-sum array over the SE-degrees sorted non-increasing
(:func:`prefix_sums_desc`), so a bounding round sorts once.

The bound functions return ``None`` when no feasible t exists, which the
caller must treat as a Type II prune. The distinction the paper draws:
a U_S failure still leaves G(S) itself as a candidate, whereas an L_S
failure (including L_min failure) certifies S is not a quasi-clique.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate

from .quasiclique import floor_div_gamma


def prefix_sums_desc(ext_degrees: Iterable[int]) -> list[int]:
    """sums[t] = Σ_{i≤t} d_S(u_i) with u_i sorted by d_S non-increasing; sums[0] = 0."""
    return list(accumulate(sorted(ext_degrees, reverse=True), initial=0))


def lemma2_first_feasible(
    ceil: Sequence[int], s_size: int, sum_s_degrees: int, sums: list[int], ts: Iterable[int]
) -> int | None:
    """The first t of `ts` passing the Lemma 2 sum condition, else None.

    Adding the t best ext vertices to S is feasible iff
    Σ_S d_S(v) + Σ_{i≤t} d_S(u_i) ≥ |S|·ceil(γ(|S|+t−1)), where
    ``sums[t]`` holds Σ_{i≤t}.
    """
    for t in ts:
        if sum_s_degrees + sums[t] >= s_size * ceil[s_size + t - 1]:
            return t
    return None


def upper_bound_min(gamma: float, s_size: int, d_min: int) -> int:
    """U_S^min = floor(d_min/γ) + 1 − |S| (Eq. 3); may be ≤ 0 or > |ext|."""
    return floor_div_gamma(d_min, gamma) + 1 - s_size


def upper_bound(
    ceil: Sequence[int], gamma: float, s_size: int, d_min: int, sum_s_degrees: int,
    sums: list[int],
) -> int | None:
    """U_S per Eq. (4): the largest t in [1, U_S^min] passing Lemma 2.

    Returns None when no t qualifies — extensions of S are pruned, but
    G(S) itself must still be examined by the caller.
    """
    if s_size < 1:
        raise ValueError("upper_bound undefined for empty S")
    hi = min(upper_bound_min(gamma, s_size, d_min), len(sums) - 1)
    if hi < 1:
        return None
    return lemma2_first_feasible(ceil, s_size, sum_s_degrees, sums, range(hi, 0, -1))


def lower_bound_min(
    ceil: Sequence[int], s_size: int, d_s_min: int, n_ext: int
) -> int | None:
    """L_S^min per Eq. (7): smallest t ≥ 0 with d_S^min + t ≥ ceil(γ(|S|+t−1)).

    Checks t = 0..n_ext; None means S and all extensions are pruned.
    Needs only the SS-degrees, so a round evaluates it first.
    """
    if s_size < 1:
        raise ValueError("lower_bound_min undefined for empty S")
    for t in range(n_ext + 1):
        if d_s_min + t >= ceil[s_size + t - 1]:
            return t
    return None


def lower_bound(
    ceil: Sequence[int], s_size: int, sum_s_degrees: int, sums: list[int], l_min: int
) -> int | None:
    """L_S per Eq. (8): smallest t in [L_S^min, |ext|] passing Lemma 2.

    Returns None when infeasible — a Type II prune of S *and* its
    extensions (an L_S failure certifies S itself misses the degree
    floor, see module docstring).
    """
    return lemma2_first_feasible(ceil, s_size, sum_s_degrees, sums, range(l_min, len(sums)))
