"""The iterative bound-based pruning subprocedure (paper Algorithm 1).

Given a mining state ⟨S, ext(S)⟩, repeatedly: recompute degrees and the
U_S/L_S bounds, apply critical-vertex moves (Theorem 9), run the
Type II battery over S (Theorems 4, 6, 8), then the Type I battery over
ext(S) (Theorems 3, 5, 7). Each Type I removal changes degrees and may
enable further pruning, so the loop repeats until ext(S) empties or a
full pass removes nothing.

A round is integer comparisons against one threshold table
(:func:`repro.core.quasiclique.ceil_table`) built per γ and domain size.
It computes the SS-degrees first and evaluates Eq. 7 (L_S^min) on them
alone: when that prunes S, the round ends before any ES/SE popcount or
sort.

Reports whether the *extensions* of S are pruned; when that happens
and G(S) itself remains a viable candidate, S is checked and emitted
here (the paper's fix over Quick). Critical moves grow S and Type I
pruning shrinks ext; ⟨S, ext(S)⟩ are bitmasks over a
:class:`repro.core.domain.TaskDomain` — immutable ints — so the updated
state is returned for the caller to continue with, where the paper's
pseudocode mutates its reference arguments.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bounds import lower_bound, lower_bound_min, prefix_sums_desc, upper_bound
from .degrees import (
    DegreeView,
    add_crossing_degrees,
    compute_ee_degrees_masked,
    ss_degrees,
)
from .domain import TaskDomain, is_quasi_clique_masked
from .options import MiningJob
from .pruning import Type2Outcome, find_critical_vertex, type1_victims, type2_outcome
from .quasiclique import ceil_table

# Sentinel actions from the bound computation.
_OK = "ok"
_PRUNE_SILENT = "prune_silent"  # S and extensions die, no candidate check
_PRUNE_CHECK_S = "prune_check_s"  # extensions die, G(S) still a candidate


def check_and_emit_masked(job: MiningJob, domain: TaskDomain, s_mask: int) -> bool:
    """Emit S (global IDs) as a candidate iff |S| ≥ τ_size and G(S) is a γ-quasi-clique."""
    if s_mask.bit_count() >= job.min_size and is_quasi_clique_masked(
        domain, s_mask, job.gamma
    ):
        job.sink.emit(domain.globals_of(s_mask))
        job.stats.candidates_emitted += 1
        return True
    return False


def _bound_round(
    job: MiningJob,
    ceil: Sequence[int],
    domain: TaskDomain,
    s_mask: int,
    ext_mask: int,
    s_size: int,
    n_ext: int,
) -> tuple[str, DegreeView, int, int, int, int]:
    """Degrees, (U_S, L_S) and the rule cutoffs of one (S, ext) state.

    Returns ``(action, view, d_s_min, d_min, upper_cut, lower_cut)``
    (see :mod:`repro.core.pruning` for the cutoffs) with the paper's
    Type II semantics on failure. An L_S failure (Eq. 7 or Eq. 8
    infeasible) certifies S itself misses the degree floor → silent
    prune. A U_S failure (Eq. 4 infeasible) prunes extensions but G(S)
    must still be examined. U_S < L_S prunes silently (L_S ≥ 1 holds
    whenever that comparison can trigger). A pruned state's view may
    lack ES/SE and its other fields are not meaningful.
    """
    opts = job.options
    view = ss_degrees(domain, s_mask)
    d_s_min = view.min_s_degree()
    if opts.use_lower_bound:
        l_min = lower_bound_min(ceil, s_size, d_s_min, n_ext)
        if l_min is None:
            return _PRUNE_SILENT, view, d_s_min, 0, -1, 0
    add_crossing_degrees(domain, view, s_mask, ext_mask)
    d_min = view.min_total_degree_in_s()
    upper_cut, lower_cut = -1, 0
    if opts.use_lower_bound or opts.use_upper_bound:
        sum_ss = sum(view.ss)
        sums = prefix_sums_desc(view.se)
    if opts.use_lower_bound:
        l_s = lower_bound(ceil, s_size, sum_ss, sums, l_min)
        if l_s is None:
            return _PRUNE_SILENT, view, d_s_min, d_min, upper_cut, lower_cut
        lower_cut = ceil[s_size + l_s - 1]
    if opts.use_upper_bound:
        u_s = upper_bound(ceil, job.gamma, s_size, d_min, sum_ss, sums)
        if u_s is None:
            return _PRUNE_CHECK_S, view, d_s_min, d_min, upper_cut, lower_cut
        upper_cut = ceil[s_size + u_s - 1] - u_s
        if opts.use_lower_bound and u_s < l_s:
            return _PRUNE_SILENT, view, d_s_min, d_min, upper_cut, lower_cut
    return _OK, view, d_s_min, d_min, upper_cut, lower_cut


def iterative_bounding_masked(
    job: MiningJob, domain: TaskDomain, s_mask: int, ext_mask: int
) -> tuple[bool, int, int]:
    """Paper Algorithm 1 over a :class:`TaskDomain`.

    Degree snapshots are popcounts, the critical-vertex bulk move is
    `adj[v] & ext_mask`, and a Type I pass removes its victims with one
    AND-NOT. Returns ``(extensions_pruned, s_mask, ext_mask)`` — the
    first is True iff extending S (beyond S itself) is pruned, the
    masks are the (possibly grown/shrunk) state.
    """
    if not s_mask:
        raise ValueError("iterative_bounding requires a non-empty S")
    opts = job.options
    stats = job.stats
    adj = domain.adj
    ceil = ceil_table(job.gamma, len(adj) + 1)
    critical_enabled = opts.critical_vertex_enabled()

    while True:
        stats.bounding_rounds += 1
        s_size = s_mask.bit_count()
        n_ext = ext_mask.bit_count()
        stats.mining_ops += s_size + n_ext
        action, view, d_s_min, d_min, upper_cut, lower_cut = _bound_round(
            job, ceil, domain, s_mask, ext_mask, s_size, n_ext
        )

        # -- Part 1: critical-vertex move (Theorem 9) -------------------
        if critical_enabled and action is _OK:
            critical = find_critical_vertex(view, lower_cut)
            if critical is not None:
                # The paper's fix over Quick: G(S) may be maximal even
                # though the forced expansion fails, so check S first.
                if opts.check_before_critical_expand:
                    check_and_emit_masked(job, domain, s_mask)
                moved = adj[critical] & ext_mask
                s_mask |= moved
                ext_mask &= ~moved
                stats.critical_moves += 1
                if not ext_mask:
                    break  # paper: skip straight to the ext-empty epilogue
                s_size = s_mask.bit_count()
                n_ext = ext_mask.bit_count()
                action, view, d_s_min, d_min, upper_cut, lower_cut = _bound_round(
                    job, ceil, domain, s_mask, ext_mask, s_size, n_ext
                )

        if action is _PRUNE_SILENT:
            stats.type2_pruned += 1
            return True, s_mask, ext_mask
        if action is _PRUNE_CHECK_S:
            stats.type2_pruned += 1
            check_and_emit_masked(job, domain, s_mask)
            return True, s_mask, ext_mask

        # -- Part 2: Type II battery over S ------------------------------
        outcome = type2_outcome(
            ceil, s_size, view, d_s_min, d_min, upper_cut, lower_cut, opts.use_degree_prune
        )
        if outcome is Type2Outcome.ALL:
            stats.type2_pruned += 1
            return True, s_mask, ext_mask
        if outcome is Type2Outcome.EXT_ONLY:
            # Theorem 4 Condition (i): extensions die but G(S) survives.
            stats.type2_pruned += 1
            check_and_emit_masked(job, domain, s_mask)
            return True, s_mask, ext_mask

        # -- Part 3: Type I battery over ext(S) --------------------------
        compute_ee_degrees_masked(domain, ext_mask, view)
        stats.mining_ops += n_ext
        removed = type1_victims(ceil, s_size, view, upper_cut, lower_cut, opts.use_degree_prune)
        if removed:
            stats.type1_pruned += removed.bit_count()
            ext_mask &= ~removed
        if not ext_mask:
            break  # C1: nothing left to extend with
        if not removed:
            return False, s_mask, ext_mask  # C2: ext stable — caller recurses

    # ext(S) = ∅ — only G(S) itself remains a candidate.
    check_and_emit_masked(job, domain, s_mask)
    return True, s_mask, ext_mask
