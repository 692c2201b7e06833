"""The iterative bound-based pruning subprocedure (paper Algorithm 1).

Given a mining state ⟨S, ext(S)⟩, repeatedly: recompute degrees and the
U_S/L_S bounds, apply critical-vertex moves (Theorem 9), run the
Type II battery over S (Theorems 4, 6, 8), then the Type I battery over
ext(S) (Theorems 3, 5, 7). Each Type I removal changes degrees and may
enable further pruning, so the loop repeats until ext(S) empties or a
full pass removes nothing.

Reports whether the *extensions* of S are pruned; when that happens
and G(S) itself remains a viable candidate, S is checked and emitted
here (the paper's fix over Quick). Critical moves grow S and Type I
pruning shrinks ext; ⟨S, ext(S)⟩ are bitmasks over a
:class:`repro.core.domain.TaskDomain` — immutable ints — so the updated
state is returned for the caller to continue with, where the paper's
pseudocode mutates its reference arguments.
"""

from __future__ import annotations

from .bounds import lower_bound, upper_bound
from .degrees import DegreeView, compute_degrees_masked, compute_ee_degrees_masked
from .domain import TaskDomain, bits, is_quasi_clique_masked
from .options import MiningJob
from .pruning import (
    Type2Outcome,
    find_critical_vertex,
    type1_degree_prunable,
    type1_lower_prunable,
    type1_upper_prunable,
    type2_degree_check,
    type2_lower_prunable,
    type2_upper_prunable,
)

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


def _compute_bounds(
    job: MiningJob, s_size: int, view: DegreeView
) -> tuple[int | None, int | None, str]:
    """(U_S, L_S, action) with the paper's Type II semantics on failure.

    An L_S failure (Eq. 7 or Eq. 8 infeasible) certifies S itself misses
    the degree floor → silent prune. A U_S failure (Eq. 4 infeasible)
    prunes extensions but G(S) must still be examined. U_S < L_S prunes
    silently (L_S ≥ 1 holds whenever that comparison can trigger).
    """
    opts = job.options
    l_s: int | None = None
    u_s: int | None = None
    if opts.use_lower_bound:
        l_s = lower_bound(job.gamma, s_size, view)
        if l_s is None:
            return None, None, _PRUNE_SILENT
    if opts.use_upper_bound:
        u_s = upper_bound(job.gamma, s_size, view)
        if u_s is None:
            return None, None, _PRUNE_CHECK_S
    if u_s is not None and l_s is not None and u_s < l_s:
        return u_s, l_s, _PRUNE_SILENT
    return u_s, l_s, _OK


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
    gamma = job.gamma
    opts = job.options
    stats = job.stats
    adj = domain.adj

    while True:
        stats.bounding_rounds += 1
        s_size = s_mask.bit_count()
        stats.mining_ops += s_size + ext_mask.bit_count()
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        u_s, l_s, action = _compute_bounds(job, s_size, view)
        if action == _PRUNE_SILENT:
            stats.type2_pruned += 1
            return True, s_mask, ext_mask
        if action == _PRUNE_CHECK_S:
            stats.type2_pruned += 1
            check_and_emit_masked(job, domain, s_mask)
            return True, s_mask, ext_mask

        # -- Part 1: critical-vertex move (Theorem 9) -------------------
        if opts.critical_vertex_enabled() and l_s is not None:
            critical = find_critical_vertex(gamma, s_size, view, l_s)
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
                view = compute_degrees_masked(domain, s_mask, ext_mask)
                u_s, l_s, action = _compute_bounds(job, s_size, view)
                if action == _PRUNE_SILENT:
                    stats.type2_pruned += 1
                    return True, s_mask, ext_mask
                if action == _PRUNE_CHECK_S:
                    stats.type2_pruned += 1
                    check_and_emit_masked(job, domain, s_mask)
                    return True, s_mask, ext_mask

        # -- Part 2: Type II battery over S ------------------------------
        ext_only_fired = False
        for v in bits(s_mask):
            d_s_v = view.in_s_of_s[v]
            d_ext_v = view.in_ext_of_s[v]
            if opts.use_degree_prune:
                outcome = type2_degree_check(gamma, s_size, d_s_v, d_ext_v)
                if outcome is Type2Outcome.ALL:
                    stats.type2_pruned += 1
                    return True, s_mask, ext_mask
                if outcome is Type2Outcome.EXT_ONLY:
                    ext_only_fired = True
            if (
                opts.use_upper_bound
                and u_s is not None
                and type2_upper_prunable(gamma, s_size, d_s_v, u_s)
            ):
                stats.type2_pruned += 1
                return True, s_mask, ext_mask
            if (
                opts.use_lower_bound
                and l_s is not None
                and type2_lower_prunable(gamma, s_size, d_s_v, d_ext_v, l_s)
            ):
                stats.type2_pruned += 1
                return True, s_mask, ext_mask
        if ext_only_fired:
            # Theorem 4 Condition (i): extensions die but G(S) survives.
            stats.type2_pruned += 1
            check_and_emit_masked(job, domain, s_mask)
            return True, s_mask, ext_mask

        # -- Part 3: Type I battery over ext(S) --------------------------
        ee = compute_ee_degrees_masked(domain, ext_mask, view)
        stats.mining_ops += ext_mask.bit_count()
        removed = 0
        for u in bits(ext_mask):
            d_s_u = view.in_s_of_ext[u]
            d_ext_u = ee[u]
            prune = (
                opts.use_degree_prune
                and type1_degree_prunable(gamma, s_size, d_s_u, d_ext_u)
            )
            if not prune and opts.use_upper_bound and u_s is not None:
                prune = type1_upper_prunable(gamma, s_size, d_s_u, u_s)
            if not prune and opts.use_lower_bound and l_s is not None:
                prune = type1_lower_prunable(gamma, s_size, d_s_u, d_ext_u, l_s)
            if prune:
                removed |= 1 << u
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
