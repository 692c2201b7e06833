"""The set-enumeration walk (paper Algorithms 2, 8 and 10 — one loop).

``recursive_mine_masked(job, domain, S, ext, budget, spawn_subtask)``
explores the set-enumeration subtree T_S: for each pivot v taken in
ascending local-ID order from ext(S) (cover-set vertices are never
pivoted), it forms S′ = S ∪ {v}, shrinks the candidate set with
diameter pruning (Theorem 1), runs the iterative bounding subprocedure
(Algorithm 1), and — when extensions survive — either recurses or, once
the `budget` has expired, hands ⟨S′, ext(S′)⟩ to `spawn_subtask`. The
budget is the only thing that tells the paper's three walks apart:

* never expires — Algorithm 2, plain backtracking;
* always expired — Algorithm 8's one-level split of a big task: every
  surviving child becomes a subtask, which splits again (or not) when
  it is scheduled. The paper shows this under-partitions some tasks and
  over-partitions others;
* expires after τ_time — Algorithm 10, time-delayed decomposition (the
  paper's headline technique): cheap tasks finish before the timeout
  and never pay decomposition overhead, expensive tasks are split
  exactly where the time went (Figure 9).

It returns True iff some valid quasi-clique *strictly containing* S was
emitted by this in-process walk, which the caller uses to decide
whether S′ itself should be emitted as a candidate maximal result.

Emitted results are candidates — some may be non-maximal (the paper's
set-enumeration scopes each task to quasi-cliques whose smallest vertex
is the spawn root, and a parent loses sight of a wrapped subtask's
results, so cross-task maximality needs the postprocessing in
:mod:`repro.core.postprocess`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

from .degrees import compute_degrees_masked
from .domain import TaskDomain, is_quasi_clique_masked
from .iterative_bounding import check_and_emit_masked, iterative_bounding_masked
from .options import MiningJob
from .pruning import cover_set_masked, diameter_filter_masked


class Budget(Protocol):
    """A τ_time budget consulted by the walk before each descent."""

    def expired(self) -> bool: ...


class NeverExpires:
    """Budget for decompose='none': tasks always mine to completion."""

    __slots__ = ()

    def expired(self) -> bool:
        return False


#: Callback materializing ⟨S′, ext(S′)⟩ into a new iteration-3 task:
#: ⟨s_mask, ext_mask⟩ in the parent domain's local IDs — the receiver
#: restricts the domain to s|ext and re-compacts.
SpawnSubtaskMask = Callable[[int, int], None]


def select_cover_tail_masked(
    job: MiningJob, domain: TaskDomain, s_mask: int, ext_mask: int
) -> int:
    """Pick the best cover vertex (P7) and return its covered mask (maybe 0)."""
    if not job.options.use_cover_vertex or not ext_mask:
        return 0
    view = compute_degrees_masked(domain, s_mask, ext_mask)
    cv = cover_set_masked(domain, s_mask, ext_mask, job.gamma, view)
    if cv is None:
        return 0
    job.stats.cover_skipped += cv.covered_mask.bit_count()
    return cv.covered_mask


def recursive_mine_masked(
    job: MiningJob,
    domain: TaskDomain,
    s_mask: int,
    ext_mask: int,
    budget: Budget = NeverExpires(),
    spawn_subtask: SpawnSubtaskMask | None = None,
) -> bool:
    """The budgeted walk over a :class:`TaskDomain` (see the module docstring).

    The cover tail is a mask that rides along in every child's
    candidate set but is never pivoted. `spawn_subtask` is required
    with any budget that can expire. Returns True iff some valid
    quasi-clique ⊃ S was emitted *by this in-process walk* (wrapped
    subtasks don't report back, which is why G(S′) is checked eagerly
    on the timeout path).
    """
    gamma = job.gamma
    min_size = job.min_size
    opts = job.options
    found = False
    job.stats.nodes_expanded += 1
    job.stats.mining_ops += 1 + ext_mask.bit_count()

    covered = select_cover_tail_masked(job, domain, s_mask, ext_mask)
    pending = ext_mask & ~covered
    s_size = s_mask.bit_count()
    while pending:
        low = pending & -pending
        v = low.bit_length() - 1
        remaining = pending | covered  # current ext(S), pivot included
        if s_size + remaining.bit_count() < min_size:
            return found
        if opts.use_lookahead and is_quasi_clique_masked(domain, s_mask | remaining, gamma):
            # Lookahead (Alg. 2 lines 8–10): S ∪ ext(S) is itself a valid
            # quasi-clique, so every proper extension is non-maximal.
            job.sink.emit(domain.globals_of(s_mask | remaining))
            job.stats.candidates_emitted += 1
            job.stats.lookahead_hits += 1
            return True

        pending ^= low
        s_prime = s_mask | low
        ext_base = pending | covered
        if opts.use_diameter_prune:
            ext_prime = diameter_filter_masked(domain, v, ext_base)
        else:
            ext_prime = ext_base

        if not ext_prime:
            # The check Quick misses: S′ has nothing to extend with but
            # may itself be a valid (maximal) quasi-clique.
            if opts.check_empty_ext_candidate and check_and_emit_masked(job, domain, s_prime):
                found = True
            continue

        pruned, s_prime, ext_prime = iterative_bounding_masked(job, domain, s_prime, ext_prime)
        if budget.expired():
            # Timeout: wrap the remaining workload of this child as a
            # task and keep backtracking (Alg. 10 lines 18–24).
            if not pruned and s_prime.bit_count() + ext_prime.bit_count() >= min_size:
                spawn_subtask(s_prime, ext_prime)
                check_and_emit_masked(job, domain, s_prime)
        elif not pruned and s_prime.bit_count() + ext_prime.bit_count() >= min_size:
            sub_found = recursive_mine_masked(
                job, domain, s_prime, ext_prime, budget, spawn_subtask
            )
            found = found or sub_found
            if not sub_found and check_and_emit_masked(job, domain, s_prime):
                found = True
    return found
