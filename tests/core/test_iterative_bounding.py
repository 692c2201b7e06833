"""Tests for the Algorithm 1 subprocedure."""

import itertools
import random

import pytest

from repro.core.iterative_bounding import check_and_emit_masked, iterative_bounding_masked
from repro.core.options import DEFAULT_OPTIONS, MinerOptions, MiningJob, ResultSink
from repro.core.quasiclique import is_quasi_clique

from conftest import GAMMAS, make_random_graph, masked


def make_job(graph, gamma, min_size, options=DEFAULT_OPTIONS):
    return MiningJob(
        graph=graph, gamma=gamma, min_size=min_size, sink=ResultSink(), options=options
    )


def oracle_has_proper_extension(g, s_set, ext_set, gamma, min_size):
    pool = sorted(ext_set)
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            s_prime = s_set | set(combo)
            if len(s_prime) >= min_size and is_quasi_clique(g, s_prime, gamma):
                return True
    return False


def bound_root(job, g, root=0):
    """Run Alg. 1 on S={root}, ext = the higher IDs; return global sets."""
    domain, s_mask, ext_mask = masked(g, [root], [v for v in g.vertices() if v > root])
    pruned, s_mask, ext_mask = iterative_bounding_masked(job, domain, s_mask, ext_mask)
    return pruned, set(domain.globals_of(s_mask)), set(domain.globals_of(ext_mask))


class TestContract:
    def test_false_implies_nonempty_ext(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = make_random_graph(9, 0.6, seed=seed)
            job = make_job(g, rng.choice(GAMMAS), rng.randint(1, 4))
            pruned, _, ext = bound_root(job, g)
            if not pruned:
                assert ext, "returned False with empty ext(S)"

    def test_requires_nonempty_s(self, triangle_graph):
        job = make_job(triangle_graph, 0.5, 2)
        with pytest.raises(ValueError):
            iterative_bounding_masked(job, *masked(triangle_graph, [], [0, 1]))

    def test_emitted_candidates_are_valid(self):
        for seed in range(10):
            g = make_random_graph(9, 0.6, seed=seed + 50)
            gamma = GAMMAS[seed % len(GAMMAS)]
            job = make_job(g, gamma, 2)
            bound_root(job, g)
            for cand in job.sink.results():
                assert len(cand) >= 2
                assert is_quasi_clique(g, cand, gamma)


class TestPruningSoundness:
    @pytest.mark.parametrize("seed", range(20))
    def test_true_means_no_unexplored_extension(self, seed):
        """If Alg. 1 prunes extensions, the oracle agrees none exist.

        The subprocedure may grow S (critical moves), so soundness is
        judged against the *final* S: no valid quasi-clique strictly
        extends the final S within final S ∪ ext.
        """
        rng = random.Random(seed)
        g = make_random_graph(rng.randint(5, 9), rng.uniform(0.4, 0.85), seed=seed + 9)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(1, 4)
        job = make_job(g, gamma, min_size)
        original_s = [min(g.vertices())]
        pruned, final_s, _ = bound_root(job, g, original_s[0])
        if pruned:
            # Any quasi-clique extending the ORIGINAL S via the ORIGINAL
            # candidates must be: (a) nonexistent, or (b) already emitted,
            # or (c) not larger than the final S (covered by caller).
            full_ext = set(v for v in g.vertices() if v > original_s[0])
            emitted = job.sink.results()
            for r in range(1, len(full_ext) + 1):
                for combo in itertools.combinations(sorted(full_ext), r):
                    q = set(original_s) | set(combo)
                    if len(q) >= min_size and is_quasi_clique(g, q, gamma):
                        covered = (
                            frozenset(q) in emitted
                            or q <= final_s
                            or any(q <= e for e in emitted)
                        )
                        # Type II pruning guarantees no *maximal* result
                        # lives strictly inside the pruned subtree; a
                        # non-maximal q may be legitimately skipped when
                        # a superset survives elsewhere in the tree.
                        has_superset = any(
                            len(bigger) > len(q) and is_quasi_clique(g, bigger, gamma)
                            for bigger in (
                                set(original_s) | set(c)
                                for rr in range(r + 1, len(full_ext) + 1)
                                for c in itertools.combinations(sorted(full_ext), rr)
                            )
                            if q < bigger
                        )
                        assert covered or has_superset, (
                            f"lost quasi-clique {sorted(q)} "
                            f"(gamma={gamma}, min_size={min_size})"
                        )


class TestCheckAndEmit:
    def test_emits_only_valid(self, figure4_graph):
        job = make_job(figure4_graph, 0.6, 4)
        domain, s1, small, not_qc = masked(
            figure4_graph, [0, 1, 2, 3], [0, 1, 2], [0, 5, 7, 8]
        )
        assert check_and_emit_masked(job, domain, s1)  # S1 is a 0.6-QC
        assert not check_and_emit_masked(job, domain, small)  # below min_size
        assert not check_and_emit_masked(job, domain, not_qc)  # not a QC
        assert job.sink.results() == {frozenset({0, 1, 2, 3})}


class TestOptionToggles:
    @pytest.mark.parametrize(
        "disabled",
        ["use_degree_prune", "use_upper_bound", "use_lower_bound", "use_critical_vertex"],
    )
    def test_each_rule_optional_without_changing_soundness(self, disabled):
        opts = MinerOptions(**{disabled: False})
        for seed in range(6):
            g = make_random_graph(8, 0.6, seed=seed + 77)
            job = make_job(g, 0.75, 3, options=opts)
            bound_root(job, g)
            for cand in job.sink.results():
                assert is_quasi_clique(g, cand, 0.75)
