"""Tests for the original-Quick baseline and its documented result misses."""

import random

import pytest

from repro.core.miner import mine_maximal_quasicliques
from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.options import QUICK_OPTIONS
from repro.core.quasiclique import is_quasi_clique
from repro.core.quick import mine_quick, mine_quick_with_kcore, missed_results
from repro.graph.adjacency import Graph

from conftest import GAMMAS, make_random_graph


class TestQuickMissesResults:
    """Concrete instances (found by randomized search, now frozen) where
    the original Quick misses maximal quasi-cliques the paper's corrected
    algorithm finds — the Section 4 claim, reproduced."""

    CASES = [
        # (edges, gamma, min_size, a missed maximal quasi-clique)
        (
            [(0, 1), (0, 3), (1, 2), (1, 5), (2, 4), (2, 7), (4, 5), (5, 6), (6, 7)],
            0.5, 3, {0, 1, 3},
        ),
        ([(0, 1), (0, 2), (1, 4)], 0.6, 2, {0, 2}),
        ([(0, 1), (0, 2), (1, 3)], 0.5, 3, {0, 1, 2}),
    ]

    @pytest.mark.parametrize("edges,gamma,min_size,missed", CASES)
    def test_quick_misses_known_result(self, edges, gamma, min_size, missed):
        g = Graph.from_edges(edges)
        missed = frozenset(missed)
        want = enumerate_maximal_quasicliques(g, gamma, min_size)
        assert missed in want, "test case invalid: set not maximal"
        quick = mine_quick(g, gamma, min_size).maximal
        assert missed not in quick, "Quick unexpectedly found the result"
        full = mine_maximal_quasicliques(g, gamma, min_size).maximal
        assert full == want, "corrected algorithm must not miss anything"

    @pytest.mark.parametrize("edges,gamma,min_size,missed", CASES)
    def test_missed_results_helper(self, edges, gamma, min_size, missed):
        g = Graph.from_edges(edges)
        assert frozenset(missed) in missed_results(g, gamma, min_size)


def assert_valid_and_inside_truth(g, gamma, got, want):
    """What Quick does guarantee. `got ⊆ want` is *not* an invariant: a
    missed maximal set leaves its valid subsets unsuperseded, so they
    survive Quick's postprocessing as (non-maximal) outputs."""
    for qc in got:
        assert is_quasi_clique(g, qc, gamma)
        assert any(qc <= truth for truth in want), f"{sorted(qc)} is in no maximal set"


class TestQuickNeverInventsResults:
    @pytest.mark.parametrize("seed", range(10))
    def test_quick_output_valid_and_inside_truth(self, seed):
        rng = random.Random(seed)
        g = make_random_graph(rng.randint(4, 10), rng.uniform(0.3, 0.8), seed=seed + 5)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(2, 4)
        want = enumerate_maximal_quasicliques(g, gamma, min_size)
        quick = mine_quick(g, gamma, min_size).maximal
        assert_valid_and_inside_truth(g, gamma, quick, want)

    def test_output_need_not_be_maximal(self):
        # Frozen instance: Quick misses {0,1,2} and reports {1,2} instead.
        g = Graph.from_edges([(0, 2), (0, 3), (1, 2)])
        want = enumerate_maximal_quasicliques(g, 0.5, 2)
        quick = mine_quick(g, 0.5, 2).maximal
        assert_valid_and_inside_truth(g, 0.5, quick, want)
        assert frozenset({1, 2}) in quick - want


class TestQuickOptions:
    def test_flags(self):
        assert not QUICK_OPTIONS.kcore_preprocess
        assert not QUICK_OPTIONS.check_before_critical_expand
        assert not QUICK_OPTIONS.check_empty_ext_candidate
        # The pruning arsenal itself stays on — Quick has the rules,
        # it just misses output checks.
        assert QUICK_OPTIONS.use_lower_bound
        assert QUICK_OPTIONS.use_cover_vertex

    def test_quick_with_kcore_still_inside_truth(self):
        for seed in range(5):
            g = make_random_graph(10, 0.6, seed=seed + 41)
            want = enumerate_maximal_quasicliques(g, 0.75, 3)
            got = mine_quick_with_kcore(g, 0.75, 3).maximal
            assert_valid_and_inside_truth(g, 0.75, got, want)
