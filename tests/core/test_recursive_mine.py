"""Focused unit tests for the walk's Algorithm 2 mechanics (beyond oracle equivalence).

The walk runs here under its default never-expiring budget; the
budget policies are covered in tests/gthinker/test_decompose.py.
"""

import random

import pytest

from repro.core.options import DEFAULT_OPTIONS, MinerOptions, MiningJob, ResultSink
from repro.core.quasiclique import is_quasi_clique
from repro.core.recursive_mine import recursive_mine_masked, select_cover_tail_masked
from repro.graph.adjacency import Graph
from repro.gthinker.clock import AlwaysExpired

from conftest import GAMMAS, make_random_graph, masked


def make_job(graph, gamma, min_size, options=DEFAULT_OPTIONS):
    return MiningJob(graph=graph, gamma=gamma, min_size=min_size,
                     sink=ResultSink(), options=options)


def mine(job, s, ext):
    """Run the walk on global-ID ⟨S, ext⟩ over a domain of job.graph."""
    return recursive_mine_masked(job, *masked(job.graph, s, ext))


class TestCoverTail:
    def test_select_cover_tail_disabled(self, figure4_graph):
        job = make_job(figure4_graph, 0.6, 3,
                       options=MinerOptions(use_cover_vertex=False))
        assert select_cover_tail_masked(job, *masked(figure4_graph, [0], [1, 2, 3, 4])) == 0

    def test_hand_example(self, figure4_graph):
        # S={a}, ext={b,c,d,e}: c and e both cover three ext vertices;
        # the lower ID wins, so C_S(c) = Γ_ext(c) = {b,d,e} is the tail.
        job = make_job(figure4_graph, 0.6, 3)
        domain, s_mask, ext_mask = masked(figure4_graph, [0], [1, 2, 3, 4])
        covered = select_cover_tail_masked(job, domain, s_mask, ext_mask)
        assert domain.globals_of(covered) == [1, 3, 4]
        assert job.stats.cover_skipped == 3

    def test_covered_vertices_ride_along_but_are_never_pivoted(self, figure4_graph):
        # One level of the walk on the state above (lookahead off so the
        # loop runs, critical moves off so S′ = S ∪ {pivot} exactly).
        opts = MinerOptions(use_lookahead=False, use_critical_vertex=False)
        job = make_job(figure4_graph, 0.6, 3, options=opts)
        domain, s_mask, ext_mask = masked(figure4_graph, [0], [1, 2, 3, 4])
        children = []
        recursive_mine_masked(
            job, domain, s_mask, ext_mask, AlwaysExpired(),
            lambda s, e: children.append((domain.globals_of(s), domain.globals_of(e))),
        )
        assert children == [([0, 2], [1, 3, 4])]


class TestReturnFlagSemantics:
    def test_true_iff_strict_superset_emitted(self):
        # Figure-4-style: S={a} extends into S2; found must be True.
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
        job = make_job(g, 0.6, 2)
        found = mine(job, [0], [1, 2, 3])
        assert found
        assert any(len(s) > 1 for s in job.sink.results())

    def test_false_when_nothing_extends(self):
        # Isolated root with an unreachable candidate at γ=1.
        g = Graph.from_edges([(0, 1)], vertices=[0, 1, 2])
        job = make_job(g, 1.0, 3)
        found = mine(job, [0], [1, 2])
        assert not found

    @pytest.mark.parametrize("seed", range(8))
    def test_flag_consistent_with_emissions(self, seed):
        rng = random.Random(seed)
        g = make_random_graph(rng.randint(5, 10), rng.uniform(0.4, 0.8), seed=seed + 71)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(2, 4)
        job = make_job(g, gamma, min_size)
        root = min(g.vertices())
        ext = sorted(v for v in g.vertices() if v > root)
        found = mine(job, [root], ext)
        bigger = [s for s in job.sink.results() if len(s) > 1 and root in s]
        if found:
            assert bigger, "found=True requires an emitted superset of {root}"


class TestEmissionValidity:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_emissions_valid(self, seed):
        rng = random.Random(seed + 100)
        g = make_random_graph(rng.randint(5, 11), rng.uniform(0.4, 0.8), seed=seed)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(2, 4)
        job = make_job(g, gamma, min_size)
        for root in sorted(g.vertices()):
            ext = sorted(v for v in g.vertices() if v > root)
            if ext:
                mine(job, [root], ext)
        for s in job.sink.results():
            assert len(s) >= min_size
            assert is_quasi_clique(g, s, gamma)

    def test_size_guard_stops_loop(self):
        # min_size larger than |S|+|ext| must terminate without emissions.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        job = make_job(g, 0.5, 10)
        assert not mine(job, [0], [1, 2])
        assert len(job.sink.results()) == 0
