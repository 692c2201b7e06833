"""Tests for vertex partitioning strategies."""

import pytest

from repro.core.naive import enumerate_maximal_quasicliques
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.partition import (
    balanced_degree_partitioner,
    edge_balance,
    hash_partitioner,
    make_partitioner,
    range_partitioner,
)

from conftest import make_random_graph


class TestStrategies:
    def test_hash_matches_paper_scheme(self):
        g = make_random_graph(20, 0.3, seed=1)
        p = hash_partitioner(g, 4)
        for v in g.vertices():
            assert p.owner(v) == v % 4

    def test_range_contiguous_and_balanced(self):
        g = make_random_graph(20, 0.3, seed=2)
        p = range_partitioner(g, 4)
        parts = p.parts()
        sizes = [len(part) for part in parts]
        assert sum(sizes) == g.num_vertices
        assert max(sizes) - min(sizes) <= 1
        # Contiguity: every part is an interval of the sorted vertex list.
        flat = [v for part in parts for v in part]
        assert flat == sorted(g.vertices())

    def test_balanced_degree_beats_hash_on_skew(self):
        # Star-heavy graph: hub degrees concentrate on low IDs.
        from repro.graph.adjacency import Graph

        edges = [(0, i) for i in range(1, 40)] + [(1, i) for i in range(20, 40)]
        g = Graph.from_edges(edges)
        hash_spread = edge_balance(g, hash_partitioner(g, 4))
        lpt_spread = edge_balance(g, balanced_degree_partitioner(g, 4))
        assert max(lpt_spread) - min(lpt_spread) <= max(hash_spread) - min(hash_spread)

    def test_every_vertex_assigned_in_range(self):
        g = make_random_graph(30, 0.2, seed=3)
        for strategy in ("hash", "range", "balanced_degree"):
            p = make_partitioner(strategy, g, 5)
            for v in g.vertices():
                assert 0 <= p.owner(v) < 5

    def test_unknown_vertex_falls_back_to_hash(self):
        g = make_random_graph(10, 0.3, seed=4)
        p = range_partitioner(g, 3)
        assert p.owner(999) == 999 % 3

    def test_unknown_strategy(self):
        g = make_random_graph(5, 0.5, seed=5)
        with pytest.raises(ValueError, match="unknown partition"):
            make_partitioner("metis", g, 2)

    def test_empty_graph(self):
        from repro.graph.adjacency import Graph

        p = range_partitioner(Graph(), 3)
        assert p.parts() == [[], [], []]


class TestEnginesWithPartitioners:
    @pytest.mark.parametrize("strategy", ["hash", "range", "balanced_degree"])
    def test_engine_results_invariant(self, strategy):
        g = make_random_graph(12, 0.55, seed=6)
        config = EngineConfig(
            num_machines=3, threads_per_machine=1,
            partition=strategy, decompose="timed", tau_time=10,
            time_unit="ops", tau_split=3,
        )
        out = mine_parallel(g, 0.75, 3, config)
        assert out.maximal == enumerate_maximal_quasicliques(g, 0.75, 3)

    @pytest.mark.parametrize("strategy", ["hash", "range", "balanced_degree"])
    def test_simulator_results_invariant(self, strategy):
        g = make_random_graph(11, 0.5, seed=7)
        config = EngineConfig(
            num_machines=3, threads_per_machine=2, partition=strategy,
            decompose="timed", tau_time=10, time_unit="ops", tau_split=3,
        )
        out = mine_parallel(g, 0.75, 3, config)
        assert out.maximal == enumerate_maximal_quasicliques(g, 0.75, 3)

    def test_invalid_config_strategy(self):
        with pytest.raises(ValueError):
            EngineConfig(partition="metis")
