"""Tests for graph statistics (networkx as oracle)."""

import networkx as nx
import pytest

from repro.graph.adjacency import Graph
from repro.graph.stats import (
    global_clustering_coefficient,
    graph_stats,
    triangle_count,
    wedge_count,
)

from conftest import make_random_graph


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


class TestCounts:
    @pytest.mark.parametrize("seed", range(6))
    def test_triangles_match_networkx(self, seed):
        g = make_random_graph(20, 0.3, seed=seed)
        assert triangle_count(g) == sum(nx.triangles(to_nx(g)).values()) // 3

    @pytest.mark.parametrize("seed", range(4))
    def test_transitivity_matches_networkx(self, seed):
        g = make_random_graph(20, 0.35, seed=seed + 9)
        assert global_clustering_coefficient(g) == pytest.approx(
            nx.transitivity(to_nx(g))
        )

    def test_wedges(self, triangle_graph):
        assert wedge_count(triangle_graph) == 3
        assert triangle_count(triangle_graph) == 1


class TestSummary:
    def test_matches_manual(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], vertices=range(5))
        s = graph_stats(g)
        assert s.num_vertices == 5
        assert s.num_edges == 4
        assert s.min_degree == 0
        assert s.max_degree == 3
        assert s.mean_degree == pytest.approx(1.6)
        assert s.median_degree == 2
        assert s.degeneracy == 2
        assert s.isolated_vertices == 1
        assert s.density == pytest.approx(4 / 10)

    def test_empty(self):
        s = graph_stats(Graph())
        assert s.num_vertices == 0
        assert s.degree_heavy_tail_ratio() == 0.0

    def test_heavy_tail_on_ba(self):
        from repro.graph.generators import barabasi_albert

        s = graph_stats(barabasi_albert(300, 2, seed=3))
        assert s.degree_heavy_tail_ratio() > 3.0
