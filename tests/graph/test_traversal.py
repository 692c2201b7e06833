"""Tests for BFS, 2-hop neighborhoods, and connectivity (networkx oracle)."""

import networkx as nx
import pytest

from repro.graph.adjacency import Graph
from repro.graph.traversal import (
    bfs_distances,
    diameter,
    is_connected_subset,
    two_hop_neighbors,
    within_two_hops,
)

from conftest import make_random_graph


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


class TestBfs:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        g = make_random_graph(25, 0.15, seed=seed)
        src = 0
        ours = bfs_distances(g, src)
        theirs = nx.single_source_shortest_path_length(to_nx(g), src)
        assert ours == dict(theirs)

    def test_max_depth(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert bfs_distances(g, 0, max_depth=2) == {0: 0, 1: 1, 2: 2}


class TestTwoHop:
    def test_paper_example(self, figure4_graph):
        # B(e) = {f, g, h, i} ∪ Γ(e); two_hop_neighbors returns N+2 − {v}.
        e = 4
        expected_gamma = {0, 1, 2, 3}  # a, b, c, d
        expected_b = {5, 6, 7, 8}  # f, g, h, i
        assert two_hop_neighbors(figure4_graph, e) == expected_gamma | expected_b

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs(self, seed):
        g = make_random_graph(20, 0.2, seed=seed)
        for v in g.vertices():
            dist = bfs_distances(g, v, max_depth=2)
            expected = {u for u, d in dist.items() if 0 < d <= 2}
            assert two_hop_neighbors(g, v) == expected

    def test_within_two_hops(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert within_two_hops(g, 0, 2)
        assert not within_two_hops(g, 0, 3)
        assert within_two_hops(g, 0, 0)
        assert within_two_hops(g, 0, 1)


class TestConnectivity:
    def test_subset_connectivity(self, two_cliques_bridge):
        assert is_connected_subset(two_cliques_bridge, {0, 1, 2, 3})
        assert not is_connected_subset(two_cliques_bridge, {0, 5})
        assert is_connected_subset(two_cliques_bridge, {3, 4})
        assert is_connected_subset(two_cliques_bridge, {2})
        assert is_connected_subset(two_cliques_bridge, set())


class TestDiameter:
    def test_path(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert diameter(g) == 3

    def test_disconnected_raises(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            diameter(g)

    def test_quasiclique_diameter_bound(self, figure4_graph):
        # Theorem 1 backdrop: any 0.6-quasi-clique has diameter ≤ 2.
        from repro.core.naive import enumerate_quasicliques

        for qc in enumerate_quasicliques(figure4_graph, 0.6, 3):
            sub = figure4_graph.subgraph(qc)
            assert diameter(sub) <= 2
