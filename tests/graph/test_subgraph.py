"""Tests for spawn-subgraph extraction."""

from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.graph.subgraph import candidate_extension, spawn_subgraph
from repro.graph.traversal import bfs_distances

from conftest import make_random_graph


class TestSpawnSubgraph:
    def test_contains_root_or_empty(self):
        g = make_random_graph(30, 0.25, seed=9)
        for root in g.vertices():
            sub = spawn_subgraph(g, root, k=3)
            assert sub.num_vertices == 0 or root in sub

    def test_only_larger_ids(self):
        g = make_random_graph(30, 0.25, seed=9)
        root = 10
        sub = spawn_subgraph(g, root, k=2)
        for v in sub.vertices():
            assert v >= root

    def test_degrees_at_least_k(self):
        g = make_random_graph(30, 0.3, seed=4)
        k = 3
        for root in list(g.vertices())[:10]:
            sub = spawn_subgraph(g, root, k)
            for v in sub.vertices():
                assert sub.degree(v) >= k

    def test_members_within_two_hops_of_root(self):
        g = make_random_graph(30, 0.2, seed=7)
        root = 2
        sub = spawn_subgraph(g, root, k=2)
        if root in sub:
            dist = bfs_distances(g, root, max_depth=2)
            for v in sub.vertices():
                assert v in dist

    def test_low_degree_root_gives_empty(self):
        g = Graph.from_edges([(0, 1), (1, 2), (1, 3), (2, 3)])
        assert spawn_subgraph(g, 0, k=2).num_vertices == 0

    def test_is_a_k_core(self):
        g = make_random_graph(40, 0.25, seed=12)
        k = 3
        sub = spawn_subgraph(g, 1, k)
        if sub.num_vertices:
            assert k_core(sub, k) == sub

    def test_candidate_extension(self):
        g = make_random_graph(30, 0.3, seed=2)
        sub = spawn_subgraph(g, 0, k=2)
        if 0 in sub:
            ext = candidate_extension(sub, 0)
            assert 0 not in ext
            assert ext == sorted(ext)
            assert set(ext) == set(sub.vertices()) - {0}
