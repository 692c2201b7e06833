"""Tests for k-core peeling and core decomposition (networkx as oracle)."""

import networkx as nx
import pytest

from repro.core.miner import quasiclique_core
from repro.core.options import MinerOptions
from repro.graph.adjacency import Graph
from repro.graph.kcore import core_numbers, k_core, k_core_vertices, peel_adjacency

from conftest import make_random_graph


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


class TestCoreNumbers:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = make_random_graph(30, 0.15 + 0.05 * seed, seed=seed)
        assert core_numbers(g) == nx.core_number(to_nx(g))

    def test_empty(self):
        assert core_numbers(Graph()) == {}

    def test_clique(self):
        g = Graph.from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert core_numbers(g) == {v: 4 for v in range(5)}


class TestKCore:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_networkx(self, k):
        g = make_random_graph(30, 0.25, seed=11)
        ours = set(k_core(g, k).vertices())
        theirs = set(nx.k_core(to_nx(g), k).nodes())
        assert ours == theirs

    def test_all_degrees_at_least_k(self):
        g = make_random_graph(40, 0.2, seed=2)
        core = k_core(g, 3)
        for v in core.vertices():
            assert core.degree(v) >= 3

    def test_maximality(self):
        # No removed vertex could survive: each has < k neighbors in core.
        g = make_random_graph(40, 0.2, seed=6)
        k = 3
        core_v = k_core_vertices(g, k)
        # Greedy re-add check: adding back any single vertex keeps it under k.
        for v in g.vertices():
            if v not in core_v:
                assert g.degree_in(v, core_v) < k

    def test_k_zero_is_identity(self):
        g = make_random_graph(10, 0.3, seed=1)
        assert k_core(g, 0) == g

    def test_too_large_k_empty(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert k_core(g, 5).num_vertices == 0


class TestPeelAdjacency:
    def test_basic_peel(self):
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {0}}
        # 3 has degree 1 < 2; 0's set does not list 3 (asymmetric builds
        # happen mid-construction) so only 3 dies.
        peel_adjacency(adj, 2)
        assert 3 not in adj
        assert set(adj) == {0, 1, 2}

    def test_destination_only_vertices_count_but_never_peel(self):
        # Vertex 9 appears only as a destination: contributes to degree
        # of 0 but is itself untouchable (paper Alg. 6 note).
        adj = {0: {1, 9}, 1: {0, 9}}
        peel_adjacency(adj, 2)
        assert set(adj) == {0, 1}

    def test_cascade(self):
        # Path 0-1-2-3: 1-core keeps all, 2-core kills all.
        adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        peel_adjacency(adj, 2)
        assert adj == {}

    def test_k_zero_noop(self):
        adj = {0: set()}
        peel_adjacency(adj, 0)
        assert adj == {0: set()}


class TestQuasicliqueCore:
    def test_threshold(self):
        # γ=0.9, τ_size=18 → k = ceil(0.9·17) = 16 (paper's YouTube run).
        g = make_random_graph(30, 0.4, seed=5)
        shrunk = quasiclique_core(g, 0.9, 18)
        assert set(shrunk.vertices()) == set(k_core(g, 16).vertices())

    def test_off_returns_the_input(self):
        g = make_random_graph(30, 0.4, seed=5)
        assert quasiclique_core(g, 0.9, 18, MinerOptions(kcore_preprocess=False)) is g

    def test_invalid_gamma_raises_before_peeling(self):
        with pytest.raises(ValueError, match="gamma must be in"):
            quasiclique_core(Graph(), 0.3, 5)

    def test_preserves_valid_quasicliques(self):
        from repro.core.naive import enumerate_maximal_quasicliques

        g = make_random_graph(12, 0.6, seed=3)
        gamma, min_size = 0.6, 4
        shrunk = quasiclique_core(g, gamma, min_size)
        want = enumerate_maximal_quasicliques(g, gamma, min_size)
        for qc in want:
            assert qc <= set(shrunk.vertices())
