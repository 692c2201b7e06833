"""Tests for the synthetic graph generators."""

import pytest

from repro.core.quasiclique import is_quasi_clique
from repro.graph.generators import (
    barabasi_albert,
    coexpression_like,
    erdos_renyi,
    planted_quasicliques,
    powerlaw_cluster,
)


class TestErdosRenyi:
    def test_determinism(self):
        assert erdos_renyi(50, 0.2, seed=7) == erdos_renyi(50, 0.2, seed=7)

    def test_seed_changes_graph(self):
        assert erdos_renyi(50, 0.2, seed=7) != erdos_renyi(50, 0.2, seed=8)

    def test_p_zero_and_one(self):
        assert erdos_renyi(10, 0.0, seed=1).num_edges == 0
        assert erdos_renyi(10, 1.0, seed=1).num_edges == 45

    def test_edge_count_near_expectation(self):
        g = erdos_renyi(200, 0.1, seed=3)
        expected = 0.1 * 200 * 199 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)


class TestBarabasiAlbert:
    def test_edge_count(self):
        g = barabasi_albert(100, 3, seed=1)
        assert g.num_edges == (100 - 3) * 3

    def test_heavy_tail(self):
        g = barabasi_albert(400, 2, seed=9)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        # Hubs should be far above the mean degree (~4).
        assert degrees[0] > 15

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 0)
        with pytest.raises(ValueError):
            barabasi_albert(5, 5)

    def test_determinism(self):
        assert barabasi_albert(60, 2, seed=4) == barabasi_albert(60, 2, seed=4)


class TestPowerlawCluster:
    def test_sizes(self):
        g = powerlaw_cluster(150, 3, 0.5, seed=2)
        assert g.num_vertices == 150
        assert g.num_edges == (150 - 3) * 3

    def test_triangle_closing_raises_clustering(self):
        import networkx as nx

        def avg_clustering(g):
            h = nx.Graph()
            h.add_nodes_from(g.vertices())
            h.add_edges_from(g.edges())
            return nx.average_clustering(h)

        plc = avg_clustering(powerlaw_cluster(300, 3, 0.9, seed=6))
        ba = avg_clustering(barabasi_albert(300, 3, seed=6))
        assert plc > ba


class TestPlanted:
    def test_planted_sets_are_quasicliques(self):
        pg = planted_quasicliques(
            n=200, avg_degree=4, num_plants=3, plant_size=9, gamma=0.85, seed=5
        )
        assert len(pg.planted) == 3
        for plant in pg.planted:
            assert len(plant) == 9
            assert is_quasi_clique(pg.graph, plant, 0.85)

    def test_overlapping_plants(self):
        pg = planted_quasicliques(
            n=150, avg_degree=4, num_plants=4, plant_size=8, gamma=0.9, seed=3, overlap=3
        )
        for a, b in zip(pg.planted, pg.planted[1:]):
            assert len(a & b) >= 1
        for plant in pg.planted:
            assert is_quasi_clique(pg.graph, plant, 0.9)

    def test_background_models(self):
        for model in ("ba", "plc", "er"):
            pg = planted_quasicliques(
                n=80, avg_degree=4, num_plants=1, plant_size=6, gamma=0.8,
                seed=1, background=model,
            )
            assert pg.graph.num_vertices == 80
        with pytest.raises(ValueError):
            planted_quasicliques(80, 4, 1, 6, 0.8, background="nope")

    def test_determinism(self):
        a = planted_quasicliques(100, 4, 2, 7, 0.9, seed=11)
        b = planted_quasicliques(100, 4, 2, 7, 0.9, seed=11)
        assert a.graph == b.graph
        assert a.planted == b.planted


class TestCoexpression:
    def test_modules_are_quasicliques(self):
        pg = coexpression_like(
            n_genes=120, n_modules=4, module_size=10, gamma=0.85, seed=2
        )
        assert len(pg.planted) == 4
        for module in pg.planted:
            assert is_quasi_clique(pg.graph, module, 0.85)
