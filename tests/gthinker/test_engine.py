"""End-to-end engine tests: oracle equivalence across every configuration."""

import gc
import random

import pytest

from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.options import MiningStats
from repro.graph.adjacency import Graph
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.vertex_store import LocalVertexTable

from conftest import GAMMAS, make_random_graph


def oracle(g, gamma, min_size):
    return enumerate_maximal_quasicliques(g, gamma, min_size)


class TestSerialEngine:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = make_random_graph(rng.randint(4, 11), rng.uniform(0.3, 0.8), seed=seed + 19)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(1, 4)
        out = mine_parallel(g, gamma, min_size, EngineConfig(decompose="none"))
        assert out.maximal == oracle(g, gamma, min_size)

    def test_metrics_populated(self):
        g = make_random_graph(12, 0.5, seed=3)
        out = mine_parallel(g, 0.75, 3, EngineConfig(decompose="none"))
        m = out.metrics
        assert m.tasks_spawned > 0
        assert m.tasks_executed > 0
        assert m.total_mining_ops > 0
        assert m.wall_seconds > 0
        assert m.results == len(out.maximal)


class TestDecompositionModes:
    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(decompose="size", tau_split=2),
            EngineConfig(decompose="size", tau_split=5),
            EngineConfig(decompose="timed", tau_time=0, time_unit="ops", tau_split=2),
            EngineConfig(decompose="timed", tau_time=8, time_unit="ops", tau_split=3),
            EngineConfig(decompose="timed", tau_time=100, time_unit="ops", tau_split=8),
        ],
        ids=["size2", "size5", "timed0", "timed8", "timed100"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_decomposition_preserves_results(self, config, seed):
        rng = random.Random(seed)
        g = make_random_graph(rng.randint(5, 11), rng.uniform(0.35, 0.8), seed=seed + 3)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(2, 4)
        out = mine_parallel(g, gamma, min_size, config)
        assert out.maximal == oracle(g, gamma, min_size)

    def test_aggressive_decomposition_creates_subtasks(self):
        g = make_random_graph(14, 0.6, seed=7)
        out = mine_parallel(
            g, 0.6, 3, EngineConfig(decompose="timed", tau_time=0, time_unit="ops", tau_split=2)
        )
        assert out.metrics.subtasks_created > 0
        assert out.metrics.tasks_decomposed > 0


class TestThreadedEngine:
    """M machines × T threads, on the serial executor's virtual clock."""

    @pytest.mark.parametrize("machines,threads", [(1, 2), (2, 1), (2, 2), (3, 2)])
    def test_matches_oracle(self, machines, threads):
        rng = random.Random(machines * 10 + threads)
        g = make_random_graph(11, 0.55, seed=machines + threads)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(2, 4)
        config = EngineConfig(
            num_machines=machines,
            threads_per_machine=threads,
            decompose="timed",
            tau_time=10,
            time_unit="ops",
            tau_split=3,
        )
        out = mine_parallel(g, gamma, min_size, config)
        assert out.maximal == oracle(g, gamma, min_size)

    def test_remote_messages_counted(self):
        g = make_random_graph(16, 0.5, seed=4)
        out = mine_parallel(
            g, 0.6, 3,
            EngineConfig(num_machines=4, decompose="none"),
        )
        assert out.metrics.remote_messages > 0


class TestSpillPath:
    def test_tiny_queues_force_spilling(self):
        g = make_random_graph(16, 0.6, seed=11)
        config = EngineConfig(
            decompose="timed",
            tau_time=0,
            time_unit="ops",
            tau_split=1,
            queue_capacity=2,
            batch_size=2,
        )
        out = mine_parallel(g, 0.6, 3, config)
        assert out.maximal == oracle(g, 0.6, 3)
        assert out.metrics.spill_batches > 0
        assert out.metrics.spill_bytes > 0


class TestReforgeAblation:
    def test_no_global_queue_still_correct(self):
        g = make_random_graph(12, 0.55, seed=9)
        config = EngineConfig(
            decompose="timed", tau_time=5, time_unit="ops", tau_split=2,
            use_global_queue=False,
        )
        out = mine_parallel(g, 0.75, 3, config)
        assert out.maximal == oracle(g, 0.75, 3)


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.graph.adjacency import Graph

        out = mine_parallel(Graph(), 0.9, 3, EngineConfig())
        assert out.maximal == set()

    def test_min_size_one(self):
        from repro.graph.adjacency import Graph

        g = Graph.from_edges([(0, 1)], vertices=range(3))
        out = mine_parallel(g, 1.0, 1, EngineConfig())
        assert out.maximal == {frozenset({0, 1}), frozenset({2})}

    def test_wall_clock_budget_mode(self):
        g = make_random_graph(12, 0.5, seed=6)
        config = EngineConfig(decompose="timed", tau_time=0.001, time_unit="wall")
        out = mine_parallel(g, 0.75, 3, config)
        assert out.maximal == oracle(g, 0.75, 3)


class TestRoots:
    """`roots` offers only some vertices to spawn: runs over the two
    halves of a split root set mine the full run's tasks between them."""

    CONFIGS = [
        pytest.param(EngineConfig(num_machines=2, threads_per_machine=2),
                     id="serial-2x2"),
        pytest.param(EngineConfig(backend="cluster", num_procs=2), id="cluster"),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_split_roots_sum_to_one_run(self, config):
        g = make_random_graph(16, 0.5, seed=8)
        full = mine_parallel(g, 0.75, 3, config)
        vertices = sorted(g.vertices())
        halves = [
            mine_parallel(g, 0.75, 3, config, roots=vertices[i::2]) for i in (0, 1)
        ]
        assert halves[0].candidates | halves[1].candidates == full.candidates
        stats = MiningStats()
        for half in halves:
            assert half.metrics.tasks_spawned > 0
            stats.merge(half.metrics.mining_stats)
        assert stats == full.metrics.mining_stats
        assert sum(h.metrics.tasks_spawned for h in halves) == full.metrics.tasks_spawned

    @pytest.mark.parametrize("config", CONFIGS)
    def test_no_roots_spawn_nothing(self, config):
        g = make_random_graph(16, 0.5, seed=8)
        out = mine_parallel(g, 0.75, 3, config, roots=[])
        assert out.metrics.tasks_spawned == 0
        assert out.candidates == set()


class TestJobReleasesItsState:
    """A finished job frees its machines, vertex tables and peeled graph
    by reference counting: nothing it built is left for a cyclic
    collection."""

    @pytest.mark.parametrize(
        "machines,threads",
        [
            pytest.param(1, 1, id="serial-1-1"),
            pytest.param(2, 2, id="sim-2x2"),
            pytest.param(2, 1, id="serial-2-1"),
        ],
    )
    def test_no_table_or_graph_outlives_the_job(self, machines, threads):
        def tracked():
            return [o for o in gc.get_objects() if isinstance(o, (Graph, LocalVertexTable))]

        g = make_random_graph(18, 0.5, seed=5)
        config = EngineConfig(
            num_machines=machines, threads_per_machine=threads,
        )
        gc.collect()
        gc.disable()
        try:
            # Held, not just their ids, so no new object can reuse an id.
            existing = tracked()
            ids = {id(o) for o in existing}
            out = mine_parallel(g, 0.75, 4, config)
            leftovers = [o for o in tracked() if id(o) not in ids]
        finally:
            gc.enable()
        assert out.maximal == oracle(g, 0.75, 4)
        assert leftovers == []
