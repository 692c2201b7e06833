"""Tests for the serial executor on M x T virtual threads (its event loop)."""

import random

import pytest

from repro.core.naive import enumerate_maximal_quasicliques
from repro.gthinker.config import EngineConfig, check_topology
from repro.gthinker.engine import mine_parallel
from repro.graph.generators import planted_quasicliques

from conftest import GAMMAS, make_random_graph


def sim_config(**kw):
    base = dict(
        num_machines=1, threads_per_machine=1, tau_time=50,
        time_unit="ops", tau_split=4, decompose="timed",
    )
    base.update(kw)
    return EngineConfig(**base)


def makespan(out) -> float:
    """The run's virtual makespan; at 1 x 1 it is the total work."""
    return out.metrics.virtual_makespan or out.metrics.virtual_work


class TestCorrectness:
    # τ_split only reroutes big tasks (0: every task to Q_global, 50:
    # none), so it moves the schedule but never the result family.
    @pytest.mark.parametrize(
        "machines,threads,tau_split",
        [(1, 1, 4), (1, 4, 4), (2, 2, 4), (4, 2, 4), (2, 2, 0), (2, 2, 50)],
        ids=["1-1", "1-4", "2-2", "4-2", "2-2-split0", "2-2-split50"],
    )
    def test_matches_oracle(self, machines, threads, tau_split):
        rng = random.Random(machines * 7 + threads)
        g = make_random_graph(11, 0.55, seed=machines * 3 + threads)
        gamma = rng.choice(GAMMAS)
        min_size = rng.randint(2, 4)
        out = mine_parallel(
            g, gamma, min_size,
            sim_config(
                num_machines=machines, threads_per_machine=threads,
                tau_split=tau_split,
            ),
        )
        assert out.maximal == enumerate_maximal_quasicliques(g, gamma, min_size)


class TestDeterminism:
    def test_same_run_same_makespan(self):
        g = make_random_graph(14, 0.5, seed=8)
        a = mine_parallel(g, 0.75, 3, sim_config(threads_per_machine=4))
        b = mine_parallel(g, 0.75, 3, sim_config(threads_per_machine=4))
        assert a.metrics.virtual_makespan == b.metrics.virtual_makespan > 0
        assert a.metrics.virtual_work == b.metrics.virtual_work
        assert a.maximal == b.maximal

    def test_total_work_independent_of_parallelism(self):
        # Same ops-based decomposition → identical task set at any scale.
        g = make_random_graph(14, 0.5, seed=8)
        works = {
            mine_parallel(
                g, 0.75, 3, sim_config(threads_per_machine=t)
            ).metrics.virtual_work
            for t in (1, 2, 8)
        }
        assert len(works) == 1


class TestScalabilityShape:
    @pytest.fixture(scope="class")
    def workload(self):
        return planted_quasicliques(
            n=250, avg_degree=5, num_plants=5, plant_size=11, gamma=0.85, seed=4
        ).graph

    def test_more_threads_never_slower(self, workload):
        spans = []
        for t in (1, 2, 4, 8):
            out = mine_parallel(
                workload, 0.8, 8, sim_config(threads_per_machine=t, tau_time=300)
            )
            spans.append(makespan(out))
        for a, b in zip(spans, spans[1:]):
            assert b <= a * 1.01  # allow scheduling noise at saturation

    def test_vertical_speedup_materializes(self, workload):
        one = mine_parallel(workload, 0.8, 8, sim_config(tau_time=300))
        eight = mine_parallel(
            workload, 0.8, 8, sim_config(threads_per_machine=8, tau_time=300)
        )
        assert makespan(one) / makespan(eight) > 2.0

    def test_utilization_bounded(self, workload):
        out = mine_parallel(
            workload, 0.8, 8, sim_config(threads_per_machine=4, tau_time=300)
        )
        assert 0.0 < out.metrics.utilization <= 1.0 + 1e-9

    def test_horizontal_scaling_with_stealing(self, workload):
        # One thread per machine so machine count is the binding
        # constraint (at 4 threads the critical path already dominates).
        one = mine_parallel(workload, 0.8, 8, sim_config(tau_time=300))
        four = mine_parallel(
            workload, 0.8, 8,
            sim_config(num_machines=4, threads_per_machine=1, tau_time=300),
        )
        assert makespan(four) < makespan(one) * 0.7
        assert four.metrics.steals > 0, "expected big-task stealing activity"
        assert four.maximal == one.maximal


class TestVertexStorePin:
    """The M x T machines' vertex store is pinned: ownership, the
    absent-vertex shortcut, LRU caching and message counting must give
    these exact counters, and a message cost makes the virtual makespan
    depend on them too. A change to the store that is meant to move
    them (another cache or partition policy) updates the numbers and
    says why.

    Last moved when every front-end began mining the Theorem 2 core
    (``quasiclique_core``) and ``spawn`` began declining roots with
    fewer than k larger-ID neighbours: the machines hold only the
    6-core of ca_grqc and 39 roots spawn instead of 372, so each cell's
    messages fell by 91-95% and its makespan by 63-80%. The spawn gate
    alone (``kcore_preprocess=False``) gives (2599, 1828, 2599, 0,
    12452.0) for the ("hash", 1 << 16) cell."""

    #: (partition, cache_capacity) → (remote_messages, remote_vertex_hits,
    #: remote_vertex_misses, remote_vertex_evictions, virtual_makespan).
    PINNED = {
        ("hash", 1 << 16): (169, 172, 169, 0, 3432.0),
        ("hash", 4): (336, 5, 336, 324, 3604.0),
        ("range", 1 << 16): (95, 283, 95, 0, 6058.0),
        ("range", 4): (376, 2, 376, 368, 6444.0),
        ("balanced_degree", 1 << 16): (149, 177, 149, 0, 4195.0),
        ("balanced_degree", 4): (322, 4, 322, 310, 4415.0),
    }

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.core.miner import mine_maximal_quasicliques
        from repro.datasets import get_dataset

        spec = get_dataset("ca_grqc")
        graph = spec.build().graph
        oracle = mine_maximal_quasicliques(graph, spec.gamma, spec.min_size).maximal
        return spec, graph, oracle

    @pytest.mark.parametrize("partition,capacity", sorted(PINNED))
    def test_store_counters_and_makespan(self, instance, partition, capacity):
        spec, graph, oracle = instance
        config = sim_config(
            num_machines=3, threads_per_machine=2, tau_time=200, tau_split=8,
            partition=partition, cache_capacity=capacity, sim_message_cost=2.0,
        )
        out = mine_parallel(graph, spec.gamma, spec.min_size, config)
        m = out.metrics
        assert (
            m.remote_messages, m.remote_vertex_hits, m.remote_vertex_misses,
            m.remote_vertex_evictions, m.virtual_makespan,
        ) == self.PINNED[(partition, capacity)]
        assert len(out.maximal) == 12
        assert out.maximal == oracle


class TestGuards:
    def test_wall_clock_rejected(self):
        """Above 1 x 1 a task's cost is virtual time, so wall-clock
        budgets are a topology error (check_topology), raised before
        any task runs; at 1 x 1 they are legal."""
        g = make_random_graph(6, 0.5, seed=1)
        for shape in (dict(num_machines=2), dict(threads_per_machine=2)):
            config = EngineConfig(time_unit="wall", tau_time=1, **shape)
            with pytest.raises(ValueError, match="time_unit='ops'"):
                check_topology(config)
            with pytest.raises(ValueError, match="time_unit='ops'"):
                mine_parallel(g, 0.75, 3, config)
        check_topology(EngineConfig(time_unit="wall", tau_time=1))

    def test_message_cost_increases_makespan(self):
        g = make_random_graph(20, 0.4, seed=5)
        free = mine_parallel(
            g, 0.75, 3, sim_config(num_machines=4, threads_per_machine=1)
        )
        costly = mine_parallel(
            g, 0.75, 3,
            sim_config(num_machines=4, threads_per_machine=1, sim_message_cost=50.0),
        )
        assert costly.metrics.virtual_makespan > free.metrics.virtual_makespan
        assert costly.maximal == free.maximal
