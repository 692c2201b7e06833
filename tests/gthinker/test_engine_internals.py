"""White-box tests for engine scheduling internals."""

import pytest

from repro.core.options import ResultSink
from repro.gthinker.app_quasiclique import QuasiCliqueApp
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import GThinkerEngine
from repro.gthinker.task import Task
from repro.graph.adjacency import Graph

from conftest import make_random_graph


def make_engine(graph=None, **config_kwargs):
    graph = graph or make_random_graph(12, 0.5, seed=3)
    config = EngineConfig(**config_kwargs)
    app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
    return GThinkerEngine(graph, app, config)


def it3_task(task_id, ext_size):
    g = Graph.from_edges([(0, i) for i in range(1, ext_size + 1)])
    return Task(task_id=task_id, root=0, iteration=3, s=[0],
                ext=list(range(1, ext_size + 1)), graph=g)


class TestRouting:
    def test_big_task_goes_global(self):
        eng = make_engine(tau_split=4)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.core.route(it3_task(0, ext_size=10), machine, slot)
        assert len(machine.qglobal) == 1
        assert len(slot.qlocal) == 0

    def test_small_task_goes_local(self):
        eng = make_engine(tau_split=4)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.core.route(it3_task(0, ext_size=2), machine, slot)
        assert len(machine.qglobal) == 0
        assert len(slot.qlocal) == 1

    def test_global_queue_disabled_ablation(self):
        eng = make_engine(tau_split=4, use_global_queue=False)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.core.route(it3_task(0, ext_size=10), machine, slot)
        assert len(machine.qglobal) == 0
        assert len(slot.qlocal) == 1


class TestSpawnBatch:
    def test_stops_at_big_task(self):
        # A graph whose lowest-ID vertex is a hub: spawning must stop
        # after routing the hub's (big) task to the global queue.
        edges = [(0, i) for i in range(1, 30)] + [(i, i + 1) for i in range(1, 29)]
        g = Graph.from_edges(edges)
        eng = make_engine(graph=g, tau_split=5, batch_size=8)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.core.spawn_batch(machine, slot)
        assert len(machine.qglobal) == 1
        # Cursor advanced only past the vertices actually spawned.
        assert machine.spawn_pos <= 2

    def test_spawns_full_batch_of_small(self):
        g = Graph.from_edges([(i, i + 1) for i in range(0, 40, 2)])
        eng = make_engine(graph=g, tau_split=50, batch_size=4)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.core.spawn_batch(machine, slot)
        assert len(slot.qlocal) + len(machine.qglobal) <= 4
        assert machine.spawn_pos >= 4


class TestTermination:
    def test_active_counter_balanced_after_run(self):
        eng = make_engine(decompose="timed", tau_time=5, time_unit="ops", tau_split=2)
        eng.run()
        assert eng.core.live == 0
        assert all(m.spawn_exhausted() for m in eng.machines)

    def test_live_count_drains_on_two_machines_of_two_threads(self):
        eng = make_engine(num_machines=2, threads_per_machine=2, decompose="timed",
                          tau_time=5, time_unit="ops", tau_split=2)
        eng.run()
        assert eng.core.live == 0
        assert eng.metrics.peak_pending_tasks >= 1

    @pytest.mark.parametrize("machines,threads", [(1, 1), (2, 2)])
    def test_lost_task_raises_instead_of_a_short_result(self, machines, threads):
        """A task counted live but never queued strands the loop: it
        must raise, not return the family without that task's results."""
        eng = make_engine(num_machines=machines, threads_per_machine=threads)
        route = eng.core.route
        lost = []

        def route_but_lose_one(task, machine, slot):
            if not lost:
                lost.append(task)
                eng.core.live += 1
                return
            route(task, machine, slot)

        eng.core.route = route_but_lose_one
        with pytest.raises(RuntimeError, match="1 live task"):
            eng.run()

    def test_steal_application(self):
        eng = make_engine(num_machines=2, threads_per_machine=1, tau_split=1)
        src = eng.machines[0]
        slot = src.threads[0]
        for i in range(6):
            eng.core.route(it3_task(i, ext_size=5), src, slot)
        assert len(src.qglobal) == 6
        eng.core.apply_steals()
        assert len(eng.machines[1].qglobal) > 0
        assert eng.metrics.steals >= 1
        assert eng.metrics.steals_sent >= 1


class TestStealDonation:
    def test_steal_draws_on_spilled_big_tasks(self, tmp_path):
        """A donor whose in-memory Q_global is empty still gives the
        big tasks it spilled to L_big, which the planner counts."""
        eng = make_engine(num_machines=2, threads_per_machine=1, tau_split=1,
                          queue_capacity=2, batch_size=1,
                          spill_dir=str(tmp_path))
        src, dst = eng.machines
        for i in range(6):
            eng.core.route(it3_task(i, ext_size=5), src, src.threads[0])
        while src.qglobal.pop() is not None:
            pass
        assert len(src.lbig) and src.pending_big() > 0
        moved = eng.core.apply_steals()
        assert moved >= 1
        assert len(dst.qglobal) == moved
        # A move between the core's own machines retires no task.
        assert eng.core.live == 6
        for m in eng.machines:
            m.cleanup()
