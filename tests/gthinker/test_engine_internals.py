"""White-box tests for engine scheduling internals."""


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
        eng.add_task(it3_task(0, ext_size=10), machine, slot)
        assert len(machine.qglobal) == 1
        assert len(slot.qlocal) == 0

    def test_small_task_goes_local(self):
        eng = make_engine(tau_split=4)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.add_task(it3_task(0, ext_size=2), machine, slot)
        assert len(machine.qglobal) == 0
        assert len(slot.qlocal) == 1

    def test_global_queue_disabled_ablation(self):
        eng = make_engine(tau_split=4, use_global_queue=False)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng.add_task(it3_task(0, ext_size=10), machine, slot)
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
        eng._spawn_batch(machine, slot)
        assert len(machine.qglobal) == 1
        # Cursor advanced only past the vertices actually spawned.
        assert machine.spawn_pos <= 2

    def test_spawns_full_batch_of_small(self):
        g = Graph.from_edges([(i, i + 1) for i in range(0, 40, 2)])
        eng = make_engine(graph=g, tau_split=50, batch_size=4)
        machine = eng.machines[0]
        slot = machine.threads[0]
        eng._spawn_batch(machine, slot)
        assert len(slot.qlocal) + len(machine.qglobal) <= 4
        assert machine.spawn_pos >= 4


class TestTermination:
    def test_active_counter_balanced_after_run(self):
        eng = make_engine(decompose="timed", tau_time=5, time_unit="ops", tau_split=2)
        eng.run()
        assert eng._active == 0
        assert eng._done.is_set()
        assert all(m.spawn_exhausted() for m in eng.machines)

    def test_not_all_spawned_while_a_spawn_is_in_flight(self):
        """A vertex already off its cursor but not yet routed keeps the
        job open. Otherwise an idle thread elsewhere sees every cursor
        exhausted and no active task, ends the job, and the root's task
        is stranded in a queue nobody pops."""
        from repro.core.options import MiningStats

        seen = []

        class Probe:
            sink = ResultSink()
            stats = MiningStats()

            def spawn(self, vertex, adjacency, task_id):
                seen.append(eng.core.all_spawned())
                return None

            def compute(self, task, frontier, ctx):
                raise AssertionError("every spawn declines")

        eng = GThinkerEngine(Graph.from_edges([(0, 1)]), Probe(), EngineConfig())
        machine = eng.machines[0]
        eng._spawn_batch(machine, machine.threads[0])
        assert seen == [False, False]
        assert eng.core.all_spawned()

    def test_steal_application(self):
        eng = make_engine(num_machines=2, threads_per_machine=1, tau_split=1)
        src = eng.machines[0]
        slot = src.threads[0]
        for i in range(6):
            eng.add_task(it3_task(i, ext_size=5), src, slot)
        assert len(src.qglobal) == 6
        eng._apply_steals()
        assert len(eng.machines[1].qglobal) > 0
        assert eng.metrics.steals >= 1
        assert eng.metrics.stolen_tasks >= 1
