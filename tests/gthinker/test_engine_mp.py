"""Tests for the process backend (``mine_parallel`` with backend="process").

``backend="process"`` is the cluster runtime on localhost with
warm-start workers: every worker holds the whole Theorem 2 core, so no
partition ships and no vertex is fetched, while the master reactor
leases work, plans steals and recovers from failures, and the
launcher respawns dead workers.
"""

import threading

import pytest
from conftest import launch_mining

from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.options import MiningStats, ResultSink
from repro.graph.adjacency import Graph
from repro.graph.generators import planted_quasicliques
from repro.gthinker.chaos import (
    ErrorOnRootApp,
    FaultInjection,
    KillOnRootApp,
    WedgeOnRootApp,
)
from repro.gthinker.config import EngineConfig
from repro.gthinker.cluster import run_cluster_app
from repro.gthinker.engine import mine_parallel
from repro.gthinker.obs.spans import parse_detail
from repro.gthinker.tracing import Tracer


@pytest.fixture(scope="module")
def planted():
    return planted_quasicliques(
        n=90, avg_degree=5, num_plants=2, plant_size=8, gamma=0.9, seed=11
    )


def small_config(**overrides) -> EngineConfig:
    base = dict(
        backend="process", num_procs=2, tau_split=4, tau_time=100,
        queue_capacity=4, batch_size=2, decompose="timed",
    )
    base.update(overrides)
    return EngineConfig(**base)


def run_process_app(graph, app, config, **kwargs):
    """One process-backend job of a raw app (no Theorem 2 peel)."""
    return run_cluster_app(graph, app, config, warm_start=True, **kwargs)


def retry_schedule(tracer: Tracer) -> list[tuple[int, int, float]]:
    """(work id, failed attempt, backoff delay) per scheduled retry."""
    return [
        (e.task_id, int(d["attempt"]), float(d["delay"]))
        for e in tracer.events(kind="task_retried")
        for d in [parse_detail(e.detail)]
    ]


class TestConfig:
    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="mpi")

    def test_cluster_knob_validation(self):
        with pytest.raises(ValueError, match="heartbeat_period"):
            EngineConfig(heartbeat_period=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            EngineConfig(heartbeat_period=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError, match="cluster_chunk_size"):
            EngineConfig(cluster_chunk_size=-1)

    @pytest.mark.parametrize("knobs,match", [
        ({"batch_size": 0}, "batch_size"),
        ({"queue_capacity": 4, "batch_size": 8}, "queue_capacity"),
        ({"cache_capacity": 0}, "cache_capacity"),
        ({"cache_capacity": -1}, "cache_capacity"),
    ])
    def test_queue_and_cache_knob_validation(self, knobs, match):
        # Rejected at construction, so service admission (from_payload)
        # refuses them instead of the engine failing at start.
        with pytest.raises(ValueError, match=match):
            EngineConfig.from_payload(knobs)
        EngineConfig.from_payload({"queue_capacity": 4, "batch_size": 4,
                                   "cache_capacity": 1})

    def test_num_procs_validation(self):
        with pytest.raises(ValueError, match="num_procs"):
            EngineConfig(num_procs=-1)

    def test_resolved_num_procs(self):
        assert EngineConfig(num_procs=3).resolved_num_procs == 3
        assert EngineConfig(num_procs=0).resolved_num_procs >= 1

    def test_fault_tolerance_knob_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            EngineConfig(max_attempts=0)
        with pytest.raises(ValueError, match="retry_backoff"):
            EngineConfig(retry_backoff=-0.1)

    def test_retry_delay_doubles_per_attempt(self):
        cfg = EngineConfig(retry_backoff=0.05)
        assert [cfg.retry_delay(a) for a in (1, 2, 3)] == [0.05, 0.1, 0.2]
        with pytest.raises(ValueError):
            cfg.retry_delay(0)



class TestResultEquivalence:
    def test_matches_oracle_fork(self, planted):
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        out = mine_parallel(planted.graph, 0.9, 7, small_config())
        assert out.maximal == expected.maximal

    def test_matches_oracle_spawn_shared_memory(self, planted):
        """Under spawn the Theorem 2 core rides pickled as the worker
        process's argument (there is no fork to inherit it through)."""
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        out = mine_parallel(
            planted.graph, 0.9, 7, small_config(), start_method="spawn"
        )
        assert out.maximal == expected.maximal

    def test_small_oracle_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        expected = enumerate_maximal_quasicliques(g, 0.9, 3)
        out = mine_parallel(g, 0.9, 3, small_config())
        assert out.maximal == expected

    def test_mine_parallel_dispatches_on_backend(self, planted):
        """The one front door peels before it dispatches: the process
        backend spawns from the same Theorem 2 core as serial."""
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        out = mine_parallel(planted.graph, 0.9, 7, small_config())
        assert out.maximal == expected.maximal
        assert out.metrics.tasks_spawned == expected.metrics.tasks_spawned

    def test_multi_machine_with_stealing(self, planted):
        """Three worker processes with the steal planner running every
        millisecond: big tasks move between workers, results do not."""
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        out = mine_parallel(
            planted.graph, 0.9, 7,
            small_config(num_procs=3, steal_period_seconds=0.001),
        )
        assert out.maximal == expected.maximal

    def test_warm_start_ships_no_partition_and_fetches_nothing(
        self, planted, monkeypatch
    ):
        """Every worker holds the whole core: each Welcome carries no
        vertex table, and no read goes remote."""
        from repro.gthinker.cluster.protocol import Welcome
        from repro.gthinker.cluster.reactor import MasterReactor

        sent = []
        send = MasterReactor._send

        def recording_send(self, worker, message, now):
            sent.append(message)
            send(self, worker, message, now)

        monkeypatch.setattr(MasterReactor, "_send", recording_send)
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        out = mine_parallel(planted.graph, 0.9, 7, small_config())
        assert out.maximal == expected.maximal
        assert out.metrics.remote_messages == 0
        assert out.metrics.remote_vertex_misses == 0
        welcomes = [m for m in sent if isinstance(m, Welcome)]
        assert welcomes, "no worker registered"
        assert all(w.table_blob is None for w in welcomes)


class TestMetricsAndTracing:
    def test_worker_metrics_merge_into_parent(self, planted):
        out = mine_parallel(planted.graph, 0.9, 7, small_config())
        m = out.metrics
        assert m.tasks_spawned > 0
        assert m.tasks_executed > 0
        assert m.task_records, "per-task records must cross the process boundary"
        assert m.mining_stats.mining_ops > 0
        assert m.mining_stats.nodes_expanded > 0
        assert m.wall_seconds > 0
        assert m.results == len(out.maximal)

    def test_decomposition_remainders_cross_processes(self, planted):
        out = mine_parallel(
            planted.graph, 0.9, 7, small_config(tau_time=20)
        )
        assert out.metrics.tasks_decomposed > 0
        assert out.metrics.subtasks_created > 0

    def test_tracer_receives_worker_events(self, planted):
        tracer = Tracer()
        mine_parallel(planted.graph, 0.9, 7, small_config(), tracer=tracer)
        kinds = set(tracer.counts())
        assert {"spawn", "execute", "finish"} <= kinds
        # Worker-origin events carry the worker id in the machine field
        # (the master reactor's fold attributes them); a worker's events
        # carry no worker-local thread, so thread stays -1.
        executes = tracer.events(kind="execute")
        assert all(e.machine >= 0 for e in executes)
        assert all(e.thread == -1 for e in executes)


class _UnpicklableApp:
    """Valid protocol surface, but carries a lock no pickle can ship."""

    def __init__(self):
        self.sink = ResultSink()
        self.stats = MiningStats()
        self.lock = threading.Lock()

    def spawn(self, vertex, adjacency, task_id):
        return None

    def compute(self, task, frontier, ctx):
        raise AssertionError("never runs")


class TestFailureModes:
    def test_unpicklable_app_raises_at_construction(self, planted):
        """The clear error belongs in the parent, not inside a worker."""
        with pytest.raises(TypeError, match="not picklable"):
            run_process_app(planted.graph, _UnpicklableApp(), small_config())

    def test_unknown_start_method_rejected(self, planted):
        from repro.core.options import DEFAULT_OPTIONS
        from repro.gthinker.app_quasiclique import QuasiCliqueApp

        app = QuasiCliqueApp(0.9, 7, sink=ResultSink(), options=DEFAULT_OPTIONS)
        with pytest.raises(ValueError, match="start method"):
            run_process_app(
                planted.graph, app, small_config(), start_method="teleport"
            )

    def test_gthinker_engine_rejects_process_backend(self, planted):
        from repro.core.options import DEFAULT_OPTIONS
        from repro.gthinker.app_quasiclique import QuasiCliqueApp
        from repro.gthinker.engine import GThinkerEngine

        app = QuasiCliqueApp(0.9, 7, sink=ResultSink(), options=DEFAULT_OPTIONS)
        engine = GThinkerEngine(planted.graph, app, small_config())
        with pytest.raises(ValueError, match="use mine_parallel"):
            engine.run()


def one_vertex_graph() -> Graph:
    """Exactly one task (in one work unit) ever exists, so fault
    accounting is exact — no innocent neighbor can be quarantined as
    collateral."""
    return Graph.from_edges([], vertices=[0])


class TestFaultTolerance:
    """Worker supervision: lease reclaim, backoff retry, respawn, and
    quarantine."""

    def test_injected_worker_death_recovers_and_matches_oracle(self, planted):
        """A SIGKILLed worker must cost nothing but a respawn: the job
        finishes and the results equal the fault-free run's.

        One worker, so the kill is certain: it drains its first two
        units, acknowledges them, and dies on the next one (with a peer,
        this millisecond job can end before the targeted worker is
        leased a third unit)."""
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        tracer = Tracer()
        out = launch_mining(
            planted.graph, 0.9, 7,
            small_config(retry_backoff=0.001, num_procs=1),
            tracer=tracer,
            fault_injection=FaultInjection(worker_id=0, after_batches=1),
        )
        assert out.maximal == expected.maximal
        assert out.metrics.workers_died == 1
        assert out.metrics.tasks_retried >= 1
        assert out.metrics.tasks_quarantined == 0
        assert len(tracer.events(kind="worker_died")) == 1
        # One task_retried event per reclaimed work unit, sized in tasks.
        assert sum(
            int(parse_detail(e.detail)["size"])
            for e in tracer.events(kind="task_retried")
        ) == out.metrics.tasks_retried

    def test_injected_death_under_spawn_start_method(self, planted):
        """Same recovery with spawn workers: the replacement is spawned
        too, and gets the Theorem 2 core pickled as its argument.

        One worker, killed on its first work unit, so the death is
        certain: with two spawned workers the job can end before the
        targeted one has even connected.
        """
        expected = mine_parallel(planted.graph, 0.9, 7, EngineConfig())
        out = launch_mining(
            planted.graph, 0.9, 7,
            small_config(retry_backoff=0.001, batch_size=1, num_procs=1),
            start_method="spawn",
            fault_injection=FaultInjection(worker_id=0, after_batches=0),
        )
        assert out.maximal == expected.maximal
        assert out.metrics.workers_died == 1

    def test_poison_task_quarantined_exactly_once(self):
        """A task that kills its worker on every attempt is dispatched
        exactly max_attempts times, retried with doubling backoff, then
        quarantined exactly once — and the run still returns."""
        cfg = small_config(
            num_procs=1, batch_size=1, max_attempts=3, retry_backoff=0.01
        )
        tracer = Tracer()
        out = run_process_app(
            one_vertex_graph(), KillOnRootApp(poison_root=0), cfg, tracer=tracer
        )
        assert out.metrics.workers_died == 3  # one death per attempt
        assert out.metrics.tasks_retried == 2
        assert out.metrics.tasks_quarantined == 1
        assert out.candidates == set()
        # The quarantined unit (work id 0, root 0's spawn range)
        # surfaces exactly once.
        quarantine_events = tracer.events(kind="task_quarantined")
        assert [e.task_id for e in quarantine_events] == [0]
        assert quarantine_events[0].detail == "attempts=3 size=1"
        # Attempt counts and the exponential backoff sequence.
        assert retry_schedule(tracer) == [(0, 1, 0.01), (0, 2, 0.02)]
        assert len(tracer.events(kind="worker_died")) == 3

    def test_wedged_worker_reclaimed_on_lease_expiry(self):
        """A worker that blocks forever sends no heartbeat (its driver
        is single-threaded), so it is declared dead once
        heartbeat_timeout passes; the launcher terminates and replaces
        it."""
        cfg = small_config(
            num_procs=1, batch_size=1, max_attempts=2, retry_backoff=0.01,
            heartbeat_period=0.05, heartbeat_timeout=0.3,
        )
        out = run_process_app(
            one_vertex_graph(),
            WedgeOnRootApp(poison_root=0, wedge_seconds=60.0),
            cfg,
        )  # must return despite the 60s sleeps
        assert out.metrics.workers_died == 2
        assert out.metrics.tasks_quarantined == 1
        assert out.candidates == set()

    def test_app_error_recorded_and_survived(self, capfd):
        """compute() raising inside a worker is a worker failure, not a
        run failure: traceback on stderr, task retried to quarantine,
        healthy work unaffected."""
        cfg = small_config(
            num_procs=1, batch_size=1, max_attempts=2, retry_backoff=0.01
        )
        out = run_process_app(
            one_vertex_graph(), ErrorOnRootApp(poison_root=0), cfg
        )
        assert out.metrics.tasks_quarantined == 1
        assert out.metrics.workers_died == 2
        err = capfd.readouterr().err
        # One traceback per attempt.
        assert err.count("ValueError: injected fault mining root 0") == 2

    def test_healthy_roots_survive_a_poison_neighbor(self):
        """Multi-task graph with one poison root: every root that is
        never co-leased behind the poison one still yields its result,
        and the poison task is quarantined exactly once."""
        g = Graph.from_edges([(i, i + 1) for i in range(5)], vertices=range(6))
        cfg = small_config(
            num_procs=2, batch_size=1, max_attempts=2, retry_backoff=0.01,
            cluster_chunk_size=1, lease_window=1,
        )
        tracer = Tracer()
        out = run_process_app(g, KillOnRootApp(poison_root=0), cfg, tracer=tracer)
        assert len(tracer.events(kind="task_quarantined")) == 1
        assert out.metrics.tasks_quarantined == 1
        # One spawn vertex per work unit and one unit per lease: no
        # healthy root is co-leased with the poison one, so every one
        # of them must have been mined.
        assert out.candidates == {frozenset([v]) for v in range(1, 6)}

    def test_no_injection_means_no_fault_metrics(self, planted):
        out = mine_parallel(planted.graph, 0.9, 7, small_config())
        assert out.metrics.workers_died == 0
        assert out.metrics.tasks_retried == 0
        assert out.metrics.tasks_quarantined == 0
