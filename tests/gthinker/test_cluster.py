"""Cluster runtime integration tests: real sockets, real processes.

Four acceptance properties of the TCP master/worker engine:

1. **Oracle equivalence** — a 2-worker localhost cluster produces
   exactly the brute-force family of maximal quasi-cliques.
2. **Observable stealing** — under asymmetric load (one worker owning
   a mountain of slow big tasks, its peer idle), the master's planner
   must fire and every transfer must leave the `steal_planned` /
   `steal_sent` / `steal_received` triple in the trace and metrics.
3. **Fault tolerance** — SIGKILLing a worker mid-job (fork and spawn)
   must be invisible in the result set: the master reclaims its leases
   and the at-least-once re-mining deduplicates away.
4. **Job lifecycle** — hand-off is not paced by the heartbeat, and a
   job ends without leaking its master or waiting on late workers.

On an equivalence failure the master-side trace is dumped as JSONL
under $CLUSTER_TRACE_DIR (the CI smoke job uploads it as an artifact).
"""

import gc
import multiprocessing
import os
import threading
import time

import pytest
from conftest import launch_mining, make_random_graph

from repro.core.miner import mine_maximal_quasicliques
from repro.core.naive import enumerate_maximal_quasicliques
from repro.graph.adjacency import Graph
from repro.graph.generators import planted_quasicliques
from repro.gthinker.chaos import FaultInjection, SleepyBigTaskApp
from repro.gthinker.cluster import run_cluster_app
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.tracing import Tracer

#: Hard wall-clock bound on any single cluster job in this file: a
#: scheduling bug must fail the test, not hang the suite.
JOB_TIMEOUT = 120.0


def cluster_config(**kwargs) -> EngineConfig:
    """The cross-executor policy workload, tuned for fast localhost runs
    (tight heartbeats so steal planning and death detection are quick)."""
    base = dict(
        backend="cluster", num_procs=2,
        decompose="timed", tau_time=10, time_unit="ops", tau_split=3,
        queue_capacity=4, batch_size=2,
        heartbeat_period=0.02, heartbeat_timeout=5.0,
    )
    base.update(kwargs)
    return EngineConfig(**base)


def start_method_or_skip(name: str) -> str:
    if name not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {name!r} not available on this platform")
    return name


def dump_trace(tracer: Tracer, label: str) -> None:
    trace_dir = os.environ.get("CLUSTER_TRACE_DIR")
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump_jsonl(os.path.join(trace_dir, f"{label}.jsonl"))


class TestOracleEquivalence:
    def test_two_worker_cluster_matches_oracle(self):
        graph = make_random_graph(12, 0.5, seed=11)
        expected = enumerate_maximal_quasicliques(graph, 0.75, 3)
        tracer = Tracer()
        out = launch_mining(
            graph, 0.75, 3, config=cluster_config(), tracer=tracer,
            timeout=JOB_TIMEOUT,
        )
        if out.maximal != expected:
            dump_trace(tracer, "oracle-equivalence")
        assert out.maximal == expected
        assert out.metrics.results == len(expected)
        assert out.metrics.workers_died == 0

    def test_candidates_match_serial_run(self):
        """Same raw candidate family as the serial driver: at-least-once
        delivery plus master-side dedup is invisible below postprocess."""
        graph = make_random_graph(10, 0.5, seed=3)
        serial = mine_parallel(
            graph, 0.75, 3, cluster_config(backend="serial", num_procs=0)
        )
        clustered = launch_mining(
            graph, 0.75, 3, config=cluster_config(), timeout=JOB_TIMEOUT
        )
        assert clustered.candidates == serial.candidates
        assert clustered.maximal == serial.maximal

    def test_mine_parallel_dispatches_cluster_backend(self):
        graph = make_random_graph(8, 0.6, seed=5)
        expected = enumerate_maximal_quasicliques(graph, 0.75, 3)
        out = mine_parallel(graph, 0.75, 3, cluster_config())
        assert out.maximal == expected

    def test_spill_dirs_do_not_collide(self, tmp_path):
        """Two localhost workers sharing a configured spill_dir must not
        clobber each other's spill files (per-worker subdirectories)."""
        graph = make_random_graph(12, 0.5, seed=13)
        expected = enumerate_maximal_quasicliques(graph, 0.75, 3)
        out = launch_mining(
            graph, 0.75, 3,
            config=cluster_config(
                spill_dir=str(tmp_path), queue_capacity=2, batch_size=1
            ),
            timeout=JOB_TIMEOUT,
        )
        assert out.maximal == expected


class TestStealObservability:
    def test_asymmetric_load_triggers_observable_steals(self):
        """One worker gets the entire spawn range of slow big tasks; its
        idle peer must receive master-coordinated steals, observable as
        the planned/sent/received triple in trace and metrics."""
        start_method = start_method_or_skip("fork")
        n = 16
        # Even ids all hash to partition 0, so the range is one unit.
        vertices = range(0, 2 * n, 2)
        graph = Graph.from_edges([], vertices=vertices)
        config = cluster_config(
            tau_split=0,  # every task is big (SleepyBigTaskApp's ext)
            cluster_chunk_size=n,  # the whole range is ONE work unit
            steal_period_seconds=0.02,
            batch_size=4,
        )
        tracer = Tracer()
        out = run_cluster_app(
            graph, SleepyBigTaskApp(sleep_seconds=0.03), config,
            tracer=tracer, num_workers=2, start_method=start_method,
            timeout=JOB_TIMEOUT,
        )
        expected = {frozenset({v}) for v in vertices}
        if out.candidates != expected:
            dump_trace(tracer, "steal-observability")
        assert out.candidates == expected
        counts = tracer.counts()
        metrics = out.metrics
        assert metrics.steals_planned >= 1, (
            f"no steals planned under asymmetric load; trace={counts}"
        )
        assert counts.get("steal_planned", 0) >= 1
        assert counts.get("steal_sent", 0) >= 1
        assert counts.get("steal_received", 0) >= 1
        assert metrics.steals_sent == metrics.steals_received
        # Stolen work really ran somewhere else: the recipient completed
        # at least one forwarded batch (trace shows its spawn-free work).
        assert counts.get("steal_sent") == counts.get("steal_received")


class TestFaultTolerance:
    def test_sigkill_one_worker_mid_job(self):
        """Kill one worker mid-job: the master must detect the death,
        reclaim its leases, and still match the oracle exactly.

        One smoke-level TCP run; the heavy fault-space exploration of
        this scenario lives in the deterministic simulator
        (test_sim_cluster.py and `repro sim-fuzz`), where a crash can
        be placed at an exact virtual time instead of wherever the OS
        scheduler drops it."""
        start_method = start_method_or_skip("fork")
        graph = make_random_graph(12, 0.5, seed=7)
        expected = enumerate_maximal_quasicliques(graph, 0.75, 3)
        tracer = Tracer()
        out = launch_mining(
            graph, 0.75, 3,
            config=cluster_config(cluster_chunk_size=1, max_attempts=5),
            tracer=tracer, start_method=start_method,
            fault_injection=FaultInjection(worker_id=0, after_batches=1),
            timeout=JOB_TIMEOUT,
        )
        if out.maximal != expected:
            dump_trace(tracer, f"chaos-{start_method}")
        assert out.maximal == expected
        # A one-shot transient fault never poisons work.
        assert out.metrics.tasks_quarantined == 0
        if out.metrics.workers_died:
            assert out.metrics.tasks_retried >= 1
            assert tracer.events(kind="worker_died")

    def test_fork_death_is_deterministically_injected(self):
        """The master leases nothing until every launched worker has
        registered, so the targeted worker receives a lease and the
        injected death must actually fire — keeping the chaos path
        honestly exercised rather than vacuously green."""
        start_method = start_method_or_skip("fork")
        graph = make_random_graph(14, 0.5, seed=21)
        expected = enumerate_maximal_quasicliques(graph, 0.75, 3)
        out = launch_mining(
            graph, 0.75, 3,
            config=cluster_config(cluster_chunk_size=1, max_attempts=5),
            start_method=start_method,
            fault_injection=FaultInjection(worker_id=0, after_batches=0),
            timeout=JOB_TIMEOUT,
        )
        assert out.maximal == expected
        assert out.metrics.workers_died >= 1
        assert out.metrics.tasks_retried >= 1


class TestMemoryBounded:
    """Tentpole acceptance of the distributed vertex store: a cluster
    worker's resident adjacency stays ≈ |V|/num_workers + cache
    capacity — it never reassembles the full graph."""

    def test_workers_never_hold_the_full_graph(self):
        import threading

        from repro.gthinker.cluster.master import ClusterMaster
        from repro.gthinker.cluster.worker import ClusterWorker

        graph = make_random_graph(40, 0.25, seed=29)
        serial = mine_parallel(
            graph, 0.75, 3, cluster_config(backend="serial", num_procs=0)
        )
        config = cluster_config(cache_capacity=8)
        master = ClusterMaster(
            graph, _quasiclique_app(0.75, 3), config,
            host="127.0.0.1", port=0, num_workers=2,
        )
        host, port = master.start()
        result: dict = {}

        def drive():
            try:
                result["out"] = master.run(timeout=JOB_TIMEOUT)
            except Exception as exc:
                result["error"] = exc

        master_thread = threading.Thread(target=drive, daemon=True)
        master_thread.start()
        # In-process workers (threads, real sockets) so their reactors
        # stay inspectable after the job: no --graph, so each receives
        # only its partition and fetches the rest on demand.
        workers = [ClusterWorker(host, port) for _ in range(2)]
        worker_threads = [
            threading.Thread(target=w.run, daemon=True) for w in workers
        ]
        for t in worker_threads:
            t.start()
        master_thread.join(JOB_TIMEOUT)
        for t in worker_threads:
            t.join(10.0)
        assert "error" not in result, result.get("error")
        out = result["out"]
        assert out.maximal == serial.maximal
        assert out.candidates == serial.candidates
        # Each worker is shipped only its own partition: the two tables
        # are disjoint and together cover V.
        tables = [set(w.reactor.machine.table.vertices_sorted()) for w in workers]
        assert tables[0].isdisjoint(tables[1])
        assert tables[0] | tables[1] == set(graph.vertices())
        for w in workers:
            access = w.reactor.access
            assert access is not None, "worker fell back to a full graph"
            table_size = len(w.reactor.machine.table)
            assert table_size < graph.num_vertices
            # The headline bound, and the tight one: partition + bounded
            # cache (pins are all released once the job quiesces).
            assert access.resident_entries() < graph.num_vertices
            assert access.resident_entries() <= table_size + access.cache.capacity
            assert len(access.cache) <= access.cache.capacity
        m = out.metrics
        assert m.remote_vertex_hits + m.remote_vertex_misses > 0, (
            "no remote vertex traffic: the store was never exercised"
        )


class TestJobLifecycle:
    """How a job starts, paces and ends on the real TCP driver."""

    def test_handoff_is_not_paced_by_the_heartbeat(self):
        """A worker acknowledges a drained lease in the quantum that runs
        it dry, not at its next heartbeat: the driver steps again after
        every quantum and blocks on its inbox only after a step that
        found nothing to pick (the mine loop of sim/harness.py). So a job
        of many leases finishes well inside one heartbeat period."""
        start_method = start_method_or_skip("fork")
        graph = planted_quasicliques(
            n=200, avg_degree=6, num_plants=3, plant_size=10, gamma=0.9,
            seed=1,
        ).graph
        expected = mine_maximal_quasicliques(graph, 0.9, 8).maximal
        assert len(expected) == 3
        config = EngineConfig(
            backend="cluster", num_procs=2,
            heartbeat_period=5.0, heartbeat_timeout=60.0,
        )
        t0 = time.perf_counter()
        out = launch_mining(
            graph, 0.9, 8, config=config, start_method=start_method,
            timeout=JOB_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        assert out.maximal == expected
        assert wall < config.heartbeat_period, f"job took {wall:.2f}s"

    def test_job_releases_its_master(self):
        """close() does not wake a thread blocked in accept(): the master
        must shut its listener down and join the accept thread, or every
        job leaks that thread and, through it, the master, its reactor
        and the graph."""
        from repro.gthinker.cluster.master import ClusterMaster

        graph = make_random_graph(10, 0.5, seed=3)
        for _ in range(2):
            launch_mining(
                graph, 0.75, 3, config=cluster_config(), timeout=JOB_TIMEOUT
            )
        gc.collect()
        accept_threads = [
            t for t in threading.enumerate()
            if t.name == "cluster-master-accept"
        ]
        assert accept_threads == []
        masters = [o for o in gc.get_objects() if isinstance(o, ClusterMaster)]
        assert masters == []

    def test_job_that_needs_no_worker_ends_at_once(self, capfd):
        """An empty Theorem-2 core ends the job before any worker
        registers. Workers that connect late are refused or closed, and
        return quietly instead of waiting out the launcher's join."""
        start_method = start_method_or_skip("fork")
        path = Graph.from_edges([(v, v + 1) for v in range(20)])
        t0 = time.perf_counter()
        out = launch_mining(
            path, 0.9, 8, config=cluster_config(), start_method=start_method,
            timeout=JOB_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        assert out.maximal == set()
        assert wall < 1.0, f"job took {wall:.2f}s"
        assert "Traceback" not in capfd.readouterr().err


class TestStatusQuery:
    """StatusRequest/StatusReply: one-round-trip live progress from the
    master, served to any connected peer without registration."""

    def test_observer_queries_running_master(self):
        start_method = start_method_or_skip("fork")
        import threading

        from repro.gthinker.cluster.master import ClusterMaster
        from repro.gthinker.cluster.worker import ClusterWorker
        from repro.gthinker.obs import ProgressSnapshot, query_master_status

        graph = make_random_graph(10, 0.5, seed=17)
        master = ClusterMaster(
            graph, _quasiclique_app(0.75, 3), cluster_config(num_procs=1),
            host="127.0.0.1", port=0, num_workers=1,
        )
        host, port = master.start()
        result: dict = {}

        def drive():
            try:
                result["out"] = master.run(timeout=JOB_TIMEOUT)
            except Exception as exc:  # surfaced after join
                result["error"] = exc

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        # No worker has joined yet: the job is fully pending, and the
        # observer still gets an answer without registering.
        snapshot = query_master_status(host, port, timeout=10.0)
        assert isinstance(snapshot, ProgressSnapshot)
        assert snapshot.workers_alive == 0
        assert snapshot.tasks_pending >= 1
        assert snapshot.tasks_done == 0
        assert snapshot.wall_seconds >= 0.0
        # Now let one real worker finish the job.
        ctx = multiprocessing.get_context(start_method)
        proc = ctx.Process(
            target=_status_worker_entry, args=(host, port), daemon=True
        )
        proc.start()
        thread.join(JOB_TIMEOUT)
        proc.join(10.0)
        assert "error" not in result, result.get("error")
        assert result["out"].maximal == enumerate_maximal_quasicliques(
            graph, 0.75, 3
        )

    def test_unreachable_master_raises_oserror(self):
        import socket

        from repro.gthinker.obs import query_master_status

        # Grab a port that is certainly not listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            query_master_status("127.0.0.1", port, timeout=1.0)


def _status_worker_entry(host: str, port: int) -> None:
    from repro.gthinker.cluster.worker import ClusterWorker

    ClusterWorker(host, port).run()


def _quasiclique_app(gamma: float, min_size: int):
    from repro.core.options import DEFAULT_OPTIONS, ResultSink
    from repro.gthinker.app_quasiclique import QuasiCliqueApp

    return QuasiCliqueApp(
        gamma=gamma, min_size=min_size, sink=ResultSink(),
        options=DEFAULT_OPTIONS,
    )
