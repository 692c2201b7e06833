"""Worker/application failure semantics per backend.

The serial backend shares fate with the app: a failing compute()
aborts the job loudly, never hangs it. The process backend is
supervised instead: worker failure costs a retry and a respawned
worker — at worst a quarantined work unit — never the run.
"""

import os

import pytest

from repro.core.options import MiningStats, ResultSink
from repro.graph.adjacency import Graph
from repro.gthinker.chaos import (
    ErrorOnRootApp,
    FaultInjection,
    KillOnRootApp,
    SleepyBigTaskApp,
)
from repro.gthinker.cluster import run_cluster_app
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import GThinkerEngine, mine_parallel
from repro.gthinker.obs.spans import parse_detail
from repro.gthinker.task import ComputeOutcome, Task
from repro.gthinker.tracing import Tracer

from conftest import launch_mining, make_random_graph


class FaultyApp:
    """Spawns normally, explodes on the third compute call."""

    def __init__(self) -> None:
        self.sink = ResultSink()
        self.stats = MiningStats()
        self.calls = 0

    def spawn(self, vertex, adjacency, task_id):
        return Task(task_id=task_id, root=vertex, iteration=3, s=[vertex], ext=[])

    def compute(self, task, frontier, ctx):
        self.calls += 1
        if self.calls >= 3:
            raise ValueError("injected fault")
        return ComputeOutcome(finished=True)


class TestWorkerFailure:
    def test_serial_job_propagates_directly(self):
        g = make_random_graph(20, 0.3, seed=2)
        engine = GThinkerEngine(g, FaultyApp(), EngineConfig())
        with pytest.raises(ValueError, match="injected fault"):
            engine.run()

    def test_healthy_app_unaffected(self):
        g = make_random_graph(12, 0.5, seed=3)
        out = mine_parallel(
            g, 0.75, 3,
            EngineConfig(num_machines=1, threads_per_machine=2),
        )
        assert out.metrics.tasks_executed >= 0


def process_config(**overrides) -> EngineConfig:
    base = dict(
        backend="process", num_procs=2, batch_size=1, queue_capacity=4,
        max_attempts=2, retry_backoff=0.005,
    )
    base.update(overrides)
    return EngineConfig(**base)


class TestProcessWorkerFailure:
    """The process backend survives what kills a thread: the master
    reclaims the dead worker's leases and the launcher respawns it."""

    start_method = os.environ.get("REPRO_MP_START_METHOD") or None

    def run_slow_job(self, fault: FaultInjection):
        """24 one-vertex work units of 20 ms each: long enough that
        both workers, spawned or forked, are registered and mid-run
        when the injected fault fires (a millisecond job can end before
        the targeted worker has connected). Every vertex's singleton
        must come back."""
        g = Graph.from_edges([], vertices=range(24))
        out = run_cluster_app(
            g, SleepyBigTaskApp(sleep_seconds=0.02),
            process_config(cluster_chunk_size=1),
            start_method=self.start_method, warm_start=True,
            fault_injection=fault,
        )
        assert out.candidates == {frozenset([v]) for v in g.vertices()}
        return out

    def test_sigkilled_worker_does_not_kill_the_run(self):
        out = self.run_slow_job(FaultInjection(worker_id=0, after_batches=0))
        assert out.metrics.workers_died == 1
        assert out.metrics.tasks_quarantined == 0

    def test_sigkill_recovery_matches_faultless_results(self):
        g = make_random_graph(20, 0.3, seed=5)
        clean = mine_parallel(g, 0.75, 3, process_config(),
                              start_method=self.start_method)
        faulty = launch_mining(
            g, 0.75, 3, process_config(),
            start_method=self.start_method,
            fault_injection=FaultInjection(worker_id=1, after_batches=2),
        )
        assert faulty.maximal == clean.maximal
        assert faulty.candidates == clean.candidates

    def test_app_exception_warns_instead_of_raising(self, capfd):
        """The same fault that aborts the serial backend is survived
        here: raising compute() costs the poison task, not the job."""
        g = make_random_graph(8, 0.4, seed=6)
        poison = min(g.vertices())
        out = run_cluster_app(
            g, ErrorOnRootApp(poison_root=poison),
            process_config(num_procs=1),
            start_method=self.start_method, warm_start=True,
        )
        assert out.metrics.tasks_quarantined >= 1
        assert frozenset([poison]) not in out.candidates
        # The full traceback reaches stderr for debugging.
        assert f"ValueError: injected fault mining root {poison}" in (
            capfd.readouterr().err
        )

    def test_every_worker_slot_survives_a_kill(self):
        """Killing any single worker mid-run must never raise."""
        for worker_id in range(2):
            out = self.run_slow_job(
                FaultInjection(worker_id=worker_id, after_batches=1)
            )
            assert out.metrics.workers_died == 1

    def test_kill_mid_stream_never_wedges_peer_workers(self):
        """Regression: result channels must stay private per worker.

        With a shared result queue, a SIGKILL landing while the dying
        worker's feeder thread held the queue's write lock left the lock
        orphaned — every surviving and respawned worker then blocked on
        it, and the job death-spiralled (workers_died ≈ attempts × tasks,
        everything quarantined, empty results). The race window is
        scheduling-dependent, so run the scenario repeatedly; with one
        socket per worker every iteration must cost at most the one
        injected death and nothing else.
        """
        g = make_random_graph(10, 0.47, seed=9)
        config = process_config(max_attempts=3)
        clean = mine_parallel(g, 0.75, 4, config,
                              start_method=self.start_method)
        for _ in range(12):
            out = launch_mining(
                g, 0.75, 4, config,
                start_method=self.start_method,
                fault_injection=FaultInjection(worker_id=1, after_batches=2),
            )
            assert out.maximal == clean.maximal
            assert out.metrics.tasks_quarantined == 0
            assert out.metrics.workers_died <= 1

    def test_repeated_poison_quarantines_not_loops(self):
        """A deterministic killer must converge to quarantine, not an
        infinite respawn-retry loop."""
        g = make_random_graph(6, 0.5, seed=8)
        poison = min(g.vertices())
        tracer = Tracer()
        out = run_cluster_app(
            g, KillOnRootApp(poison_root=poison),
            # One unit per lease: no healthy root is co-leased with the
            # poison one and quarantined beside it.
            process_config(num_procs=1, max_attempts=3, retry_backoff=0.002,
                           lease_window=1),
            start_method=self.start_method, warm_start=True, tracer=tracer,
        )
        (quarantined,) = tracer.events(kind="task_quarantined")
        attempts = [
            int(parse_detail(e.detail)["attempt"])
            for e in tracer.events(kind="task_retried")
            if e.task_id == quarantined.task_id
        ]
        assert attempts == [1, 2]  # then the third strike quarantines
        assert out.metrics.workers_died >= 3
