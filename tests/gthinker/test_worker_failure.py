"""Worker/application failure semantics per backend.

The serial backend shares fate with the app: a failing compute()
aborts the job loudly, never hangs it. The process
backend is supervised instead: worker failure costs a retry — and at
worst a quarantined task — never the run.
"""

import os

import pytest

from repro.core.options import MiningStats, ResultSink
from repro.gthinker.chaos import ErrorOnRootApp, FaultInjection, KillOnRootApp
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import GThinkerEngine
from repro.gthinker.engine_mp import MultiprocessEngine, mine_multiprocess
from repro.gthinker.task import ComputeOutcome, Task

from conftest import make_random_graph


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
        from repro.gthinker.engine import mine_parallel

        g = make_random_graph(12, 0.5, seed=3)
        out = mine_parallel(
            g, 0.75, 3,
            EngineConfig(backend="simulated", num_machines=1, threads_per_machine=2),
        )
        assert out.metrics.tasks_executed >= 0


def process_config(**overrides) -> EngineConfig:
    base = dict(
        backend="process", num_procs=2, batch_size=1, queue_capacity=4,
        max_attempts=2, retry_backoff=0.005, lease_slack=10.0,
    )
    base.update(overrides)
    return EngineConfig(**base)


class TestProcessWorkerFailure:
    """The process backend survives what kills a thread: the parent
    reclaims the dead worker's leases and respawns it."""

    start_method = os.environ.get("REPRO_MP_START_METHOD") or None

    def test_sigkilled_worker_does_not_kill_the_run(self):
        g = make_random_graph(20, 0.3, seed=4)
        out = mine_multiprocess(
            g, 0.75, 3, process_config(),
            start_method=self.start_method,
            fault_injection=FaultInjection(worker_id=0, after_batches=0),
        )
        assert out.metrics.workers_died == 1
        assert out.metrics.tasks_quarantined == 0

    def test_sigkill_recovery_matches_faultless_results(self):
        g = make_random_graph(20, 0.3, seed=5)
        clean = mine_multiprocess(g, 0.75, 3, process_config(),
                                  start_method=self.start_method)
        faulty = mine_multiprocess(
            g, 0.75, 3, process_config(),
            start_method=self.start_method,
            fault_injection=FaultInjection(worker_id=1, after_batches=2),
        )
        assert faulty.maximal == clean.maximal
        assert faulty.candidates == clean.candidates

    def test_app_exception_warns_instead_of_raising(self):
        """The same fault that aborts the serial backend is survived
        here: raising compute() costs the poison task, not the job."""
        g = make_random_graph(8, 0.4, seed=6)
        poison = min(g.vertices())
        engine = MultiprocessEngine(
            g, ErrorOnRootApp(poison_root=poison),
            process_config(num_procs=1),
            start_method=self.start_method,
        )
        with pytest.warns(RuntimeWarning, match="will be retried or quarantined"):
            out = engine.run()
        assert out.metrics.tasks_quarantined >= 1
        assert poison in {t.root for t in engine.quarantined}
        assert engine.worker_errors  # full traceback kept for debugging

    def test_every_worker_slot_survives_a_kill(self):
        """Killing any single worker mid-run must never raise."""
        g = make_random_graph(16, 0.35, seed=7)
        for worker_id in range(2):
            out = mine_multiprocess(
                g, 0.75, 3, process_config(),
                start_method=self.start_method,
                fault_injection=FaultInjection(worker_id=worker_id, after_batches=1),
            )
            assert out.metrics.workers_died == 1

    def test_kill_mid_stream_never_wedges_peer_workers(self):
        """Regression: result channels must stay private per worker.

        With a shared result queue, a SIGKILL landing while the dying
        worker's feeder thread held the queue's write lock left the lock
        orphaned — every surviving and respawned worker then blocked in
        `put` until its lease expired, and the pool death-spiralled
        (workers_died ≈ attempts × tasks, everything quarantined, empty
        results). The race window is scheduling-dependent, so run the
        scenario repeatedly; with per-incarnation pipes every iteration
        must cost exactly the one injected death and nothing else.
        """
        g = make_random_graph(10, 0.47, seed=9)
        config = process_config(lease_slack=2.0, max_attempts=3)
        clean = mine_multiprocess(g, 0.75, 4, config,
                                  start_method=self.start_method)
        for _ in range(12):
            out = mine_multiprocess(
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
        engine = MultiprocessEngine(
            g, KillOnRootApp(poison_root=poison),
            process_config(num_procs=1, max_attempts=3, retry_backoff=0.002),
            start_method=self.start_method,
        )
        out = engine.run()
        assert engine.leases.quarantined_ids.count(0) == 1
        attempts = [a for tid, a, _ in engine.retry_schedule if tid == 0]
        assert attempts == [1, 2]  # then the third strike quarantines
        assert out.metrics.workers_died >= 3
