"""Unit tests for the shared coordination control plane.

:mod:`repro.gthinker.runtime` is the layer the process and cluster
backends drive their fault tolerance through; these tests pin its
contracts directly, below any executor.
"""

import pytest

from repro.core.options import ResultSink
from repro.gthinker.metrics import EngineMetrics
from repro.gthinker.runtime import (
    ResultFolder,
    RetryPolicy,
    WorkerRegistry,
    WorkerSlot,
    WorkLedger,
    backoff_delay,
    reclaim_lease,
)
from repro.gthinker.task import Task
from repro.gthinker.tracing import Tracer


def make_task(task_id: int) -> Task:
    return Task(task_id=task_id, root=task_id, iteration=3)


def task_ledger(max_attempts: int) -> WorkLedger[Task]:
    """A task-batch ledger: many tasks per lease, attempts per task id."""
    return WorkLedger(max_attempts, key=lambda task: task.task_id)


def make_folder(max_attempts: int = 3):
    metrics = EngineMetrics()
    tracer = Tracer()
    ledger = task_ledger(max_attempts)
    folder = ResultFolder(ResultSink(), ledger, metrics=metrics, tracer=tracer)
    return folder, ledger, metrics, tracer


class TestResultFolder:
    def test_fold_returns_new_count(self):
        folder, _, _, _ = make_folder()
        assert folder.fold([[1, 2, 3], [4, 5]]) == 2
        assert folder.fold([[6]]) == 1
        assert len(folder.sink) == 3

    def test_folding_same_batch_twice_is_idempotent(self):
        """The at-least-once regression: a presumed-dead worker's flush
        arrives again after its lease was re-mined — the sink must not
        grow and the second fold must report zero new results."""
        folder, _, _, _ = make_folder()
        batch = [[1, 2, 3], (3, 2, 1), {5, 6}]
        first = folder.fold(batch)
        assert first == 2  # [1,2,3] and (3,2,1) are the same candidate
        assert folder.fold(batch) == 0
        assert folder.sink.results() == {frozenset({1, 2, 3}), frozenset({5, 6})}

    def test_fold_normalizes_to_frozenset(self):
        folder, _, _, _ = make_folder()
        folder.fold([[7, 8]])
        (only,) = folder.sink.results()
        assert isinstance(only, frozenset)

    def test_complete_counts_stale_drops(self):
        folder, ledger, metrics, _ = make_folder()
        ledger.grant(0, 1, [make_task(0)])
        assert folder.complete(0) is not None
        assert metrics.stale_results_dropped == 0
        # Unknown lease → stale.
        assert folder.complete(0) is None
        assert metrics.stale_results_dropped == 1
        # Owner mismatch → stale.
        ledger.grant(1, 1, [make_task(1)])
        assert folder.complete(1, worker_id=2) is None
        assert metrics.stale_results_dropped == 2
        assert folder.complete(1, worker_id=1) is not None

    def test_forward_events_attribution(self):
        """Worker-origin events get machine=worker id on every backend
        (the unified worker_attribution rule): 3-tuple events carry
        no thread (-1), 4-tuple cluster events carry their worker-local
        thread. machine=-1 is reserved for control-plane events."""
        folder, _, _, tracer = make_folder()
        folder.forward_events(4, [("execute", 7, "d")])
        folder.forward_events(4, [("finish", 7, 2, "d")])
        by_kind = {e.kind: e for e in tracer.events()}
        assert (by_kind["execute"].machine, by_kind["execute"].thread) == (4, -1)
        assert (by_kind["finish"].machine, by_kind["finish"].thread) == (4, 2)

    def test_forward_events_allow_list(self):
        folder, _, _, tracer = make_folder()
        folder.forward_events(
            0,
            [("execute", 1, ""), ("spawn", 2, "")],
            allowed={"spawn"},
        )
        assert [e.kind for e in tracer.events()] == ["spawn"]


class TestRetryPolicy:
    def test_backoff_doubles_per_attempt(self):
        assert backoff_delay(0.05, 1) == pytest.approx(0.05)
        assert backoff_delay(0.05, 2) == pytest.approx(0.10)
        assert backoff_delay(0.05, 3) == pytest.approx(0.20)
        with pytest.raises(ValueError):
            backoff_delay(0.05, 0)

    def test_pop_due_respects_backoff(self):
        policy: RetryPolicy[str] = RetryPolicy(1.0)
        policy.schedule(0, "first", 1, now=0.0)  # due at 1.0
        policy.schedule(1, "second", 2, now=0.0)  # due at 2.0
        assert policy.pop_due(0.5) == []
        assert policy.pop_due(1.0) == [("first", 1)]
        assert policy.pop_due(10.0) == [("second", 2)]
        assert not policy
        assert policy.history == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_next_due(self):
        policy: RetryPolicy[str] = RetryPolicy(0.5)
        assert policy.next_due() is None
        policy.schedule(0, "x", 1, now=3.0)
        assert policy.next_due() == pytest.approx(3.5)


class TestReclaimLease:
    def test_splits_retry_and_quarantine_with_observability(self):
        metrics = EngineMetrics()
        tracer = Tracer()
        ledger = task_ledger(max_attempts=2)
        policy: RetryPolicy[Task] = RetryPolicy(0.05)
        poisoned: list[int] = []

        fresh, stale = make_task(0), make_task(1)
        # Drive `stale` to its attempt ceiling first.
        lease = ledger.grant(0, 0, [stale])
        ledger.reclaim(lease)  # attempt 1 failed; still retryable
        lease = ledger.grant(1, 0, [stale, fresh])
        retry, quarantine = reclaim_lease(
            ledger, lease, policy, now=0.0, metrics=metrics, tracer=tracer,
            on_quarantine=lambda task, attempts: poisoned.append(task.task_id),
        )
        assert [t.task_id for t, _ in retry] == [0]
        assert [t.task_id for t, _ in quarantine] == [1]
        assert poisoned == [1]
        assert metrics.tasks_retried == 1
        assert metrics.tasks_quarantined == 1
        assert policy.history == [(0, 1, 0.05)]
        (quarantined_event,) = tracer.events(kind="task_quarantined")
        assert quarantined_event.task_id == 1
        assert quarantined_event.detail == "attempts=2 size=1"
        (retried_event,) = tracer.events(kind="task_retried")
        assert retried_event.task_id == 0
        assert (retried_event.machine, retried_event.thread) == (-1, 0)


class TestWorkLedgerWindow:
    def test_window_enforced_and_escapable(self):
        ledger: WorkLedger[Task] = WorkLedger(
            3, key=lambda t: t.task_id, lease_window=1
        )
        ledger.grant(0, 0, [make_task(0)])
        with pytest.raises(ValueError):
            ledger.grant(1, 0, [make_task(1)])
        # The steal-forwarding escape hatch over-commits deliberately.
        ledger.grant(1, 0, [make_task(1)], enforce_window=False)
        assert ledger.open_count(0) == 2
        ledger.check_invariants()


class TestWorkerRegistry:
    def make(self):
        metrics = EngineMetrics()
        tracer = Tracer()
        return WorkerRegistry(metrics=metrics, tracer=tracer), metrics, tracer

    def test_fail_accounts_once(self):
        registry, metrics, tracer = self.make()
        slot = registry.add(WorkerSlot(worker_id=0))
        assert registry.fail(slot, "killed") is True
        assert registry.fail(slot, "killed again") is False
        assert metrics.workers_died == 1
        (event,) = tracer.events(kind="worker_died")
        assert (event.machine, event.thread) == (-1, 0)
        assert event.detail == "killed"

    def test_stale_detection(self):
        registry, _, _ = self.make()
        slot = registry.add(WorkerSlot(worker_id=0, last_seen=0.0))
        registry.heartbeat(slot, 5.0)
        assert registry.stale(6.0, timeout=10.0) == []
        (entry,) = registry.stale(20.0, timeout=10.0)
        assert entry[0] is slot and "no heartbeat" in entry[1]

    def test_create_assigns_sequential_ids(self):
        registry, _, _ = self.make()
        a, b = registry.create(), registry.create()
        assert (a.worker_id, b.worker_id) == (0, 1)
        assert len(registry) == 2
        assert registry.get(1) is b

