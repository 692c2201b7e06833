"""Unit tests for the coordination control plane.

:mod:`repro.gthinker.runtime` is the bookkeeping the master reactor
drives its fault tolerance through; these tests pin its contracts
directly, and the reactor's result fold through its message interface.
"""

import pytest
from conftest import make_random_graph

from repro.core.options import ResultSink
from repro.gthinker.app_quasiclique import QuasiCliqueApp
from repro.gthinker.cluster.protocol import Hello, ResultBatch, SpawnRange
from repro.gthinker.cluster.reactor import MasterReactor
from repro.gthinker.config import EngineConfig
from repro.gthinker.metrics import EngineMetrics
from repro.gthinker.obs.spans import parse_detail
from repro.gthinker.runtime import WorkerRegistry, WorkLedger, WorkUnit
from repro.gthinker.runtime.ledger import backoff_delay
from repro.gthinker.tracing import Tracer


def make_unit(work_id: int, size: int = 1) -> WorkUnit:
    return WorkUnit(work_id=work_id, kind="range", payload=tuple(range(size)))


def make_ledger(max_attempts: int = 3, backoff: float = 0.05, lease_window: int = 4):
    config = EngineConfig(
        max_attempts=max_attempts, retry_backoff=backoff, lease_window=lease_window
    )
    metrics, tracer = EngineMetrics(), Tracer()
    return WorkLedger(config, metrics=metrics, tracer=tracer), metrics, tracer


class _Pipe:
    """A channel that records what the reactor sends down it."""

    closed = False

    def __init__(self):
        self.sent: list = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        self.closed = True


def make_reactor(num_workers: int = 1):
    """A master reactor with `num_workers` registered workers."""
    tracer = Tracer()
    app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
    config = EngineConfig(backend="cluster", num_procs=num_workers)
    reactor = MasterReactor(make_random_graph(12, 0.5, seed=3), app, config, tracer=tracer)
    reactor.start_work(0.0)
    pipes = [_Pipe() for _ in range(num_workers)]
    for pid, pipe in enumerate(pipes):
        reactor.on_message(pipe, Hello(pid=pid, host="test", needs_graph=False), 0.0)
    return reactor, pipes, tracer


def fold_spans(tracer: Tracer) -> list[dict]:
    return [
        parse_detail(e.detail)
        for e in tracer.events(kind="span_end")
        if parse_detail(e.detail)["name"] == "result_fold"
    ]


class TestResultFolder:
    """The master reactor's at-least-once fold of worker results."""

    def test_fold_returns_new_count(self):
        reactor, (pipe,), tracer = make_reactor()
        reactor.on_message(pipe, ResultBatch(0, candidates=((1, 2, 3), (4, 5))), 1.0)
        reactor.on_message(pipe, ResultBatch(0, candidates=((6,),)), 1.0)
        assert [(s["candidates"], s["new"]) for s in fold_spans(tracer)] == [
            ("2", "2"), ("1", "1"),
        ]
        assert len(reactor.app.sink) == 3

    def test_folding_same_batch_twice_is_idempotent(self):
        """The at-least-once regression: a presumed-dead worker's flush
        arrives again after its unit was re-mined — the sink must not
        grow and the second fold must report zero new results."""
        reactor, (pipe,), tracer = make_reactor()
        batch = ResultBatch(0, candidates=((1, 2, 3), (3, 2, 1), (5, 6)))
        reactor.on_message(pipe, batch, 1.0)
        reactor.on_message(pipe, batch, 2.0)
        # (1, 2, 3) and (3, 2, 1) are the same candidate.
        assert [s["new"] for s in fold_spans(tracer)] == ["2", "0"]
        assert reactor.app.sink.results() == {frozenset({1, 2, 3}), frozenset({5, 6})}

    def test_fold_normalizes_to_frozenset(self):
        reactor, (pipe,), _ = make_reactor()
        reactor.on_message(pipe, ResultBatch(0, candidates=((7, 8),)), 1.0)
        (only,) = reactor.app.sink.results()
        assert isinstance(only, frozenset)

    def test_complete_counts_stale_drops(self):
        reactor, (first, second), _ = make_reactor(num_workers=2)
        owned = reactor.ledger.outstanding()
        unit = min(w for w, owner in owned.items() if owner == 0)
        other = min(w for w, owner in owned.items() if owner == 0 and w != unit)
        reactor.on_message(first, ResultBatch(0, completed=(unit,)), 1.0)
        assert reactor.metrics.stale_results_dropped == 0
        assert unit not in reactor.ledger.outstanding()
        # Already retired → stale.
        reactor.on_message(first, ResultBatch(0, completed=(unit,)), 1.0)
        assert reactor.metrics.stale_results_dropped == 1
        # Owner mismatch → stale, and the unit stays leased to its owner.
        reactor.on_message(second, ResultBatch(1, completed=(other,)), 1.0)
        assert reactor.metrics.stale_results_dropped == 2
        assert reactor.ledger.outstanding()[other] == 0

    def test_forward_events_attribution(self):
        """Worker-origin events get machine=worker id and keep the
        worker-local thread they carry; machine=-1 is reserved for
        control-plane events."""
        reactor, (_, pipe), tracer = make_reactor(num_workers=2)
        reactor.on_message(pipe, ResultBatch(1, events=(("finish", 7, 2, "d"),)), 1.0)
        (event,) = tracer.events(kind="finish")
        assert (event.machine, event.thread, event.task_id) == (1, 2, 7)


class TestRetryPolicy:
    def test_backoff_doubles_per_attempt(self):
        assert backoff_delay(0.05, 1) == pytest.approx(0.05)
        assert backoff_delay(0.05, 2) == pytest.approx(0.10)
        assert backoff_delay(0.05, 3) == pytest.approx(0.20)
        with pytest.raises(ValueError):
            backoff_delay(0.05, 0)

    def test_pop_due_respects_backoff(self):
        ledger, _, _ = make_ledger(backoff=1.0)
        first, second = make_unit(0), make_unit(1)
        ledger.grant(first, 0)
        ledger.grant(second, 1)
        ledger.reclaim(0, now=0.0)  # due at 1.0
        ledger.reclaim(1, now=1.0)  # due at 2.0
        assert not ledger.idle
        assert ledger.pop_due(0.5) == []
        assert ledger.pop_due(1.0) == [first]
        assert ledger.pop_due(10.0) == [second]
        assert ledger.idle
        # The second failure of the same unit waits twice as long.
        ledger.grant(first, 2)
        ledger.reclaim(2, now=10.0)
        assert ledger.pop_due(11.9) == []
        assert ledger.pop_due(12.0) == [first]
        ledger.check_invariants()


class TestReclaimLease:
    def test_splits_retry_and_quarantine_with_observability(self):
        ledger, metrics, tracer = make_ledger(max_attempts=2)
        fresh, stale = make_unit(0), make_unit(1, size=3)
        # Drive `stale` to its attempt ceiling first.
        ledger.grant(stale, 0)
        ledger.reclaim(0, now=0.0)  # attempt 1 failed; still retryable
        assert ledger.pop_due(1.0) == [stale]
        ledger.grant(stale, 0)
        ledger.grant(fresh, 0)
        retry, quarantine = ledger.reclaim(0, now=2.0)
        assert (retry, quarantine) == ([fresh], [stale])
        assert ledger.quarantined_ids == [1]
        assert metrics.tasks_retried == 3 + 1
        assert metrics.tasks_quarantined == 3
        (quarantined_event,) = tracer.events(kind="task_quarantined")
        assert quarantined_event.task_id == 1
        assert quarantined_event.detail == "attempts=2 size=3"
        retried_event = tracer.events(kind="task_retried")[-1]
        assert retried_event.task_id == 0
        assert retried_event.detail == "attempt=1 delay=0.05 size=1"
        assert (retried_event.machine, retried_event.thread) == (-1, 0)
        splits = [
            parse_detail(e.detail)
            for e in tracer.events(kind="span_end")
            if parse_detail(e.detail)["name"] == "lease_reclaim"
        ]
        assert [(s["retried"], s["quarantined"]) for s in splits[1:]] == [
            ("1", "0"), ("0", "3"),
        ]
        ledger.check_invariants()
        with pytest.raises(ValueError):
            ledger.grant(stale, 1)  # quarantine is final


class TestWorkLedgerWindow:
    def test_window_enforced_and_escapable(self):
        ledger, _, _ = make_ledger(lease_window=1)
        ledger.grant(make_unit(0), 0)
        with pytest.raises(ValueError):
            ledger.grant(make_unit(1), 0)
        # The steal-forwarding escape hatch over-commits deliberately.
        ledger.grant(make_unit(1), 0, enforce_window=False)
        assert ledger.open_count(0) == 2
        ledger.check_invariants()


class TestWorkerRegistry:
    def make(self):
        metrics = EngineMetrics()
        tracer = Tracer()
        return WorkerRegistry(metrics=metrics, tracer=tracer), metrics, tracer

    def test_fail_accounts_once(self):
        registry, metrics, tracer = self.make()
        slot = registry.register()
        assert registry.fail(slot, "killed") is True
        assert registry.fail(slot, "killed again") is False
        assert metrics.workers_died == 1
        (event,) = tracer.events(kind="worker_died")
        assert (event.machine, event.thread) == (-1, 0)
        assert event.detail == "killed"

    def test_stale_detection(self):
        registry, _, _ = self.make()
        slot = registry.register(now=0.0)
        slot.last_seen = 5.0
        assert registry.stale(6.0, timeout=10.0) == []
        (entry,) = registry.stale(20.0, timeout=10.0)
        assert entry[0] is slot and "no heartbeat" in entry[1]

    def test_create_assigns_sequential_ids(self):
        registry, _, _ = self.make()
        a, b = registry.register(), registry.register()
        assert (a.worker_id, b.worker_id) == (0, 1)
        assert len(registry) == 2
        assert registry.get(1) is b


class _LaunchedFleet:
    """A supervisor stub: every launched pid runs until it registers."""

    def __init__(self, pids):
        self.pids = set(pids)

    def starting(self, registered):
        return bool(self.pids - registered)


def gated_reactor(fleet, heartbeat_timeout=1.0):
    app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
    config = EngineConfig(backend="cluster", num_procs=len(fleet),
                          heartbeat_timeout=heartbeat_timeout)
    reactor = MasterReactor(make_random_graph(12, 0.5, seed=3), app, config)
    reactor.supervisor = _LaunchedFleet(fleet)
    reactor.start_work(0.0)
    return reactor


def leased(pipe) -> int:
    return sum(isinstance(m, SpawnRange) for m in pipe.sent)


class TestFleetGate:
    """The master leases nothing while a launched worker is still
    connecting, so the first to register cannot drain the job alone."""

    def test_leases_wait_for_the_last_launched_worker(self):
        reactor = gated_reactor([10, 11])
        first, second = _Pipe(), _Pipe()
        reactor.on_message(first, Hello(pid=10, host="test"), 0.1)
        reactor.on_tick(0.2)
        assert leased(first) == 0
        reactor.on_message(second, Hello(pid=11, host="test"), 0.3)
        assert leased(first) >= 1 and leased(second) >= 1

    def test_leases_start_once_the_bound_passes(self):
        reactor = gated_reactor([10, 11], heartbeat_timeout=1.0)
        first = _Pipe()
        reactor.on_message(first, Hello(pid=10, host="test"), 0.5)
        reactor.on_tick(0.9)
        assert leased(first) == 0
        reactor.on_tick(1.0)
        assert leased(first) >= 1
