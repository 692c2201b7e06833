"""Hypothesis stateful (model-based) tests for the engine's data structures.

The spillable queue, the remote vertex cache, and the work ledger
sit under every task the engine moves; these machines compare them
against trivially-correct in-memory models under arbitrary operation
interleavings.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.gthinker.config import EngineConfig
from repro.gthinker.metrics import EngineMetrics
from repro.gthinker.runtime import WorkLedger, WorkUnit
from repro.gthinker.spill import SpillableQueue, SpillFileList
from repro.gthinker.task import Task
from repro.gthinker.tracing import NullTracer
from repro.gthinker.vertex_store import RemoteVertexCache


class SpillableQueueMachine(RuleBasedStateMachine):
    """Model: the queue + its spill files behave like one FIFO list.

    Subtlety encoded by the model: a push that overflows capacity spills
    the batch at the *tail* (newest work) to disk, and a refill loads the
    most recent file back to the *front*. We model the exact task-id
    sequence the structure must eventually yield.
    """

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="hypq-")
        self.spill = SpillFileList(self.dir, "hyp")
        self.capacity = 6
        self.batch = 2
        self.queue = SpillableQueue(self.capacity, self.batch, self.spill)
        self.model_mem: list[int] = []  # in-memory ids, front first
        self.model_disk: list[list[int]] = []  # spilled batches, oldest first
        self.next_id = 0

    @rule()
    def push(self):
        if len(self.model_mem) >= self.capacity:
            batch = self.model_mem[-self.batch :]
            del self.model_mem[-self.batch :]
            self.model_disk.append(batch)
        task = Task(task_id=self.next_id, root=self.next_id, iteration=3)
        self.model_mem.append(self.next_id)
        self.next_id += 1
        self.queue.push(task)

    @rule()
    def pop(self):
        got = self.queue.pop()
        if self.model_mem:
            assert got is not None and got.task_id == self.model_mem.pop(0)
        else:
            assert got is None

    @precondition(lambda self: True)
    @rule()
    def refill(self):
        count = self.queue.refill_from_spill()
        if self.model_disk:
            batch = self.model_disk.pop()
            self.model_mem[:0] = batch
            assert count == len(batch)
        else:
            assert count == 0

    @rule(n=st.integers(min_value=1, max_value=4))
    def pop_batch(self, n):
        got = self.queue.pop_batch(n)
        take = min(n, len(self.model_mem))
        expected = self.model_mem[len(self.model_mem) - take :] if take else []
        del self.model_mem[len(self.model_mem) - take :]
        assert [t.task_id for t in got] == expected

    @invariant()
    def lengths_agree(self):
        assert len(self.queue) == len(self.model_mem)
        assert len(self.spill) == len(self.model_disk)

    def teardown(self):
        self.spill.cleanup()


class CacheMachine(RuleBasedStateMachine):
    """Model: bounded LRU — hits refresh recency; eviction is oldest-first."""

    def __init__(self):
        super().__init__()
        self.capacity = 4
        self.cache = RemoteVertexCache(self.capacity)
        self.model: dict[int, list[int]] = {}  # insertion-ordered = LRU order

    @rule(key=st.integers(min_value=0, max_value=9))
    def put(self, key):
        value = [key, key + 1]
        self.cache.put(key, value)
        self.model.pop(key, None)
        self.model[key] = value
        while len(self.model) > self.capacity:
            oldest = next(iter(self.model))
            del self.model[oldest]

    @rule(key=st.integers(min_value=0, max_value=9))
    def get(self, key):
        got = self.cache.get(key)
        want = self.model.get(key)
        assert got == want
        if want is not None:
            # Refresh recency in the model.
            del self.model[key]
            self.model[key] = want

    @invariant()
    def size_bounded(self):
        assert len(self.cache) <= self.capacity
        assert len(self.cache) == len(self.model)


class WorkUnitLedgerMachine(RuleBasedStateMachine):
    """Model: the fault-tolerant dispatch cycle around the WorkLedger.

    The master reactor of the process and cluster backends leases work
    units one per lease, attempts counted per work id, under a
    per-worker lease window with a deliberate over-commit for steal
    forwarding. Units move pending → leased → {completed | awaiting
    retry | quarantined}, and awaiting retry → pending once their
    backoff elapses: granted to workers, completed when the owner's ack
    lands, reclaimed when a worker dies — one at a time (EOF) or all at
    once (every worker silent past its heartbeat timeout). The
    invariants are the safety net the at-least-once design hangs from:

    * conservation — pending + leased + awaiting retry + completed +
      quarantined always partition every unit ever made;
    * no unit's dispatch count ever exceeds max_attempts, and a reclaim
      waits ``backoff * 2^(attempt-1)`` before the unit is due again;
    * stale acks (unknown unit, or not from its owner) retire nothing;
    * a quarantined unit never re-enters circulation, and the metrics
      count retried and quarantined tasks exactly once.
    """

    MAX_ATTEMPTS = 3
    WORKERS = 3
    WINDOW = 2
    BACKOFF = 1.0

    def __init__(self):
        super().__init__()
        self.metrics = EngineMetrics()
        config = EngineConfig(
            max_attempts=self.MAX_ATTEMPTS, retry_backoff=self.BACKOFF,
            lease_window=self.WINDOW,
        )
        self.ledger = WorkLedger(config, metrics=self.metrics, tracer=NullTracer())
        self.now = 0.0
        self.reclaims = 0
        self.units: list[WorkUnit] = []
        self.pending: list[WorkUnit] = []
        self.model_leased: dict[int, int] = {}  # work_id -> owner worker
        self.model_awaiting: list[tuple[float, int, int]] = []  # (due, seq, id)
        self.model_completed: set[int] = set()
        self.model_quarantined: list[int] = []
        self.model_attempts: dict[int, int] = {}
        self.retried_tasks = 0
        self.quarantined_tasks = 0

    # -- rules -------------------------------------------------------------

    @rule(size=st.integers(min_value=1, max_value=3))
    def make_unit(self, size):
        unit = WorkUnit(len(self.units), "range", tuple(range(size)))
        self.units.append(unit)
        self.pending.append(unit)

    @precondition(lambda self: self.pending)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def grant(self, worker):
        """The _pump path: a grant either fits the window or is refused
        outright — refusal must leave the ledger untouched."""
        unit = self.pending[0]
        if self.ledger.has_window(worker):
            self.ledger.grant(unit, worker)
            self.pending.pop(0)
            self.model_leased[unit.work_id] = worker
            self.model_attempts[unit.work_id] = self.model_attempts.get(unit.work_id, 0) + 1
        else:
            before = self.ledger.outstanding()
            with pytest.raises(ValueError):
                self.ledger.grant(unit, worker)
            assert self.ledger.outstanding() == before

    @precondition(lambda self: self.pending)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def grant_over_window(self, worker):
        """The steal-forwarding path: enforce_window=False always lands."""
        unit = self.pending.pop(0)
        self.ledger.grant(unit, worker, enforce_window=False)
        self.model_leased[unit.work_id] = worker
        self.model_attempts[unit.work_id] = self.model_attempts.get(unit.work_id, 0) + 1

    @precondition(lambda self: self.model_quarantined)
    @rule(pick=st.integers(min_value=0, max_value=99))
    def regrant_quarantined_is_refused(self, pick):
        unit = self.units[self.model_quarantined[pick % len(self.model_quarantined)]]
        with pytest.raises(ValueError):
            self.ledger.grant(unit, 0, enforce_window=False)

    @precondition(lambda self: self.model_leased)
    @rule(pick=st.integers(min_value=0, max_value=99))
    def complete_by_owner(self, pick):
        work_id = sorted(self.model_leased)[pick % len(self.model_leased)]
        assert self.ledger.complete(work_id, self.model_leased.pop(work_id))
        self.model_completed.add(work_id)
        del self.model_attempts[work_id]

    @precondition(lambda self: self.model_leased)
    @rule(pick=st.integers(min_value=0, max_value=99))
    def complete_wrong_owner_is_stale(self, pick):
        """A completion from a worker that no longer owns the lease is
        the at-least-once duplicate: dropped, nothing retired."""
        work_id = sorted(self.model_leased)[pick % len(self.model_leased)]
        wrong = self.model_leased[work_id] + self.WORKERS  # never a real owner
        assert not self.ledger.complete(work_id, wrong)
        assert work_id in self.ledger.outstanding()

    @rule(work_id=st.integers(min_value=0, max_value=500),
          worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def complete_unleased_is_stale(self, work_id, worker):
        """Completed, awaiting retry, quarantined or never made: stale."""
        if work_id in self.model_leased:
            return
        assert not self.ledger.complete(work_id, worker)

    @precondition(lambda self: self.model_leased)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def fail_worker(self, worker):
        retry, quarantine = self.ledger.reclaim(worker, self.now)
        lost = sorted(w for w, owner in self.model_leased.items() if owner == worker)
        assert sorted(u.work_id for u in retry + quarantine) == lost
        for work_id in lost:
            del self.model_leased[work_id]
            attempts = self.model_attempts[work_id]
            size = self.units[work_id].size
            if attempts >= self.MAX_ATTEMPTS:
                assert self.units[work_id] in quarantine
                self.model_quarantined.append(work_id)
                del self.model_attempts[work_id]
                self.quarantined_tasks += size
            else:
                due = self.now + self.BACKOFF * 2 ** (attempts - 1)
                self.model_awaiting.append((due, self.reclaims, work_id))
                self.reclaims += 1
                self.retried_tasks += size

    @precondition(lambda self: self.model_leased)
    @rule()
    def fail_every_worker(self):
        """Every worker silent past its heartbeat timeout at once."""
        for worker in range(self.WORKERS):
            self.fail_worker(worker)

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    def tick(self, dt):
        """The master's tick: due retries go back to the pending front."""
        self.now += dt
        due = sorted(entry for entry in self.model_awaiting if entry[0] <= self.now)
        self.model_awaiting = [e for e in self.model_awaiting if e[0] > self.now]
        popped = self.ledger.pop_due(self.now)
        assert [u.work_id for u in popped] == [work_id for _, _, work_id in due]
        for unit in popped:
            self.pending.insert(0, unit)

    # -- invariants --------------------------------------------------------

    @invariant()
    def conservation(self):
        states = [
            {u.work_id for u in self.pending},
            set(self.model_leased),
            {work_id for _, _, work_id in self.model_awaiting},
            self.model_completed,
            set(self.model_quarantined),
        ]
        assert set().union(*states) == set(range(len(self.units)))
        assert sum(map(len, states)) == len(self.units)

    @invariant()
    def ledger_agrees_with_model(self):
        assert self.ledger.outstanding() == self.model_leased
        assert self.ledger.idle == (not self.model_leased and not self.model_awaiting)
        assert self.ledger.leased_task_count() == sum(
            self.units[w].size for w in self.model_leased
        )
        assert self.metrics.tasks_retried == self.retried_tasks
        assert self.metrics.tasks_quarantined == self.quarantined_tasks

    @invariant()
    def attempts_bounded(self):
        # The ledger's own counts are checked through their effects:
        # fail_worker's quarantine split and tick's due times.
        assert all(1 <= c <= self.MAX_ATTEMPTS for c in self.model_attempts.values())

    @invariant()
    def quarantine_is_terminal(self):
        live = {u.work_id for u in self.pending} | set(self.model_leased)
        live |= {work_id for _, _, work_id in self.model_awaiting}
        assert not (set(self.model_quarantined) & live)
        # Recorded exactly once, ever, in quarantine order.
        assert self.ledger.quarantined_ids == self.model_quarantined

    @invariant()
    def ledger_internal_invariants(self):
        self.ledger.check_invariants()


TestSpillableQueueStateful = SpillableQueueMachine.TestCase
TestSpillableQueueStateful.settings = settings(max_examples=40, deadline=None)
TestCacheStateful = CacheMachine.TestCase
TestCacheStateful.settings = settings(max_examples=40, deadline=None)
TestWorkUnitLedgerStateful = WorkUnitLedgerMachine.TestCase
TestWorkUnitLedgerStateful.settings = settings(max_examples=60, deadline=None)
