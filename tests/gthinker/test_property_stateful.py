"""Hypothesis stateful (model-based) tests for the engine's data structures.

The spillable queue, the remote vertex cache, and the task-lease table
sit under every task the engine moves; these machines compare them
against trivially-correct in-memory models under arbitrary operation
interleavings.
"""

import tempfile
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.gthinker.runtime import WorkLedger
from repro.gthinker.spill import SpillableQueue, SpillFileList
from repro.gthinker.task import Task
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


class LeaseTableMachine(RuleBasedStateMachine):
    """Model: the fault-tolerant dispatch cycle around a task WorkLedger.

    Tasks move queued → leased → {completed | back to queued | quarantined}:
    granted in batches to workers, completed when a result lands,
    reclaimed when a worker dies — one at a time (EOF) or all at once
    (every worker silent past its heartbeat timeout). The invariants
    are the safety net the at-least-once design hangs from:

    * a task is never simultaneously queued and leased;
    * no task's dispatch count ever exceeds max_attempts;
    * conservation — queued + leased + completed + quarantined always
      equals every task ever spawned (nothing is lost or duplicated);
    * a quarantined task never re-enters circulation.
    """

    MAX_ATTEMPTS = 3
    WORKERS = 3

    def __init__(self):
        super().__init__()
        self.table: WorkLedger[Task] = WorkLedger(
            self.MAX_ATTEMPTS, key=lambda task: task.task_id
        )
        self.next_task = 0
        self.next_batch = 0
        self.queued: list[Task] = []
        self.model_leased: dict[int, set[int]] = {}  # lease_id -> task ids
        self.model_completed: set[int] = set()
        self.model_quarantined: set[int] = set()

    # -- rules -------------------------------------------------------------

    @rule(n=st.integers(min_value=1, max_value=3))
    def spawn_tasks(self, n):
        for _ in range(n):
            self.queued.append(
                Task(task_id=self.next_task, root=self.next_task, iteration=3)
            )
            self.next_task += 1

    @precondition(lambda self: self.queued)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1),
          size=st.integers(min_value=1, max_value=2))
    def grant(self, worker, size):
        batch, self.queued = self.queued[:size], self.queued[size:]
        bid = self.next_batch
        self.next_batch += 1
        lease = self.table.grant(bid, worker, batch)
        assert lease.worker_id == worker
        assert set(lease.keys) == {t.task_id for t in batch}
        assert lease.items == batch
        self.model_leased[bid] = {t.task_id for t in batch}

    @precondition(lambda self: self.model_leased)
    @rule(pick=st.integers(min_value=0, max_value=99))
    def complete(self, pick):
        bid = sorted(self.model_leased)[pick % len(self.model_leased)]
        lease = self.table.complete(bid)
        assert lease is not None and lease.lease_id == bid
        self.model_completed |= self.model_leased.pop(bid)

    @rule(bid=st.integers(min_value=0, max_value=500))
    def complete_stale(self, bid):
        """Completing a never-granted or already-settled batch is the
        at-least-once duplicate: it must be a detectable no-op."""
        if bid in self.model_leased:
            return
        assert self.table.complete(bid) is None

    @precondition(lambda self: self.model_leased)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def fail_worker(self, worker):
        for lease in self.table.leases_for(worker):
            retry, quarantine = self.table.reclaim(lease)
            ids = self.model_leased.pop(lease.lease_id)
            got = {t.task_id for t, _ in retry} | {t.task_id for t, _ in quarantine}
            assert got == ids
            self.queued.extend(t for t, _ in retry)
            self.model_quarantined |= {t.task_id for t, _ in quarantine}

    @precondition(lambda self: self.model_leased)
    @rule()
    def fail_every_worker(self):
        """Every worker silent past its heartbeat timeout at once."""
        for worker in range(self.WORKERS):
            self.fail_worker(worker)

    # -- invariants --------------------------------------------------------

    @invariant()
    def never_both_queued_and_leased(self):
        queued_ids = {t.task_id for t in self.queued}
        leased_ids = self.table.leased_task_ids()
        assert not (queued_ids & leased_ids)
        assert leased_ids == set().union(set(), *self.model_leased.values())

    @invariant()
    def attempts_bounded(self):
        counts = self.table.attempts_snapshot().values()
        assert all(1 <= c <= self.MAX_ATTEMPTS for c in counts)

    @invariant()
    def conservation(self):
        queued_ids = {t.task_id for t in self.queued}
        leased_ids = self.table.leased_task_ids()
        accounted = (
            queued_ids | leased_ids | self.model_completed | self.model_quarantined
        )
        assert accounted == set(range(self.next_task))
        # The four states partition the task population.
        assert (
            len(queued_ids) + len(leased_ids)
            + len(self.model_completed) + len(self.model_quarantined)
            == self.next_task
        )

    @invariant()
    def quarantine_is_terminal(self):
        queued_ids = {t.task_id for t in self.queued}
        assert not (self.model_quarantined & queued_ids)
        assert not (self.model_quarantined & self.table.leased_task_ids())
        # Counted exactly once, ever.
        assert len(self.table.quarantined_ids) == len(set(self.table.quarantined_ids))
        assert self.table.tasks_quarantined == len(self.model_quarantined)

    @invariant()
    def table_counters_agree(self):
        assert self.table.tasks_completed == len(self.model_completed)
        assert len(self.table) == len(self.model_leased)
        assert self.table.outstanding == set(self.model_leased)

    @invariant()
    def ledger_internal_invariants(self):
        self.table.check_invariants()


@dataclass
class _Unit:
    """Stand-in for the cluster master's _WorkUnit: one member per lease."""

    work_id: int
    payload: tuple

    @property
    def size(self) -> int:
        return len(self.payload)


class WorkUnitLedgerMachine(RuleBasedStateMachine):
    """Model: the same WorkLedger driven as the master reactor of the
    process and cluster backends drives it.

    Where the machine above grants *batches of tasks* (many members per
    lease, attempts per task id), the master grants *work units* (one
    member per lease, attempts per work id, task-granular sizes) under a
    per-worker lease window — with the deliberate over-commit escape
    hatch used for steal forwarding. Both styles must satisfy the same
    conservation/attempt/quarantine laws; this machine checks the
    second, including owner-identified stale completions.
    """

    MAX_ATTEMPTS = 3
    WORKERS = 3
    WINDOW = 2

    def __init__(self):
        super().__init__()
        self.ledger: WorkLedger[_Unit] = WorkLedger(
            self.MAX_ATTEMPTS,
            key=lambda u: u.work_id,
            size=lambda u: u.size,
            lease_window=self.WINDOW,
        )
        self.next_work = 0
        self.pending: list[_Unit] = []
        self.model_leased: dict[int, int] = {}  # work_id -> owner worker
        self.model_completed: dict[int, int] = {}  # work_id -> size
        self.model_quarantined: set[int] = set()

    # -- rules -------------------------------------------------------------

    @rule(size=st.integers(min_value=1, max_value=3))
    def make_unit(self, size):
        self.pending.append(_Unit(self.next_work, tuple(range(size))))
        self.next_work += 1

    @precondition(lambda self: self.pending)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def grant(self, worker):
        """The _pump path: a grant either fits the window or is refused
        outright — refusal must leave the ledger untouched."""
        unit = self.pending[0]
        if self.ledger.has_window(worker):
            lease = self.ledger.grant(unit.work_id, worker, [unit])
            self.pending.pop(0)
            assert lease.keys == (unit.work_id,)
            self.model_leased[unit.work_id] = worker
        else:
            before = self.ledger.attempts_snapshot()
            with pytest.raises(ValueError):
                self.ledger.grant(unit.work_id, worker, [unit])
            assert self.ledger.attempts_snapshot() == before

    @precondition(lambda self: self.pending)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def grant_over_window(self, worker):
        """The steal-forwarding path: enforce_window=False always lands."""
        unit = self.pending.pop(0)
        self.ledger.grant(unit.work_id, worker, [unit], enforce_window=False)
        self.model_leased[unit.work_id] = worker

    @precondition(lambda self: self.model_leased)
    @rule(pick=st.integers(min_value=0, max_value=99))
    def complete_by_owner(self, pick):
        work_id = sorted(self.model_leased)[pick % len(self.model_leased)]
        owner = self.model_leased[work_id]
        lease = self.ledger.complete(work_id, worker_id=owner)
        assert lease is not None and lease.worker_id == owner
        del self.model_leased[work_id]
        self.model_completed[work_id] = sum(u.size for u in lease.items)

    @precondition(lambda self: self.model_leased)
    @rule(pick=st.integers(min_value=0, max_value=99))
    def complete_wrong_owner_is_stale(self, pick):
        """A completion from a worker that no longer owns the lease is
        the at-least-once duplicate: dropped, nothing retired."""
        work_id = sorted(self.model_leased)[pick % len(self.model_leased)]
        wrong = self.model_leased[work_id] + self.WORKERS  # never a real owner
        assert self.ledger.complete(work_id, worker_id=wrong) is None
        assert work_id in self.ledger.outstanding

    @rule(work_id=st.integers(min_value=0, max_value=500))
    def complete_unknown_is_stale(self, work_id):
        if work_id in self.model_leased:
            return
        assert self.ledger.complete(work_id) is None

    @precondition(lambda self: self.model_leased)
    @rule(worker=st.integers(min_value=0, max_value=WORKERS - 1))
    def fail_worker(self, worker):
        for lease in self.ledger.leases_for(worker):
            retry, quarantine = self.ledger.reclaim(lease)
            assert self.model_leased.pop(lease.lease_id) == worker
            self.pending.extend(u for u, _ in retry)
            self.model_quarantined |= {u.work_id for u, _ in quarantine}

    @precondition(lambda self: self.model_leased)
    @rule()
    def fail_every_worker(self):
        """Every worker silent past its heartbeat timeout at once."""
        for worker in range(self.WORKERS):
            self.fail_worker(worker)

    # -- invariants --------------------------------------------------------

    @invariant()
    def conservation(self):
        pending_ids = {u.work_id for u in self.pending}
        leased_ids = set(self.model_leased)
        accounted = (
            pending_ids | leased_ids
            | set(self.model_completed) | self.model_quarantined
        )
        assert accounted == set(range(self.next_work))
        assert (
            len(pending_ids) + len(leased_ids)
            + len(self.model_completed) + len(self.model_quarantined)
            == self.next_work
        )

    @invariant()
    def ledger_agrees_with_model(self):
        assert self.ledger.outstanding == set(self.model_leased)
        for work_id, worker in self.model_leased.items():
            lease = self.ledger.get(work_id)
            assert lease is not None and lease.worker_id == worker
        assert self.ledger.tasks_completed == sum(self.model_completed.values())
        assert self.ledger.tasks_quarantined >= len(self.model_quarantined)

    @invariant()
    def attempts_bounded(self):
        counts = self.ledger.attempts_snapshot().values()
        assert all(1 <= c <= self.MAX_ATTEMPTS for c in counts)

    @invariant()
    def quarantine_is_terminal(self):
        assert not (self.model_quarantined & {u.work_id for u in self.pending})
        assert not (self.model_quarantined & set(self.model_leased))
        assert len(self.ledger.quarantined_ids) == len(
            set(self.ledger.quarantined_ids)
        )

    @invariant()
    def ledger_internal_invariants(self):
        self.ledger.check_invariants()


TestSpillableQueueStateful = SpillableQueueMachine.TestCase
TestSpillableQueueStateful.settings = settings(max_examples=40, deadline=None)
TestCacheStateful = CacheMachine.TestCase
TestCacheStateful.settings = settings(max_examples=40, deadline=None)
TestLeaseTableStateful = LeaseTableMachine.TestCase
TestLeaseTableStateful.settings = settings(max_examples=60, deadline=None)
TestWorkUnitLedgerStateful = WorkUnitLedgerMachine.TestCase
TestWorkUnitLedgerStateful.settings = settings(max_examples=60, deadline=None)
