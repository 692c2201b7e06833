"""The work ledger: at-least-once leases, retry backoff and quarantine.

The master reactor (:class:`repro.gthinker.cluster.reactor.
MasterReactor`) leases :class:`WorkUnit` objects — spawn-vertex chunks
and encoded-task batches — one unit per lease, and the lease id is the
unit's work id. Every unit the ledger has seen is in one of four
states: **leased** to a worker; **completed** on its owner's ack;
**awaiting retry** after its worker died (EOF, a failed send, or
heartbeat silence, which is how a wedged worker is caught), on a
``retry_backoff * 2^(attempt-1)`` due-time heap with its attempt
record kept; or **quarantined** as poisoned at ``max_attempts``, which
is final. :meth:`WorkLedger.check_invariants` asserts that conservation
law; the stateful Hypothesis model in ``tests/gthinker/
test_property_stateful.py`` checks the whole cycle.

Single-owner by design: only the master reactor, advanced from one
thread by its TCP driver or by the simulator, touches a ledger.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..obs.spans import emit_span

if TYPE_CHECKING:
    from ..config import EngineConfig
    from ..metrics import EngineMetrics

__all__ = ["WorkLedger", "WorkUnit", "backoff_delay"]


def backoff_delay(base: float, attempt: int) -> float:
    """Exponential backoff before re-dispatching a failed attempt.

    ``base * 2^(attempt-1)``: attempt is the 1-based dispatch count that
    just failed, so the first retry waits ``base``, the next ``2*base``…
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    return base * (2 ** (attempt - 1))


@dataclass
class WorkUnit:
    """One leasable unit: a spawn-vertex chunk or an encoded-task batch."""

    work_id: int
    kind: str  # 'range' | 'batch'
    payload: tuple  # vertices (range) or Task.encode() blobs (batch)
    origin: str = "spawn"  # 'spawn' | 'remainder' | 'steal' | 'stale-steal'
    #: Partition whose worker owns this unit's vertices (range units
    #: only). Dispatch *prefers* the home worker — its spawns read the
    #: local vertex table instead of fetching — but any worker may take
    #: the unit when the home worker is busy or dead.
    home: int | None = None

    @property
    def size(self) -> int:
        """Task-granular weight: the metrics count tasks, not units."""
        return len(self.payload)


class WorkLedger:
    """Coordinator-side ledger of work units in flight to workers.

    ``config.lease_window`` caps concurrent leases per worker —
    pipelining without hoarding: a dead worker forfeits at most a
    window's worth of units.

    ``clock`` times the ``lease_reclaim`` spans only: the host's
    monotonic clock on the real runtime, the virtual one in simulation.
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        metrics: EngineMetrics,
        tracer: Any,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.max_attempts = config.max_attempts
        self.retry_backoff = config.retry_backoff
        self.lease_window = config.lease_window
        self.metrics = metrics
        self.tracer = tracer
        self._clock = clock
        self._leased: dict[int, tuple[int, WorkUnit]] = {}  # id -> (owner, unit)
        self._open: dict[int, set[int]] = {}  # worker_id -> leased ids
        self._attempts: dict[int, int] = {}  # id -> dispatch count, while live
        #: (due time, sequence, unit): FIFO among equal due times.
        self._retry_heap: list[tuple[float, int, WorkUnit]] = []
        self._seq = itertools.count()
        self.quarantined_ids: list[int] = []

    def __len__(self) -> int:
        """Units currently leased."""
        return len(self._leased)

    @property
    def idle(self) -> bool:
        """True when no unit is leased or awaiting retry."""
        return not (self._leased or self._retry_heap)

    def outstanding(self) -> dict[int, int]:
        """Leased work id -> the worker holding it."""
        return {work_id: owner for work_id, (owner, _) in self._leased.items()}

    def leased_task_count(self) -> int:
        return sum(unit.size for _, unit in self._leased.values())

    def open_count(self, worker_id: int) -> int:
        return len(self._open.get(worker_id, ()))

    def has_window(self, worker_id: int) -> bool:
        """True iff `worker_id` may be granted another lease."""
        return self.open_count(worker_id) < self.lease_window

    def grant(self, unit: WorkUnit, worker_id: int, *, enforce_window: bool = True) -> None:
        """Record `unit` shipping to `worker_id`; bumps its attempt count.

        Granting a leased or quarantined unit, past ``max_attempts``, or
        past the worker's window is a programming error and raises
        ValueError. ``enforce_window=False`` over-commits the window on
        purpose: a forwarded steal grant must land on its planned
        recipient rather than wait in the pending pool it was stolen to
        escape.
        """
        work_id = unit.work_id
        if work_id in self._leased or work_id in self.quarantined_ids:
            raise ValueError(f"unit {work_id} is already leased or quarantined")
        if enforce_window and not self.has_window(worker_id):
            raise ValueError(
                f"worker {worker_id} is at its lease window ({self.lease_window})"
            )
        count = self._attempts.get(work_id, 0) + 1
        if count > self.max_attempts:
            raise ValueError(
                f"unit {work_id} granted beyond max_attempts={self.max_attempts}"
            )
        self._attempts[work_id] = count
        self._leased[work_id] = (worker_id, unit)
        self._open.setdefault(worker_id, set()).add(work_id)

    def complete(self, work_id: int, worker_id: int) -> bool:
        """Retire a unit on its owner's ack; False if the ack is stale.

        Stale means the unit was reclaimed earlier or has since been
        re-leased to a different worker: an at-least-once duplicate whose
        only useful content, its candidates, the caller folds anyway.
        """
        entry = self._leased.get(work_id)
        if entry is None or entry[0] != worker_id:
            return False
        del self._leased[work_id]
        self._open[worker_id].discard(work_id)
        del self._attempts[work_id]
        return True

    def reclaim(self, worker_id: int, now: float) -> tuple[list[WorkUnit], list[WorkUnit]]:
        """Take back every unit a dead worker held: (retried, quarantined).

        In work-id order, each unit either joins the backoff heap or, at
        its attempt ceiling, quarantine. The one emission point of the
        ``task_retried``/``task_quarantined`` trace kinds, their metrics,
        and the ``lease_reclaim`` span (one per unit).
        """
        tracer = self.tracer
        retried: list[WorkUnit] = []
        quarantined: list[WorkUnit] = []
        for work_id in sorted(self._open.pop(worker_id, ())):
            t0 = self._clock() if tracer.enabled else 0.0
            _, unit = self._leased.pop(work_id)
            attempts = self._attempts[work_id]
            size = unit.size
            # size= lets trace analysis reproduce the task-granular
            # counters exactly (a work unit covers several tasks).
            if attempts >= self.max_attempts:
                del self._attempts[work_id]
                self.quarantined_ids.append(work_id)
                quarantined.append(unit)
                self.metrics.tasks_quarantined += size
                tracer.emit(
                    "task_quarantined", work_id, machine=-1, thread=worker_id,
                    detail=f"attempts={attempts} size={size}",
                )
                split = f"retried=0 quarantined={size}"
            else:
                delay = backoff_delay(self.retry_backoff, attempts)
                heapq.heappush(self._retry_heap, (now + delay, next(self._seq), unit))
                retried.append(unit)
                self.metrics.tasks_retried += size
                tracer.emit(
                    "task_retried", work_id, machine=-1, thread=worker_id,
                    detail=f"attempt={attempts} delay={delay:.4g} size={size}",
                )
                split = f"retried={size} quarantined=0"
            if tracer.enabled:
                emit_span(
                    tracer, "lease_reclaim", t0, self._clock(),
                    thread=worker_id, detail=split,
                )
        return retried, quarantined

    def pop_due(self, now: float) -> list[WorkUnit]:
        """Every unit whose backoff has elapsed, soonest first."""
        due: list[WorkUnit] = []
        while self._retry_heap and self._retry_heap[0][0] <= now:
            due.append(heapq.heappop(self._retry_heap)[2])
        return due

    def check_invariants(self) -> None:
        """Assert ledger-internal conservation (tests call this freely).
        No window assertion: steal forwarding may over-commit a worker."""
        by_owner = {(w, i) for w, ids in self._open.items() for i in ids}
        assert by_owner == {(w, i) for i, (w, _) in self._leased.items()}, (
            "open sets disagree with leases"
        )
        waiting = [unit.work_id for _, _, unit in self._retry_heap]
        live = set(self._leased) | set(waiting)
        assert len(live) == len(self._leased) + len(waiting), (
            "a unit is both leased and awaiting retry"
        )
        for work_id in live:
            count = self._attempts.get(work_id, 0)
            assert 1 <= count <= self.max_attempts, (
                f"live unit {work_id} has attempt count {count}"
            )
        quarantined = set(self.quarantined_ids)
        assert len(quarantined) == len(self.quarantined_ids), "quarantined twice"
        assert not (quarantined & set(self._attempts)), "quarantined unit is live"
