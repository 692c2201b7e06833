"""Retry-backoff-quarantine policy for reclaimed work.

One policy for every distributed backend: work reclaimed from a dead
or wedged worker
is re-dispatched after an exponential backoff — ``retry_backoff *
2^(attempt-1)`` seconds, so a task that keeps landing on sick workers
backs off doubling — until it has been dispatched ``max_attempts``
times, at which point the :class:`~.ledger.WorkLedger` quarantines it
as poisoned instead of letting it death-spiral the job.

:class:`RetryPolicy` owns the *scheduling* half (a due-time heap plus
an audit ``history``); the ledger owns the *quarantine threshold*;
:func:`reclaim_lease` glues them together and is the single place the
``task_retried`` and ``task_quarantined`` trace kinds are emitted, so
the master reactor and the simulator that drives it report faults
identically.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import TYPE_CHECKING, Any, Callable, Generic, TypeVar

from ..obs.spans import emit_span
from .ledger import Lease, WorkLedger

if TYPE_CHECKING:
    from ..metrics import EngineMetrics

T = TypeVar("T")

__all__ = ["RetryPolicy", "backoff_delay", "reclaim_lease"]


def backoff_delay(base: float, attempt: int) -> float:
    """Exponential backoff before re-dispatching a failed attempt.

    ``base * 2^(attempt-1)``: attempt is the 1-based dispatch count that
    just failed, so the first retry waits ``base``, the next ``2*base``…
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    return base * (2 ** (attempt - 1))


class RetryPolicy(Generic[T]):
    """Backoff scheduler for reclaimed work awaiting re-dispatch.

    A min-heap of (due-time, item); the owning loop pops due entries
    with :meth:`pop_due` and routes them back into its dispatch queue.
    Items in the heap are *live but unleased* — their attempt records in
    the ledger persist, which is what keeps the conservation invariant
    airtight while they wait out the backoff.
    """

    def __init__(self, backoff: float):
        self.backoff = backoff
        #: Audit log of every scheduled retry: (member key, failed
        #: attempt number, delay applied).
        self.history: list[tuple[int, int, float]] = []
        self._heap: list[tuple[float, int, int, T]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def delay(self, attempt: int) -> float:
        return backoff_delay(self.backoff, attempt)

    def schedule(self, key: int, item: T, attempts: int, now: float) -> float:
        """Queue `item` for re-dispatch after its backoff; returns the delay."""
        delay = self.delay(attempts)
        heapq.heappush(self._heap, (now + delay, next(self._seq), attempts, item))
        self.history.append((key, attempts, delay))
        return delay

    def next_due(self) -> float | None:
        """Due time of the soonest retry, or None when the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> list[tuple[T, int]]:
        """All retries whose backoff has elapsed, as (item, attempts)."""
        due: list[tuple[T, int]] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, attempts, item = heapq.heappop(self._heap)
            due.append((item, attempts))
        return due


def reclaim_lease(
    ledger: WorkLedger[T],
    lease: Lease[T],
    policy: RetryPolicy[T],
    now: float,
    *,
    metrics: EngineMetrics,
    tracer: Any,
    on_quarantine: Callable[[T, int], None] | None = None,
) -> tuple[list[tuple[T, int]], list[tuple[T, int]]]:
    """Take back a failed lease: schedule retries, quarantine poison.

    The one reclaim path: every worker death lands here, whatever
    detected it (EOF, a failed send, heartbeat silence). Splits the lease via
    :meth:`WorkLedger.reclaim`, schedules every retryable member on
    `policy`'s backoff heap, and emits the ``task_retried`` /
    ``task_quarantined`` trace events and metrics for each member.
    `on_quarantine(item, attempts)` lets the driver record the poisoned
    member for post-mortem (e.g. ``MasterReactor.quarantined``).
    """
    trace = tracer.enabled
    t0 = time.monotonic() if trace else 0.0
    retry, quarantine = ledger.reclaim(lease)
    retried_tasks = quarantined_tasks = 0
    for item, attempts in quarantine:
        size = ledger.size_of(item)
        quarantined_tasks += size
        metrics.tasks_quarantined += size
        # size= lets trace analysis reproduce the run's task-granular
        # counters exactly (a cluster work unit covers several tasks).
        tracer.emit(
            "task_quarantined", ledger.key_of(item), machine=-1,
            thread=lease.worker_id, detail=f"attempts={attempts} size={size}",
        )
        if on_quarantine is not None:
            on_quarantine(item, attempts)
    for item, attempts in retry:
        delay = policy.schedule(ledger.key_of(item), item, attempts, now)
        size = ledger.size_of(item)
        retried_tasks += size
        metrics.tasks_retried += size
        tracer.emit(
            "task_retried", ledger.key_of(item), machine=-1,
            thread=lease.worker_id,
            detail=f"attempt={attempts} delay={delay:.4g} size={size}",
        )
    if trace:
        emit_span(
            tracer, "lease_reclaim", t0, time.monotonic(),
            thread=lease.worker_id,
            detail=f"retried={retried_tasks} quarantined={quarantined_tasks}",
        )
    return retry, quarantine
