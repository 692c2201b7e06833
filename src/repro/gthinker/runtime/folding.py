"""At-least-once result folding.

Retry makes execution at-least-once, so the coordinator will sooner or
later see the same work twice: a worker presumed dead flushes a result
for a lease already reclaimed and re-dispatched, or an ack arrives from
a dead worker's era. :class:`ResultFolder` is the one place the
coordinator decides what survives a duplicate:

* **candidates always fold** — the dedup key is the candidate vertex
  set itself (:meth:`ResultFolder.fold` normalizes every candidate to a
  ``frozenset`` before it reaches the sink), so folding a stale batch
  is idempotent and mined truth is never thrown away;
* **everything else folds once** — children, per-batch metrics, and
  completion credit ride on :meth:`ResultFolder.complete`, which
  returns None for a stale lease (reclaimed, or re-leased to a
  different worker) and counts the drop in
  ``metrics.stale_results_dropped``;
* **worker trace events forward through one gate** —
  :meth:`ResultFolder.forward_events` replays a worker's scheduler
  events into the coordinator's tracer, optionally filtered to an
  allow-list, attributed by the one worker-origin rule
  (:func:`~.registry.worker_attribution`): ``machine=worker id`` on
  every backend, ``thread`` the worker-local thread when the event
  carries one (4-tuples) and -1 otherwise (3-tuples).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Collection, Generic, Iterable, TypeVar

from ..obs.spans import emit_span
from .ledger import Lease, WorkLedger
from .registry import worker_attribution

if TYPE_CHECKING:
    from ..metrics import EngineMetrics

T = TypeVar("T")

__all__ = ["ResultFolder"]


class ResultFolder(Generic[T]):
    """Folds worker results into the job under at-least-once delivery."""

    def __init__(
        self,
        sink: Any,
        ledger: WorkLedger[T],
        *,
        metrics: EngineMetrics,
        tracer: Any,
    ):
        self.sink = sink
        self.ledger = ledger
        self.metrics = metrics
        self.tracer = tracer

    def fold(self, candidates: Iterable[Collection[int]]) -> int:
        """Fold mined candidates into the sink; returns how many were new.

        Always safe, even from a stale duplicate or a failing worker's
        last gasp: the sink keys on ``frozenset(candidate)``, so the
        same vertex set folded twice is one result.
        """
        trace = self.tracer.enabled
        t0 = time.monotonic() if trace else 0.0
        before = len(self.sink)
        folded = 0
        for candidate in candidates:
            self.sink.emit(frozenset(candidate))
            folded += 1
        new = len(self.sink) - before
        if trace and folded:
            emit_span(
                self.tracer, "result_fold", t0, time.monotonic(),
                detail=f"candidates={folded} new={new}",
            )
        return new

    def complete(self, lease_id: int, worker_id: int | None = None) -> Lease[T] | None:
        """Retire a lease on its result; None (and a counted drop) if stale.

        A None return tells the driver the rest of the message —
        children, metrics, completion credit — belongs to the retry
        that superseded this attempt and must be dropped to keep
        accounting single-count.
        """
        lease = self.ledger.complete(lease_id, worker_id)
        if lease is None:
            self.metrics.stale_results_dropped += 1
        return lease

    def forward_events(
        self,
        worker_id: int,
        events: Iterable[tuple],
        allowed: Collection[str] | None = None,
    ) -> None:
        """Replay worker-forwarded trace events into the job tracer."""
        if not self.tracer.enabled:
            return
        for event in events:
            if len(event) == 4:
                kind, task_id, thread, detail = event
                machine, thread_id = worker_attribution(worker_id, thread)
            else:
                kind, task_id, detail = event
                machine, thread_id = worker_attribution(worker_id)
            if allowed is not None and kind not in allowed:
                continue
            self.tracer.emit(
                kind, task_id, machine=machine, thread=thread_id, detail=detail
            )
