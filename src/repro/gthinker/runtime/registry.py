"""Worker registry: slots, incarnations, liveness, death accounting.

The coordinator's view of its workers, shared by every distributed
backend. A :class:`WorkerSlot` is one registered worker connection; a
worker that dies stays dead, and a replacement process (the localhost
launcher starts one) registers as a new slot under a fresh id, so
stale results from the dead one are recognized as such.

Liveness has two signals, and the registry handles both:

* **channel EOF** — the transport itself reports the peer gone
  (:class:`~.channel.ChannelClosed`); the driver calls :meth:`
  WorkerRegistry.fail`;
* **silence** — a wedged-but-connected worker stops heartbeating
  (a worker's driver is single-threaded, so one stuck in ``compute``
  is silent too); :meth:`WorkerRegistry.stale` surfaces the silent
  ones for the driver to fail.

:meth:`WorkerRegistry.fail` is the single place a worker death is
accounted: ``metrics.workers_died`` and the ``worker_died`` trace event
(machine=-1, thread=worker id) come from here for every backend, so
fault observability cannot drift between them. What happens *next* —
reclaiming the dead worker's leases (:func:`~.retry.reclaim_lease`) and
whether a replacement process is started — is the driver's policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from .channel import Channel

if TYPE_CHECKING:
    from ..metrics import EngineMetrics

__all__ = ["WorkerRegistry", "WorkerSlot", "worker_attribution"]


def worker_attribution(worker_id: int, thread: int = -1) -> tuple[int, int]:
    """(machine, thread) of a trace event that *originated on* a worker.

    One rule for every backend: worker-origin events (forwarded
    scheduler events, spans measured inside a worker) are attributed
    ``machine=worker id``, with ``thread`` the worker-local thread when
    the event carries one and -1 otherwise. Control-plane events *about*
    a worker (``worker_died``, ``task_retried``, …) are the mirror
    image — ``machine=-1, thread=worker id`` (see
    :meth:`WorkerRegistry.fail`) — so the two origins can never be
    confused in a trace.
    """
    return worker_id, thread


@dataclass
class WorkerSlot:
    """One registered worker connection."""

    worker_id: int
    channel: Channel | None = None
    alive: bool = True
    last_seen: float = 0.0
    # -- load-report fields (heartbeats feed the steal planner) ------------
    pending_big: int = 0
    active: int = 0


class WorkerRegistry:
    """The coordinator's pool roster and its single death-accounting path."""

    def __init__(self, *, metrics: EngineMetrics, tracer: Any):
        self.metrics = metrics
        self.tracer = tracer
        self._slots: dict[int, WorkerSlot] = {}
        self._ids = itertools.count()

    # -- membership --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[WorkerSlot]:
        return iter(self._slots.values())

    def new_id(self) -> int:
        """The next free worker id (for callers building their own slots)."""
        return next(self._ids)

    def add(self, slot: WorkerSlot) -> WorkerSlot:
        if slot.worker_id in self._slots:
            raise ValueError(f"worker slot {slot.worker_id} already registered")
        self._slots[slot.worker_id] = slot
        return slot

    def create(
        self, *, channel: Channel | None = None, now: float = 0.0
    ) -> WorkerSlot:
        """Register a newly-connected worker under the next free id."""
        return self.add(
            WorkerSlot(worker_id=next(self._ids), channel=channel, last_seen=now)
        )

    def get(self, worker_id: int) -> WorkerSlot | None:
        return self._slots.get(worker_id)

    def slots(self) -> list[WorkerSlot]:
        return list(self._slots.values())

    def alive(self) -> list[WorkerSlot]:
        return [s for s in self._slots.values() if s.alive]

    # -- liveness ----------------------------------------------------------

    def heartbeat(self, slot: WorkerSlot, now: float) -> None:
        slot.last_seen = now

    def stale(self, now: float, timeout: float) -> list[tuple[WorkerSlot, str]]:
        """Live slots silent past `timeout`, with a human-readable reason."""
        return [
            (slot, f"no heartbeat for {now - slot.last_seen:.1f}s")
            for slot in self.alive()
            if now - slot.last_seen > timeout
        ]

    def fail(self, slot: WorkerSlot, reason: str) -> bool:
        """Account one worker death; False if the slot was already dead.

        The one emission point for ``workers_died`` and the
        ``worker_died`` trace kind on every backend. Closes the slot's
        channel; lease reclaim and any replacement are the caller's move.
        """
        if not slot.alive:
            return False
        slot.alive = False
        self.metrics.workers_died += 1
        self.tracer.emit(
            "worker_died", -1, machine=-1, thread=slot.worker_id, detail=reason
        )
        if slot.channel is not None:
            slot.channel.close()
        return True
