"""Worker registry: slots, liveness, death accounting.

The master reactor's view of its workers. A :class:`WorkerSlot` is one
registered worker connection; a worker that dies stays dead, and a
replacement process registers as a new slot under a fresh id, so stale
results from the dead one are recognized as such. A worker is dead
when its channel reports EOF, or when it falls silent past the
heartbeat timeout (:meth:`WorkerRegistry.stale`; a worker's driver is
single-threaded, so one wedged in ``compute`` is silent too).
:meth:`WorkerRegistry.fail` is the single place a death is accounted;
reclaiming the dead worker's units and asking for a replacement
process are the reactor's move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .channel import Channel

if TYPE_CHECKING:
    from ..cluster.protocol import Hello
    from ..metrics import EngineMetrics

__all__ = ["WorkerRegistry", "WorkerSlot"]


@dataclass
class WorkerSlot:
    """One registered worker connection."""

    worker_id: int
    channel: Channel | None = None
    #: The worker's registration (its pid names the process to the
    #: launcher that supervises it).
    hello: Hello | None = None
    alive: bool = True
    last_seen: float = 0.0
    #: Big tasks the worker last reported queued: the steal planner's input.
    pending_big: int = 0
    #: A StealRequest to this worker is outstanding (one per donor).
    stealing_from: bool = False


class WorkerRegistry:
    """The master's worker roster and its single death-accounting path."""

    def __init__(self, *, metrics: EngineMetrics, tracer: Any):
        self.metrics = metrics
        self.tracer = tracer
        self._slots: dict[int, WorkerSlot] = {}
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self._slots)

    def register(
        self, channel: Channel | None = None, hello: Hello | None = None, now: float = 0.0
    ) -> WorkerSlot:
        """Register a newly connected worker under the next free id."""
        slot = WorkerSlot(next(self._ids), channel, hello, last_seen=now)
        self._slots[slot.worker_id] = slot
        return slot

    def get(self, worker_id: int) -> WorkerSlot | None:
        return self._slots.get(worker_id)

    def alive(self) -> list[WorkerSlot]:
        return [s for s in self._slots.values() if s.alive]

    def stale(self, now: float, timeout: float) -> list[tuple[WorkerSlot, str]]:
        """Live slots silent past `timeout`, with a human-readable reason."""
        return [
            (slot, f"no heartbeat for {now - slot.last_seen:.1f}s")
            for slot in self.alive()
            if now - slot.last_seen > timeout
        ]

    def fail(self, slot: WorkerSlot, reason: str) -> bool:
        """Account one death (``workers_died``, a ``worker_died`` event
        at machine=-1, thread=worker id) and close the slot's channel;
        False if the slot was already dead."""
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
