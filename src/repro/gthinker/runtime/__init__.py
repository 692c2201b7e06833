"""The fault-tolerant coordination control plane.

The bookkeeping behind the paper's coordination design — task leasing,
big-task stealing, and at-least-once result folding — whose one driver
is the master reactor (:class:`repro.gthinker.cluster.reactor.
MasterReactor`), run over TCP for the process and cluster backends and
over in-memory links by the deterministic simulator:

* :class:`~.ledger.WorkLedger` — one :class:`~.ledger.WorkUnit` per
  lease, per-worker windows, per-unit attempts, the retry backoff heap,
  final quarantine, and the one ``task_retried``/``task_quarantined``
  emission point;
* :class:`~.registry.WorkerRegistry` — :class:`~.registry.WorkerSlot`
  roster, heartbeat/EOF liveness, and the one ``worker_died`` path;
* :class:`~.channel.Channel` — the transport protocol
  (:class:`~.channel.StreamChannel` over TCP, the simulator's
  ``SimChannel``), every peer loss surfacing as
  :class:`~.channel.ChannelClosed`.
"""

from .channel import Channel, ChannelClosed, StreamChannel
from .ledger import WorkLedger, WorkUnit
from .registry import WorkerRegistry, WorkerSlot

__all__ = [
    "Channel",
    "ChannelClosed",
    "StreamChannel",
    "WorkLedger",
    "WorkUnit",
    "WorkerRegistry",
    "WorkerSlot",
]
