"""The fault-tolerant coordination control plane.

The paper's system contribution is one coordination design — task
leasing, big-task stealing, and at-least-once result folding — and this
package is its single implementation. The master reactor
(:class:`repro.gthinker.cluster.reactor.MasterReactor`) drives it for
the process and cluster backends, over TCP from
:mod:`repro.gthinker.cluster.master` and over in-memory links from the
deterministic simulator (:mod:`repro.gthinker.sim`); everything
fault-semantic lives here:

* :class:`~.ledger.WorkLedger` — grant/complete/reclaim lease
  bookkeeping with per-worker windows, per-member attempt counts, and
  conservation invariants;
* :class:`~.registry.WorkerRegistry` — worker slots, heartbeat/EOF
  liveness, and the single ``worker_died`` accounting path;
* :class:`~.retry.RetryPolicy` + :func:`~.retry.reclaim_lease` — the
  ``retry_backoff * 2^(attempt-1)`` backoff schedule and the one
  reclaim path that emits ``task_retried`` / ``task_quarantined``;
* :class:`~.folding.ResultFolder` — at-least-once folding: frozenset
  candidate dedup, stale-lease drops, worker trace-event forwarding;
* :class:`~.channel.Channel` — the transport protocol
  (:class:`~.channel.StreamChannel` over TCP), with every peer-loss
  mode surfacing as one :class:`~.channel.ChannelClosed` signal.

Every driver gets identical fault observability *by construction*: the
``worker_died``, ``task_retried``, and ``task_quarantined`` trace kinds
and their metrics counters are emitted only from this package.
"""

from .channel import Channel, ChannelClosed, StreamChannel
from .folding import ResultFolder
from .ledger import Lease, WorkLedger
from .registry import WorkerRegistry, WorkerSlot, worker_attribution
from .retry import RetryPolicy, backoff_delay, reclaim_lease

__all__ = [
    "Channel",
    "ChannelClosed",
    "Lease",
    "ResultFolder",
    "RetryPolicy",
    "StreamChannel",
    "WorkLedger",
    "WorkerRegistry",
    "WorkerSlot",
    "backoff_delay",
    "reclaim_lease",
    "worker_attribution",
]
