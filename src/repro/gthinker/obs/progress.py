"""Live progress snapshots from the distributed coordinators.

A :class:`ProgressSnapshot` is the coordinator's answer to "how far
along is this job right now": work-item counts by lifecycle stage,
candidates found so far, and worker liveness. The master of the
process and cluster backends builds one as often as workers report
their progress (every four heartbeats: 1 s at the default
``config.heartbeat_period``) while a callback or tracer is attached,
then

* emit it as a ``progress`` trace event (``detail`` holds the counters
  as ``key=value`` pairs, so ``repro trace-report`` can replay the
  job's progress curve from the trace alone), and
* hand it to an ``on_progress`` callback — the CLI's ``--progress``
  flag renders it to stderr; the cluster master additionally serves it
  on demand over the wire (``StatusRequest``/``StatusReply``).

Pending/leased counts are master-side *work units* (spawn-range chunks
/ task batches); ``tasks_done`` is always executed tasks as reported
by workers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ProgressSnapshot",
    "format_progress",
    "progress_detail",
    "progress_json",
]


@dataclass(frozen=True)
class ProgressSnapshot:
    """One moment of a running job, as its coordinator sees it."""

    #: Seconds since the coordinator's run() started (wall clock).
    wall_seconds: float
    #: Work items queued but not currently leased to any worker.
    tasks_pending: int
    #: Work items leased out and awaiting results.
    tasks_leased: int
    #: Tasks whose execution has been folded in so far.
    tasks_done: int
    #: Distinct candidate vertex sets folded into the sink so far.
    candidates: int
    #: Workers currently registered and alive.
    workers_alive: int
    #: Worker deaths accounted so far (incidents, not processes lost).
    workers_died: int = 0


def progress_detail(snapshot: ProgressSnapshot) -> str:
    """The ``progress`` trace event's detail string (``key=value`` pairs)."""
    return (
        f"wall={snapshot.wall_seconds:.3f} "
        f"pending={snapshot.tasks_pending} leased={snapshot.tasks_leased} "
        f"done={snapshot.tasks_done} candidates={snapshot.candidates} "
        f"workers={snapshot.workers_alive} died={snapshot.workers_died}"
    )


def progress_json(snapshot: ProgressSnapshot) -> dict:
    """The snapshot as a JSON-shaped dict — the wire form served by the
    mining service's ``GET /jobs/{id}`` (``progress`` object). Field
    names are the dataclass fields, so the HTTP contract is pinned to
    this module rather than re-declared in the server."""
    import dataclasses

    return dataclasses.asdict(snapshot)


def format_progress(snapshot: ProgressSnapshot) -> str:
    """Human-readable one-liner (what ``--progress`` prints to stderr)."""
    line = (
        f"progress {snapshot.wall_seconds:7.1f}s  "
        f"pending={snapshot.tasks_pending} leased={snapshot.tasks_leased} "
        f"done={snapshot.tasks_done} candidates={snapshot.candidates} "
        f"workers={snapshot.workers_alive}"
    )
    if snapshot.workers_died:
        line += f" (+{snapshot.workers_died} died)"
    return line
