"""Structured tracing of engine scheduling decisions.

For debugging and for *testing the scheduler itself*: with a tracer
attached, the engine emits one event per lifecycle step (spawn, queue
routing, pop origin, execution, decomposition, steal), so tests can
assert policy properties — e.g. "a task is never executed before it was
routed" or "global pops precede local pops while big tasks exist" —
instead of inferring them from aggregate counters.

The tracer is bounded (ring buffer) and lock-guarded; a NullTracer with
no-op emit keeps the hot path free when tracing is off (the default).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import warnings
from collections import deque
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class TraceEvent:
    """One scheduling decision."""

    seq: int
    kind: str
    task_id: int
    machine: int
    thread: int
    detail: str = ""


#: Event kinds the engine emits.
KINDS = (
    "spawn",  # task created from the vertex table
    "route_global",  # task added to a machine's global big-task queue
    "route_local",  # task added to a thread's local queue
    "pop_global",  # task taken from the global queue
    "pop_local",  # task taken from a local queue
    "ready_global",  # data-ready big task buffered (B_global)
    "ready_local",  # data-ready small task buffered (B_local)
    "execute",  # one compute round starts
    "finish",  # task completed
    "decompose",  # task produced subtasks
    "steal_planned",  # master planned one big-task move (per StealMove)
    "steal_sent",  # big tasks left the donor machine's global queue
    "steal_received",  # big tasks arrived at the recipient machine
    "worker_died",  # a worker process died or was declared wedged
    "task_retried",  # reclaimed task re-entered the routing policy
    "task_quarantined",  # task poisoned after max_attempts failures
    "span_begin",  # a timed hot-path span opened (detail: name= t=)
    "span_end",  # a timed hot-path span closed (detail: name= t= dur=)
    "progress",  # periodic live-progress snapshot (coordinator only)
    "vertex_requested",  # worker asked the owner for remote adjacency
    "vertex_served",  # master answered a vertex fetch (detail: size=)
)

#: Kinds emitted by the stealing path. They fire on virtual time in the
#: serial executor at M x T > 1 and on real network round-trips in the process and
#: cluster backends' runtime, so cross-executor
#: vocabulary comparisons must treat them as timing-dependent.
STEAL_KINDS = frozenset({"steal_planned", "steal_sent", "steal_received"})

#: Kinds emitted by the observability layer (repro.gthinker.obs): timed
#: span pairs around the hot-path phases and the coordinator's periodic
#: progress snapshot. Like STEAL_KINDS they are timing-dependent — which
#: spans fire depends on wall-clock spill/steal/fault behaviour — so
#: cross-executor vocabulary comparisons must exclude them too.
SPAN_KINDS = frozenset({"span_begin", "span_end"})
OBS_KINDS = SPAN_KINDS | {"progress"}

#: Unknown kinds already warned about (production mode warns once per kind).
_warned_kinds: set[str] = set()


def _validate_kind(kind: str) -> None:
    """Check an emitted kind against the KINDS vocabulary.

    Under pytest (or with ``REPRO_STRICT_TRACE=1``) an unknown kind is a
    hard error — a typo'd kind would silently vanish from every
    ``events(kind=...)`` filter and cross-executor vocabulary check.
    In production it degrades to a once-per-kind warning and the event
    is still recorded: tracing must never take down a mining run.
    """
    if kind in KINDS:
        return
    strict = (
        "PYTEST_CURRENT_TEST" in os.environ
        or os.environ.get("REPRO_STRICT_TRACE") == "1"
    )
    if strict:
        raise ValueError(
            f"unknown trace kind {kind!r}; add it to tracing.KINDS"
        )
    if kind not in _warned_kinds:
        _warned_kinds.add(kind)
        warnings.warn(
            f"unknown trace kind {kind!r} (not in tracing.KINDS); "
            f"recording it anyway",
            RuntimeWarning,
            stacklevel=3,
        )


class Tracer:
    """Bounded, thread-safe event recorder."""

    def __init__(self, capacity: int = 100_000):
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

    def emit(
        self, kind: str, task_id: int, machine: int = -1, thread: int = -1,
        detail: str = "",
    ) -> None:
        _validate_kind(kind)
        with self._lock:
            self._events.append(
                TraceEvent(
                    seq=next(self._seq), kind=kind, task_id=task_id,
                    machine=machine, thread=thread, detail=detail,
                )
            )

    def events(self, kind: str | None = None, task_id: int | None = None) -> list[TraceEvent]:
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if task_id is not None:
            out = [e for e in out if e.task_id == task_id]
        return out

    def counts(self) -> dict[str, int]:
        summary: dict[str, int] = {}
        for e in self.events():
            summary[e.kind] = summary.get(e.kind, 0) + 1
        return summary

    def dump_jsonl(self, path: str | os.PathLike) -> int:
        """Write events as JSON lines; returns the count written."""
        events = self.events()
        with open(path, "w") as f:
            for e in events:
                f.write(json.dumps(asdict(e)) + "\n")
        return len(events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullTracer:
    """No-op tracer (the default; keeps the scheduling hot path clean)."""

    @property
    def enabled(self) -> bool:
        return False

    def emit(self, *args, **kwargs) -> None:
        return None

    def events(self, *args, **kwargs) -> list[TraceEvent]:
        return []

    def counts(self) -> dict[str, int]:
        return {}

    def __len__(self) -> int:
        return 0
