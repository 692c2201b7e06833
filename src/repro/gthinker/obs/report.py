"""Trace analysis: fold a run's JSONL trace into a readable report.

``repro trace-report <run.jsonl>`` (wired through :mod:`repro.cli`)
reads a trace written by ``Tracer.dump_jsonl`` — any backend, any mix
of scheduling, fault, steal, span, and progress events — and folds it
into:

* a **per-worker timeline** — one row per ``(machine, thread)`` event
  stream: event count, executes/finishes/spawns, mining seconds (sum of
  its ``batch_mine`` span durations), spill refills, and the stream's
  first/last sequence numbers;
* a **phase-time breakdown** — count and total seconds per span name
  (see :data:`~repro.gthinker.obs.spans.SPAN_NAMES`);
* **fault and steal counts** — worker deaths, retried/quarantined task
  counts (summing the ``size=`` field reclaim events carry, so cluster
  work units of several tasks count exactly as the run's metrics did),
  and planned/sent/received steals;
* **remote vertex fetch counts** — ``vertex_requested`` /
  ``vertex_served`` events and the vertex totals their ``size=``
  payloads carry (the distributed vertex store's wire traffic);
* a **top-K slowest tasks** table from per-task ``batch_mine`` time.

``--json`` emits the same report as one JSON object: ``instance``
(trace path, event and kind counts), ``cpu_count``, one ``rows`` entry
per worker, and ``phases`` / ``faults`` / ``fetches`` /
``slowest_tasks`` sections, so scripts and CI can consume it.

The report is computed from the trace alone — no metrics file, no
source run — which is the point: the acceptance bar for this module is
that fault counters reproduced from a chaos run's trace equal the run's
own ``EngineMetrics`` exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from ...core.resultsio import write_text_atomic
from ..tracing import KINDS
from .spans import parse_detail

__all__ = [
    "FaultCounts",
    "FetchCounts",
    "TraceReport",
    "WorkerTimeline",
    "build_report",
    "format_report",
    "load_trace",
    "report_cli",
    "report_to_json",
]

#: Fallback size for retry/quarantine events whose detail lacks size=.
_DEFAULT_SIZE = 1


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Read one ``Tracer.dump_jsonl`` file; skips blank lines."""
    events: list[dict] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a JSON trace line: {exc}")
            events.append(event)
    return events


def stream_label(machine: int, thread: int) -> str:
    """Human label of one event stream (worker timeline row key).

    Worker-origin events carry ``machine >= 0`` (the unified attribution
    rule); control-plane events carry ``machine == -1``.
    """
    if machine < 0:
        return "coordinator"
    if thread < 0:
        return f"m{machine}"
    return f"m{machine}/t{thread}"


@dataclass
class WorkerTimeline:
    """One event stream's summary row."""

    worker: str
    events: int = 0
    executes: int = 0
    finishes: int = 0
    spawns: int = 0
    mine_seconds: float = 0.0
    mine_spans: int = 0
    spill_refills: int = 0
    first_seq: int = -1
    last_seq: int = -1


@dataclass
class FaultCounts:
    """Fault and steal accounting reproduced from the trace alone."""

    workers_died: int = 0
    tasks_retried: int = 0
    tasks_quarantined: int = 0
    steals_planned: int = 0
    steals_sent: int = 0
    steals_received: int = 0
    stale_drops: int = 0  # not traced; always 0 (kept for schema clarity)


@dataclass
class FetchCounts:
    """Distributed-vertex-store traffic reproduced from the trace.

    ``vertex_requested`` is worker-side (one batched VertexRequest),
    ``vertex_served`` is master-side (one VertexReply). Served can
    exceed requested under duplicated frames — the master re-serves
    statelessly and the worker drops the duplicate reply.
    """

    requests: int = 0
    served: int = 0
    vertices_requested: int = 0
    vertices_served: int = 0


@dataclass
class SlowTask:
    """One entry of the top-K slowest-tasks table."""

    task_id: int
    seconds: float
    worker: str
    spans: int


@dataclass
class TraceReport:
    """Everything ``trace-report`` derives from one trace file."""

    path: str
    events: int
    kinds: dict[str, int]
    unknown_kinds: dict[str, int]
    workers: list[WorkerTimeline]
    phases: dict[str, dict[str, float]]  # name -> {count, seconds}
    faults: FaultCounts
    fetches: FetchCounts
    slowest: list[SlowTask]
    progress_samples: int = 0
    last_progress: dict[str, str] = field(default_factory=dict)


def build_report(events: list[dict], path: str = "<trace>", top_k: int = 10) -> TraceReport:
    """Fold raw trace events into a :class:`TraceReport`."""
    kinds: dict[str, int] = {}
    unknown: dict[str, int] = {}
    streams: dict[tuple[int, int], WorkerTimeline] = {}
    phases: dict[str, dict[str, float]] = {}
    faults = FaultCounts()
    fetches = FetchCounts()
    per_task: dict[int, dict] = {}
    progress_samples = 0
    last_progress: dict[str, str] = {}

    for event in events:
        kind = event.get("kind", "?")
        machine = int(event.get("machine", -1))
        thread = int(event.get("thread", -1))
        seq = int(event.get("seq", -1))
        task_id = int(event.get("task_id", -1))
        detail = event.get("detail", "")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind not in KINDS:
            unknown[kind] = unknown.get(kind, 0) + 1

        # Control-plane events (machine == -1) use thread for *about-whom*
        # attribution, not as a stream id — fold them into one row.
        key = (machine, thread) if machine >= 0 else (-1, -1)
        row = streams.get(key)
        if row is None:
            row = streams[key] = WorkerTimeline(worker=stream_label(machine, thread))
        row.events += 1
        if row.first_seq < 0 or seq < row.first_seq:
            row.first_seq = seq
        row.last_seq = max(row.last_seq, seq)

        if kind == "execute":
            row.executes += 1
        elif kind == "finish":
            row.finishes += 1
        elif kind == "spawn":
            row.spawns += 1
        elif kind == "worker_died":
            faults.workers_died += 1
        elif kind in ("task_retried", "task_quarantined"):
            size = int(parse_detail(detail).get("size", _DEFAULT_SIZE))
            if kind == "task_retried":
                faults.tasks_retried += size
            else:
                faults.tasks_quarantined += size
        elif kind == "steal_planned":
            faults.steals_planned += 1
        elif kind == "steal_sent":
            faults.steals_sent += 1
        elif kind == "steal_received":
            faults.steals_received += 1
        elif kind == "vertex_requested":
            fetches.requests += 1
            fetches.vertices_requested += int(
                parse_detail(detail).get("size", _DEFAULT_SIZE)
            )
        elif kind == "vertex_served":
            fetches.served += 1
            fetches.vertices_served += int(
                parse_detail(detail).get("size", _DEFAULT_SIZE)
            )
        elif kind == "progress":
            progress_samples += 1
            last_progress = parse_detail(detail)
        elif kind == "span_end":
            fields = parse_detail(detail)
            name = fields.get("name", "?")
            try:
                dur = float(fields.get("dur", "0"))
            except ValueError:
                dur = 0.0
            phase = phases.setdefault(name, {"count": 0, "seconds": 0.0})
            phase["count"] += 1
            phase["seconds"] += dur
            if name == "batch_mine":
                row.mine_seconds += dur
                row.mine_spans += 1
                entry = per_task.setdefault(
                    task_id, {"seconds": 0.0, "worker": row.worker, "spans": 0}
                )
                entry["seconds"] += dur
                entry["spans"] += 1
            elif name == "spill_refill":
                row.spill_refills += 1

    slowest = sorted(
        (
            SlowTask(
                task_id=tid, seconds=entry["seconds"],
                worker=entry["worker"], spans=entry["spans"],
            )
            for tid, entry in per_task.items()
        ),
        key=lambda s: (-s.seconds, s.task_id),
    )[:top_k]

    workers = sorted(streams.values(), key=lambda w: w.worker)
    return TraceReport(
        path=str(path),
        events=len(events),
        kinds=dict(sorted(kinds.items())),
        unknown_kinds=dict(sorted(unknown.items())),
        workers=workers,
        phases=dict(sorted(phases.items())),
        faults=faults,
        fetches=fetches,
        slowest=slowest,
        progress_samples=progress_samples,
        last_progress=last_progress,
    )


# -- rendering --------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    return "\n".join(out)


def format_report(report: TraceReport) -> str:
    """Render the report as the ``trace-report`` terminal output."""
    sections: list[str] = [
        f"trace: {report.path}",
        f"events: {report.events} "
        f"({len(report.kinds)} kinds"
        + (f", {sum(report.unknown_kinds.values())} unknown" if report.unknown_kinds else "")
        + ")",
    ]

    sections.append("\n== per-worker timeline ==")
    sections.append(_table(
        ["worker", "events", "executes", "finishes", "spawns",
         "mine s", "refills", "seq range"],
        [
            [
                w.worker, str(w.events), str(w.executes), str(w.finishes),
                str(w.spawns), f"{w.mine_seconds:.4f}", str(w.spill_refills),
                f"{w.first_seq}..{w.last_seq}",
            ]
            for w in report.workers
        ],
    ))

    if report.phases:
        sections.append("\n== phase time (spans) ==")
        sections.append(_table(
            ["phase", "spans", "seconds"],
            [
                [name, str(int(p["count"])), f"{p['seconds']:.4f}"]
                for name, p in sorted(
                    report.phases.items(), key=lambda kv: -kv[1]["seconds"]
                )
            ],
        ))

    f = report.faults
    sections.append("\n== faults & steals ==")
    sections.append(
        f"workers_died={f.workers_died} tasks_retried={f.tasks_retried} "
        f"tasks_quarantined={f.tasks_quarantined}\n"
        f"steals_planned={f.steals_planned} steals_sent={f.steals_sent} "
        f"steals_received={f.steals_received}"
    )

    v = report.fetches
    if v.requests or v.served:
        sections.append("\n== remote vertex fetches ==")
        sections.append(
            f"requests={v.requests} served={v.served} "
            f"vertices_requested={v.vertices_requested} "
            f"vertices_served={v.vertices_served}"
        )

    if report.slowest:
        sections.append("\n== slowest tasks (batch_mine) ==")
        sections.append(_table(
            ["task", "seconds", "worker", "spans"],
            [
                [str(s.task_id), f"{s.seconds:.4f}", s.worker, str(s.spans)]
                for s in report.slowest
            ],
        ))

    if report.progress_samples:
        tail = " ".join(f"{k}={v}" for k, v in report.last_progress.items())
        sections.append(
            f"\nprogress samples: {report.progress_samples} (last: {tail})"
        )
    return "\n".join(sections) + "\n"


def report_to_json(report: TraceReport) -> dict:
    """The ``--json`` payload: ``instance``, ``cpu_count``, per-worker
    ``rows``, then ``phases`` / ``faults`` / ``fetches`` /
    ``slowest_tasks``."""
    return {
        "instance": {
            "trace": report.path,
            "events": report.events,
            "kinds": report.kinds,
            "unknown_kinds": report.unknown_kinds,
            "progress_samples": report.progress_samples,
        },
        "cpu_count": os.cpu_count(),
        "rows": [
            {
                "worker": w.worker,
                "events": w.events,
                "tasks_executed": w.executes,
                "tasks_finished": w.finishes,
                "tasks_spawned": w.spawns,
                "wall_seconds": w.mine_seconds,
                "mine_spans": w.mine_spans,
                "spill_refills": w.spill_refills,
            }
            for w in report.workers
        ],
        "phases": report.phases,
        "faults": {
            "workers_died": report.faults.workers_died,
            "tasks_retried": report.faults.tasks_retried,
            "tasks_quarantined": report.faults.tasks_quarantined,
            "steals_planned": report.faults.steals_planned,
            "steals_sent": report.faults.steals_sent,
            "steals_received": report.faults.steals_received,
        },
        "fetches": {
            "requests": report.fetches.requests,
            "served": report.fetches.served,
            "vertices_requested": report.fetches.vertices_requested,
            "vertices_served": report.fetches.vertices_served,
        },
        "slowest_tasks": [
            {
                "task_id": s.task_id, "seconds": s.seconds,
                "worker": s.worker, "spans": s.spans,
            }
            for s in report.slowest
        ],
    }


def report_cli(argv: list[str] | None = None) -> int:
    """``repro trace-report`` entry point."""
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine trace-report",
        description="Fold a scheduler trace (JSONL from --trace) into a "
        "per-worker timeline, phase-time breakdown, fault/steal counts, "
        "and a top-K slowest-tasks table.",
    )
    parser.add_argument("trace", help="JSONL trace file written by --trace")
    parser.add_argument("--top", type=int, default=10, metavar="K",
                        help="slowest-tasks rows to show (default: 10)")
    parser.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="FILE",
                        help="emit the report as JSON (instance, cpu_count, "
                        "per-worker rows, phases, faults, fetches, "
                        "slowest_tasks) to FILE ('-' or no value = stdout) "
                        "instead of text")
    args = parser.parse_args(argv)
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = build_report(events, path=args.trace, top_k=args.top)
    if args.json is not None:
        payload = json.dumps(report_to_json(report), indent=2)
        if args.json == "-":
            print(payload)
        else:
            write_text_atomic(args.json, payload + "\n")
    else:
        print(format_report(report), end="")
    return 0
