"""Run telemetry over the engine's existing trace/metrics plumbing.

Three capabilities, all riding channels the engines already had
(docs/OBSERVABILITY.md is the full contract):

* **spans** — timed ``span_begin``/``span_end`` event pairs around the
  hot-path phases (:data:`~repro.gthinker.obs.spans.SPAN_NAMES`),
  emitted through the normal :class:`~repro.gthinker.tracing.Tracer`
  on every backend;
* **progress** — periodic :class:`ProgressSnapshot` emission from the
  master of the process and cluster backends (``progress`` trace event
  + ``on_progress`` callback + on-demand ``StatusRequest`` wire query);
* **trace-report** — ``repro trace-report run.jsonl`` folds any trace
  into per-worker timelines, phase times, fault/steal counts, and a
  slowest-tasks table.

Import note: :func:`query_master_status` lives in
:mod:`repro.gthinker.obs.status` and pulls in the cluster protocol;
it is imported lazily here so ``obs`` itself stays usable from the
leanest contexts (the in-process engine, tests of the snapshot format).
"""

from __future__ import annotations

from .progress import (
    ProgressSnapshot,
    format_progress,
    progress_detail,
    progress_json,
)
from .report import (
    TraceReport,
    build_report,
    format_report,
    load_trace,
    report_cli,
    report_to_json,
)
from .spans import SPAN_NAMES, emit_span, parse_detail, span

__all__ = [
    "ProgressSnapshot",
    "SPAN_NAMES",
    "TraceReport",
    "build_report",
    "emit_span",
    "format_progress",
    "format_report",
    "load_trace",
    "parse_detail",
    "progress_detail",
    "progress_json",
    "query_master_status",
    "report_cli",
    "report_to_json",
    "span",
]


def query_master_status(host: str, port: int, timeout: float = 10.0):
    """Lazy re-export of :func:`repro.gthinker.obs.status.query_master_status`."""
    from .status import query_master_status as _query

    return _query(host, port, timeout=timeout)
