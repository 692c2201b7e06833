"""Tests for the observability layer (repro.gthinker.obs).

Pins the span contract (pairing, nesting, vocabulary), per-worker
timing accounting and live-progress snapshots — the parts of
docs/OBSERVABILITY.md that are behaviour, not prose.
"""

import time

import pytest
from conftest import make_random_graph

from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.metrics import EngineMetrics, WorkerTiming
from repro.gthinker.obs import (
    SPAN_NAMES,
    ProgressSnapshot,
    emit_span,
    format_progress,
    parse_detail,
    progress_detail,
    span,
)
from repro.gthinker.tracing import NullTracer, Tracer


class TestEmitSpan:
    def test_emits_begin_end_pair(self):
        tracer = Tracer()
        emit_span(tracer, "batch_mine", 1.0, 1.5, task_id=7,
                  machine=2, thread=1, detail="children=3")
        begin, end = tracer.events()
        assert begin.kind == "span_begin" and end.kind == "span_end"
        assert (begin.task_id, begin.machine, begin.thread) == (7, 2, 1)
        assert (end.task_id, end.machine, end.thread) == (7, 2, 1)
        assert parse_detail(begin.detail) == {
            "name": "batch_mine", "t": "1.000000", "children": "3"
        }
        fields = parse_detail(end.detail)
        assert fields["name"] == "batch_mine"
        assert float(fields["dur"]) == pytest.approx(0.5)
        assert float(fields["t"]) == pytest.approx(1.5)

    def test_null_tracer_is_free(self):
        # Must not raise; NullTracer has enabled=False and no buffer.
        emit_span(NullTracer(), "root_spawn", 0.0, 1.0)

    def test_span_context_manager(self):
        tracer = Tracer()
        with span(tracer, "lease_reclaim", thread=3, detail="retried=2"):
            pass
        begin, end = tracer.events()
        assert begin.kind == "span_begin" and end.kind == "span_end"
        assert begin.thread == end.thread == 3
        assert float(parse_detail(end.detail)["dur"]) >= 0.0

    def test_span_suppressed_on_exception(self):
        """An exception inside the block must not orphan a begin event."""
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with span(tracer, "result_fold"):
                raise RuntimeError("boom")
        assert tracer.events() == []

    def test_parse_detail_tolerates_free_text(self):
        assert parse_detail("worker 3 gone a=1 b=x=y") == {"a": "1", "b": "x=y"}
        assert parse_detail("") == {}


def spans_by_stream(tracer):
    """Span events grouped per (machine, thread) emission stream."""
    streams = {}
    for event in tracer.events():
        if event.kind in ("span_begin", "span_end"):
            streams.setdefault((event.machine, event.thread), []).append(event)
    return streams


def assert_spans_pair(stream_events):
    """Retroactive emission: each begin is immediately followed by its
    end in the same stream, with matching name and a sane duration."""
    assert len(stream_events) % 2 == 0
    for begin, end in zip(stream_events[::2], stream_events[1::2]):
        assert begin.kind == "span_begin"
        assert end.kind == "span_end"
        b, e = parse_detail(begin.detail), parse_detail(end.detail)
        assert b["name"] == e["name"]
        assert b["name"] in SPAN_NAMES
        assert begin.task_id == end.task_id
        assert float(e["dur"]) >= 0.0
        assert float(e["t"]) >= float(b["t"])


class TestSpanStreamInvariants:
    """Spans recorded by a real run pair and nest per worker stream."""

    def run_config(self, **overrides):
        base = dict(
            num_machines=2, threads_per_machine=2, tau_split=3,
            tau_time=50, decompose="timed", queue_capacity=4, batch_size=2,
        )
        base.update(overrides)
        return EngineConfig(**base)

    def test_threaded_run_spans_pair_and_nest(self):
        """Four (machine, thread) streams, on the serial executor at 2 x 2."""
        graph = make_random_graph(14, 0.5, seed=5)
        tracer = Tracer()
        mine_parallel(graph, 0.75, 3, self.run_config(), tracer=tracer)
        streams = spans_by_stream(tracer)
        assert streams, "a traced engine run must emit spans"
        for stream_events in streams.values():
            assert_spans_pair(stream_events)
        names = {
            parse_detail(e.detail)["name"]
            for events in streams.values() for e in events
        }
        assert {"root_spawn", "batch_mine"} <= names

    def test_mxt_spans_read_the_host_clock(self):
        """One span clock at every topology: the host's. A traced 2 x 2
        run's spans all lie inside the job's host-clock interval (its
        virtual time is metrics.virtual_makespan, never a span), and
        each batch_mine span names the thread that ran it."""
        graph = make_random_graph(14, 0.5, seed=5)
        tracer = Tracer()
        start = time.monotonic()
        out = mine_parallel(graph, 0.75, 3, self.run_config(), tracer=tracer)
        end = time.monotonic()
        assert out.metrics.virtual_makespan > 0
        spans = [e for e in tracer.events() if e.kind in ("span_begin", "span_end")]
        assert spans
        for event in spans:
            # t= is printed to 6 decimals.
            assert start - 1e-6 <= float(parse_detail(event.detail)["t"]) <= end + 1e-6
        mines = [e for e in spans if parse_detail(e.detail)["name"] == "batch_mine"]
        assert mines
        for event in mines:
            assert event.machine in (0, 1)
            assert event.thread in (0, 1)

    def test_process_run_spans_pair(self):
        graph = make_random_graph(12, 0.5, seed=9)
        tracer = Tracer()
        mine_parallel(
            graph, 0.75, 3,
            EngineConfig(backend="process", num_procs=2, tau_split=4,
                         queue_capacity=4, batch_size=2),
            tracer=tracer,
        )
        streams = spans_by_stream(tracer)
        assert streams, "worker batch_mine spans must reach the parent tracer"
        for stream_events in streams.values():
            assert_spans_pair(stream_events)

    def test_untraced_run_emits_nothing(self):
        graph = make_random_graph(10, 0.5, seed=3)
        out = mine_parallel(graph, 0.75, 3, self.run_config())
        # No tracer: the span sites must stay entirely off the hot path.
        assert out.maximal is not None


class TestWorkerTiming:
    def test_merge_is_componentwise(self):
        a = WorkerTiming(wall_seconds=1.0, mine_seconds=0.6, idle_seconds=0.4)
        a.merge(WorkerTiming(wall_seconds=0.5, mine_seconds=0.1,
                             idle_seconds=0.4))
        assert a == WorkerTiming(wall_seconds=1.5, mine_seconds=0.7,
                                 idle_seconds=0.8)

    def test_metrics_merge_accumulates_timing(self):
        left, right = EngineMetrics(), EngineMetrics()
        left.timing[0] = WorkerTiming(wall_seconds=1.0, mine_seconds=1.0)
        right.timing[0] = WorkerTiming(wall_seconds=2.0, idle_seconds=2.0)
        right.timing[1] = WorkerTiming(wall_seconds=3.0)
        left.merge(right)
        assert left.timing[0] == WorkerTiming(
            wall_seconds=3.0, mine_seconds=1.0, idle_seconds=2.0
        )
        assert left.timing[1].wall_seconds == 3.0

    def test_serial_run_records_one_row(self):
        graph = make_random_graph(10, 0.5, seed=1)
        out = mine_parallel(graph, 0.75, 3, EngineConfig())
        assert set(out.metrics.timing) == {0}
        row = out.metrics.timing[0]
        assert row.wall_seconds > 0
        assert row.mine_seconds > 0
        assert row.wall_seconds >= row.mine_seconds

    def test_process_run_records_per_worker(self):
        graph = make_random_graph(12, 0.5, seed=4)
        config = EngineConfig(backend="process", num_procs=2, tau_split=4,
                              queue_capacity=4, batch_size=2)
        out = mine_parallel(graph, 0.75, 3, config)
        assert out.metrics.timing, "process workers must report timing"
        assert set(out.metrics.timing) <= {0, 1}
        for row in out.metrics.timing.values():
            assert row.wall_seconds == pytest.approx(
                row.mine_seconds + row.idle_seconds
            )

    def test_mxt_serial_run_records_one_host_row(self):
        """At M x T the serial executor still runs one host loop, so it
        reports one wall/mine/idle row, on the host clock."""
        graph = make_random_graph(10, 0.5, seed=6)
        out = mine_parallel(
            graph, 0.75, 3,
            EngineConfig(num_machines=2, threads_per_machine=2),
        )
        assert set(out.metrics.timing) == {0}
        row = out.metrics.timing[0]
        assert row.mine_seconds > 0
        assert row.wall_seconds == pytest.approx(row.mine_seconds + row.idle_seconds)


class TestProgressSnapshot:
    def snapshot(self, **overrides):
        base = dict(
            wall_seconds=1.25, tasks_pending=4, tasks_leased=2,
            tasks_done=9, candidates=3, workers_alive=2, workers_died=0,
        )
        base.update(overrides)
        return ProgressSnapshot(**base)

    def test_detail_round_trips(self):
        fields = parse_detail(progress_detail(self.snapshot()))
        assert fields == {
            "wall": "1.250", "pending": "4", "leased": "2", "done": "9",
            "candidates": "3", "workers": "2", "died": "0",
        }

    def test_format_mentions_deaths_only_when_nonzero(self):
        assert "died" not in format_progress(self.snapshot())
        assert "(+2 died)" in format_progress(self.snapshot(workers_died=2))


class TestProcessProgress:
    def test_snapshots_reach_callback_and_trace(self):
        graph = make_random_graph(14, 0.5, seed=8)
        config = EngineConfig(
            backend="process", num_procs=2, tau_split=3, tau_time=50,
            queue_capacity=4, batch_size=1, heartbeat_period=0.002,
        )
        tracer = Tracer()
        seen = []
        mine_parallel(graph, 0.75, 3, config, tracer=tracer,
                      on_progress=seen.append)
        events = tracer.events(kind="progress")
        assert events, "progress events must be traced every few heartbeats"
        assert len(seen) == len(events)
        for snapshot in seen:
            assert isinstance(snapshot, ProgressSnapshot)
            assert snapshot.wall_seconds >= 0
            assert snapshot.tasks_pending >= 0
        for event in events:
            fields = parse_detail(event.detail)
            assert set(fields) == {
                "wall", "pending", "leased", "done", "candidates",
                "workers", "died",
            }

    def test_progress_off_by_default_without_tracer(self):
        graph = make_random_graph(10, 0.5, seed=8)
        config = EngineConfig(backend="process", num_procs=2, tau_split=4)
        calls = []
        out = mine_parallel(graph, 0.75, 3, config)
        assert out.maximal is not None
        assert calls == []
