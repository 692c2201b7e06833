"""Tests for ``repro trace-report`` (repro.gthinker.obs.report).

Three layers:

1. a **golden-file test** over a small committed trace, pinning every
   derived number (timelines, phases, faults, slowest tasks);
2. **CLI behaviour** — text and ``--json`` output, error paths;
3. the **acceptance property** — a real 2-worker cluster chaos run's
   fault and steal counters, reproduced from its trace *alone*, must
   equal the run's own ``EngineMetrics`` exactly.
"""

import json
import os

import pytest
from conftest import launch_mining, make_random_graph

from repro.gthinker.chaos import FaultInjection
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.obs.report import (
    build_report,
    format_report,
    load_trace,
    report_cli,
    report_to_json,
    stream_label,
)
from repro.gthinker.tracing import Tracer

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trace.jsonl")


class TestLoadTrace:
    def test_reads_events_and_skips_blanks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 0, "kind": "spawn"}\n\n{"seq": 1, "kind": "finish"}\n')
        events = load_trace(path)
        assert [e["kind"] for e in events] == ["spawn", "finish"]

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 0, "kind": "spawn"}\nnot json\n')
        with pytest.raises(ValueError, match=r":2: not a JSON trace line"):
            load_trace(path)


class TestStreamLabel:
    def test_labels(self):
        assert stream_label(-1, -1) == "coordinator"
        assert stream_label(-1, 3) == "coordinator"
        assert stream_label(2, -1) == "m2"
        assert stream_label(0, 1) == "m0/t1"


class TestGoldenTrace:
    @pytest.fixture()
    def report(self):
        return build_report(load_trace(GOLDEN), path=GOLDEN)

    def test_event_and_kind_counts(self, report):
        assert report.events == 21
        assert report.kinds == {
            "execute": 2, "finish": 2, "progress": 1, "spawn": 2,
            "span_begin": 4, "span_end": 4, "steal_planned": 1,
            "steal_received": 1, "steal_sent": 1, "task_quarantined": 1,
            "task_retried": 1, "worker_died": 1,
        }
        assert report.unknown_kinds == {}

    def test_worker_timelines(self, report):
        rows = {w.worker: w for w in report.workers}
        assert set(rows) == {"coordinator", "m0/t0", "m1/t0"}
        m0 = rows["m0/t0"]
        assert (m0.events, m0.executes, m0.finishes, m0.spawns) == (8, 1, 1, 2)
        assert m0.mine_seconds == pytest.approx(0.025)
        assert m0.mine_spans == 1
        assert (m0.first_seq, m0.last_seq) == (0, 7)
        m1 = rows["m1/t0"]
        assert (m1.events, m1.executes, m1.finishes) == (6, 1, 1)
        assert m1.mine_seconds == pytest.approx(0.010)
        assert m1.spill_refills == 1
        assert (m1.first_seq, m1.last_seq) == (8, 20)
        coord = rows["coordinator"]
        assert coord.events == 7  # all machine=-1 control-plane events

    def test_phase_breakdown(self, report):
        assert report.phases == {
            "batch_mine": {"count": 2, "seconds": pytest.approx(0.035)},
            "root_spawn": {"count": 1, "seconds": pytest.approx(0.0004)},
            "spill_refill": {"count": 1, "seconds": pytest.approx(0.0009)},
        }

    def test_fault_counts_sum_sizes(self, report):
        f = report.faults
        assert f.workers_died == 1
        assert f.tasks_retried == 2  # one event, size=2
        assert f.tasks_quarantined == 1
        assert (f.steals_planned, f.steals_sent, f.steals_received) == (1, 1, 1)

    def test_slowest_tasks_ranked(self, report):
        assert [(s.task_id, s.worker) for s in report.slowest] == [
            (0, "m0/t0"), (1, "m1/t0"),
        ]
        assert report.slowest[0].seconds == pytest.approx(0.025)

    def test_progress_samples(self, report):
        assert report.progress_samples == 1
        assert report.last_progress["done"] == "2"
        assert report.last_progress["died"] == "1"

    def test_top_k_truncates(self):
        report = build_report(load_trace(GOLDEN), top_k=1)
        assert len(report.slowest) == 1
        assert report.slowest[0].task_id == 0

    def test_format_report_sections(self, report):
        text = format_report(report)
        assert "== per-worker timeline ==" in text
        assert "== phase time (spans) ==" in text
        assert "== faults & steals ==" in text
        assert "== slowest tasks (batch_mine) ==" in text
        assert "workers_died=1 tasks_retried=2 tasks_quarantined=1" in text
        assert "progress samples: 1" in text

    def test_json_schema_shape(self, report):
        payload = report_to_json(report)
        assert set(payload) == {
            "instance", "cpu_count", "rows", "phases", "faults",
            "slowest_tasks", "fetches",
        }
        # The golden trace predates the distributed vertex store: no
        # fetch events, so every counter is zero (and the text report
        # omits the section entirely).
        assert set(payload["fetches"]) == {
            "requests", "served", "vertices_requested", "vertices_served",
        }
        assert all(v == 0 for v in payload["fetches"].values())
        assert payload["instance"]["events"] == 21
        assert {row["worker"] for row in payload["rows"]} == {
            "coordinator", "m0/t0", "m1/t0"
        }
        assert payload["faults"]["tasks_retried"] == 2
        # The whole payload must be JSON-serializable as-is.
        json.dumps(payload)


class TestReportCli:
    def test_text_output(self, capsys):
        assert report_cli([GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "== per-worker timeline ==" in out
        assert "m0/t0" in out

    def test_json_to_stdout(self, capsys):
        assert report_cli([GOLDEN, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instance"]["events"] == 21

    def test_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert report_cli([GOLDEN, "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["faults"]["workers_died"] == 1
        assert capsys.readouterr().out == ""

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert report_cli([str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert report_cli([str(path)]) == 2
        assert ":1: not a JSON trace line" in capsys.readouterr().err

    def test_dispatched_from_main_cli(self, capsys):
        from repro.cli import main

        assert main(["trace-report", GOLDEN]) == 0
        assert "== faults & steals ==" in capsys.readouterr().out


class TestRoundTripFromRealRuns:
    def test_threaded_trace_report_matches_metrics(self, tmp_path):
        """A 2 x 2 run, on the serial executor's virtual clock."""
        graph = make_random_graph(14, 0.5, seed=5)
        config = EngineConfig(num_machines=2, threads_per_machine=2,
                              tau_split=3, tau_time=50, decompose="timed")
        tracer = Tracer()
        out = mine_parallel(graph, 0.75, 3, config, tracer=tracer)
        path = tmp_path / "run.jsonl"
        tracer.dump_jsonl(path)
        report = build_report(load_trace(path), path=str(path))
        assert report.unknown_kinds == {}
        assert sum(w.executes for w in report.workers) == report.kinds["execute"]
        assert report.kinds["spawn"] == out.metrics.tasks_spawned
        # Every quantum is spanned; a quantum may cover several compute
        # rounds, so batch_mine spans never exceed execute events.
        assert 1 <= report.phases["batch_mine"]["count"] <= report.kinds["execute"]
        assert report.kinds["finish"] <= report.kinds["execute"]

    def test_cluster_chaos_counters_reproduced_from_trace_alone(self, tmp_path):
        """The acceptance bar: a 2-worker cluster chaos run's
        workers_died / tasks_retried / steal counters, derived from the
        JSONL trace with no access to the run, equal EngineMetrics."""
        graph = make_random_graph(12, 0.5, seed=7)
        tracer = Tracer()
        out = launch_mining(
            graph, 0.75, 3,
            config=EngineConfig(
                backend="cluster", num_procs=2, decompose="timed",
                tau_time=10, tau_split=3, queue_capacity=4, batch_size=2,
                heartbeat_period=0.02, heartbeat_timeout=5.0,
                cluster_chunk_size=1, max_attempts=5,
            ),
            tracer=tracer,
            fault_injection=FaultInjection(worker_id=0, after_batches=1),
            timeout=120.0,
        )
        path = tmp_path / "chaos.jsonl"
        tracer.dump_jsonl(path)
        faults = build_report(load_trace(path), path=str(path)).faults
        m = out.metrics
        assert faults.workers_died == m.workers_died
        assert faults.tasks_retried == m.tasks_retried
        assert faults.tasks_quarantined == m.tasks_quarantined
        assert faults.steals_sent == m.steals_sent
        assert faults.steals_received == m.steals_received
        assert faults.steals_planned == m.steals_planned
