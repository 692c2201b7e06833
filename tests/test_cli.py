"""Tests for the quasiclique-mine command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# demo\n0 1\n1 2\n0 2\n2 3\n")
    return str(path)


class TestParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices(self):
        args = build_parser().parse_args(["--dataset", "ca_grqc"])
        assert args.dataset == "ca_grqc"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "friendster"])

    def test_graph_and_dataset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["g.txt", "--dataset", "enron"])


class TestMain:
    def test_file_requires_gamma_and_min_size(self, graph_file, capsys):
        assert main([graph_file]) == 2
        assert "required" in capsys.readouterr().err

    def test_mines_triangle(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "results=1" in out
        assert "0 1 2" in out

    def test_serial_mode(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3", "--serial"]) == 0
        assert "results=1" in capsys.readouterr().out

    def test_simulate_mode(self, graph_file, capsys):
        assert main(
            [graph_file, "--gamma", "1.0", "--min-size", "3", "--simulate", "--quiet"]
        ) == 0
        assert "virtual_makespan" in capsys.readouterr().out

    def test_output_file(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "res.txt"
        assert main(
            [graph_file, "--gamma", "1.0", "--min-size", "3",
             "--output", str(out_path), "--quiet"]
        ) == 0
        assert out_path.read_text().strip() == "0 1 2"

    def test_dataset_mode_defaults(self, capsys):
        assert main(["--dataset", "ca_grqc", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "gamma=0.8" in out
        assert "results=" in out

    def test_dataset_mode_overrides(self, capsys):
        assert main(
            ["--dataset", "ca_grqc", "--gamma", "0.9", "--min-size", "9", "--quiet"]
        ) == 0
        assert "gamma=0.9" in capsys.readouterr().out

    def test_quiet_suppresses_listing(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 1 2" not in out

    def test_decompose_and_threads_flags(self, graph_file, capsys):
        assert main(
            [graph_file, "--gamma", "1.0", "--min-size", "3",
             "--threads", "2", "--decompose", "size", "--tau-split", "2", "--quiet"]
        ) == 0
        assert "results=1" in capsys.readouterr().out


class TestExtendedModes:
    def test_stats_mode(self, capsys):
        assert main(["--dataset", "ca_grqc", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "degeneracy=" in out and "clustering=" in out

    def test_query_mode(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--query", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "query=[0]" in out and "results=1" in out

    def test_postprocess_mode(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        dst = tmp_path / "max.txt"
        src.write_text("1 2\n1 2 3\n")
        assert main(["--postprocess", str(src), str(dst)]) == 0
        assert "read=2 kept=1" in capsys.readouterr().out
        data_lines = [
            line for line in dst.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert data_lines == ["1 2 3"]

    def test_trace_engine_mode(self, graph_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--trace", str(trace_path), "--quiet"]) == 0
        assert "trace_events=" in capsys.readouterr().out
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert events
        assert {"spawn", "execute", "finish"} <= {e["kind"] for e in events}

    def test_trace_simulate_mode(self, graph_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--simulate", "--trace", str(trace_path), "--quiet"]) == 0
        assert "trace_events=" in capsys.readouterr().out
        assert trace_path.exists()

    def test_trace_rejects_serial(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--serial", "--trace", "t.jsonl"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_trace_rejects_missing_directory(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "missing" / "trace.jsonl"
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--trace", str(bad)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_checkpoint_mode(self, graph_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--checkpoint-dir", ckpt, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint=" in out and "results=1" in out
        import os
        assert os.path.exists(os.path.join(ckpt, "roots.journal"))


class TestRunSummary:
    def _out(self, **fields):
        from types import SimpleNamespace

        from repro.gthinker.metrics import EngineMetrics

        return SimpleNamespace(metrics=EngineMetrics(**fields))

    def test_backend_prefixes(self):
        from repro.cli import format_run_summary

        out = self._out(tasks_executed=5, tasks_decomposed=1, spill_batches=2)
        line = format_run_summary(out, "process", 4)
        assert line.startswith(" backend=process procs=4")
        assert "spills=2" in line and "workers_died" not in line
        line = format_run_summary(out, "cluster", 2)
        assert line.startswith(" backend=cluster workers=2")
        assert "steals=0" in line and "spills" not in line
        assert format_run_summary(out).startswith(" tasks=5")

    def test_fault_fields_appear_only_after_deaths(self):
        from repro.cli import format_run_summary

        out = self._out(workers_died=1, tasks_retried=3, tasks_quarantined=1,
                        stale_results_dropped=2)
        line = format_run_summary(out, "process", 2)
        assert "workers_died=1" in line
        assert "retried=3" in line and "quarantined=1" in line
        assert "stale_dropped=2" in line

    def test_metrics_json(self, graph_file, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--metrics-json", str(path), "--quiet"]) == 0
        data = json.loads(path.read_text())
        assert data["tasks_executed"] >= 1
        assert data["results"] == 1
        assert "stale_results_dropped" in data
        assert isinstance(data["mining_stats"], dict)

    def test_metrics_json_rejects_serial(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--serial", "--metrics-json", "m.json"]) == 2
        assert "--metrics-json" in capsys.readouterr().err


class TestBackendSelection:
    def test_backend_process(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "process", "--num-procs", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "backend=process procs=2" in out and "results=1" in out

    def test_backend_process_traces(self, graph_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "process", "--num-procs", "2",
                     "--trace", str(trace_path), "--quiet"]) == 0
        assert "trace_events=" in capsys.readouterr().out
        assert trace_path.exists()

    def test_backend_simulated_same_as_simulate(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "simulated", "--quiet"]) == 0
        assert "virtual_makespan" in capsys.readouterr().out

    def test_backend_serial_and_threaded(self, graph_file, capsys):
        for backend in ("serial", "threaded"):
            assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                         "--backend", backend, "--quiet"]) == 0
            assert "results=1" in capsys.readouterr().out

    def test_unknown_backend_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([graph_file, "--backend", "mpi"])

    def test_simulate_conflicts_with_other_backend(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--simulate", "--backend", "process"]) == 2
        assert "--simulate" in capsys.readouterr().err

    def test_backend_conflicts_with_serial_flag(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "process", "--serial"]) == 2
        assert "--backend" in capsys.readouterr().err

    def test_backend_serial_rejects_thread_counts(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "serial", "--threads", "4"]) == 2
        assert "serial" in capsys.readouterr().err


class TestCheckpointMode:
    """--checkpoint-dir runs through the service's chunked runner."""

    @pytest.fixture
    def random_graph_file(self, tmp_path):
        from conftest import make_random_graph

        g = make_random_graph(16, 0.5, seed=3)
        path = tmp_path / "random.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in sorted(g.edges())))
        return str(path)

    def _mine(self, graph_file, *flags):
        return main([graph_file, "--gamma", "0.75", "--min-size", "3",
                     "--quiet", *flags])

    def test_any_backend_matches_serial(self, random_graph_file, tmp_path, capsys):
        serial, ckpt_out = tmp_path / "serial.txt", tmp_path / "ckpt.txt"
        assert self._mine(random_graph_file, "--serial", "--output", str(serial)) == 0
        assert self._mine(random_graph_file, "--backend", "threaded",
                          "--threads", "2", "--checkpoint-dir",
                          str(tmp_path / "ckpt"), "--output", str(ckpt_out)) == 0
        assert ckpt_out.read_text() == serial.read_text()
        assert serial.read_text()  # the comparison is not vacuous

    def test_rerun_recovers_every_root(self, random_graph_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert self._mine(random_graph_file, "--checkpoint-dir", ckpt) == 0
        first = capsys.readouterr().out
        assert "recovered=0/" in first
        assert self._mine(random_graph_file, "--checkpoint-dir", ckpt) == 0
        second = capsys.readouterr().out
        total = second.split("recovered=")[1].split()[0].split("/")[1]
        assert f"recovered={total}/{total}" in second
        assert int(total) > 0
        results = [f for f in first.split() if f.startswith("results=")]
        assert results and results[0] in second.split()

    def test_metrics_json(self, random_graph_file, tmp_path, capsys):
        import json

        from repro.core.miner import mine_maximal_quasicliques
        from repro.graph.io import read_edge_list

        path = tmp_path / "metrics.json"
        assert self._mine(random_graph_file, "--checkpoint-dir",
                          str(tmp_path / "ckpt"), "--metrics-json", str(path)) == 0
        data = json.loads(path.read_text())
        want = mine_maximal_quasicliques(read_edge_list(random_graph_file), 0.75, 3)
        assert data["results"] == len(want.maximal)
        assert data["tasks_executed"] >= 1

    @pytest.mark.parametrize("flags", [
        ["--serial"], ["--query", "0"], ["--mp-start-method", "spawn"],
    ])
    def test_rejects_non_engine_flags(self, graph_file, tmp_path, capsys, flags):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--checkpoint-dir", str(tmp_path / "ckpt"), *flags]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_trace_rejected(self, graph_file, tmp_path, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--checkpoint-dir", str(tmp_path / "ckpt"),
                     "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert "--trace" in capsys.readouterr().err
