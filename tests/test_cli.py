"""Tests for the quasiclique-mine command-line interface."""

import time

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# demo\n0 1\n1 2\n0 2\n2 3\n")
    return str(path)


class TestParameterErrors:
    """Bad (γ, τ_size) or query input is a usage error: one `error:`
    line and exit code 2, never a traceback or a run that reports
    `results=0` as a success."""

    @pytest.mark.parametrize("extra", [
        ["--gamma", "1.5", "--min-size", "3"],
        ["--gamma", "0.4", "--min-size", "3", "--backend", "process",
         "--num-procs", "2"],
        ["--gamma", "0.4", "--min-size", "3", "--backend", "cluster"],
        ["--gamma", "0.9", "--min-size", "0"],
        ["--gamma", "0.9", "--min-size", "3", "--query", "99"],
    ], ids=["gamma-above-1", "gamma-below-half-process",
            "gamma-below-half-cluster", "min-size-0", "query-not-in-graph"])
    def test_bad_input_exits_2_without_traceback(self, graph_file, extra, capsys):
        assert main([graph_file, "--quiet", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert "results=" not in captured.out

    def test_cluster_master_bad_input_exits_2_without_traceback(self, graph_file,
                                                               tmp_path, capsys):
        """cluster-master shares the convention: γ is checked before it
        binds, so no port is published and no worker is awaited."""
        port_file = tmp_path / "master.port"
        assert main(["cluster-master", graph_file, "--gamma", "0.3",
                     "--min-size", "3", "--workers", "1", "--port", "0",
                     "--port-file", str(port_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not port_file.exists()


class TestClusterMaster:
    def test_cli_job_matches_serial_output(self, tmp_path, capsys):
        """The cluster-master subcommand with two in-process workers
        writes the byte-identical --output of the serial CLI, and its
        summary line is the local CLI's (input |V| and |E|)."""
        import threading

        from conftest import make_random_graph

        from repro.gthinker.cluster.cli import master_cli
        from repro.gthinker.cluster.worker import ClusterWorker

        graph = make_random_graph(40, 0.25, seed=29)
        graph_path = tmp_path / "g.txt"
        # A pendant edge the Theorem 2 core peels off: the summary must
        # still count it.
        graph_path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges())
                              + "40 41\n")
        serial_out, cluster_out = tmp_path / "serial.txt", tmp_path / "cluster.txt"
        assert main([str(graph_path), "--gamma", "0.75", "--min-size", "3",
                     "--backend", "serial", "--output", str(serial_out),
                     "--quiet"]) == 0
        serial_summary = capsys.readouterr().out

        port_file = tmp_path / "master.port"
        status: dict = {}
        master = threading.Thread(target=lambda: status.setdefault("exit", master_cli([
            str(graph_path), "--gamma", "0.75", "--min-size", "3",
            "--port", "0", "--port-file", str(port_file), "--workers", "2",
            "--timeout", "120", "--output", str(cluster_out), "--quiet",
        ])), daemon=True)
        master.start()
        deadline = time.monotonic() + 30
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        port = int(port_file.read_text())
        workers = [threading.Thread(target=ClusterWorker("127.0.0.1", port).run,
                                    daemon=True) for _ in range(2)]
        for t in workers:
            t.start()
        master.join(120)
        for t in workers:
            t.join(10)
        assert not master.is_alive() and not any(t.is_alive() for t in workers)
        assert status.get("exit") == 0
        assert cluster_out.read_bytes() == serial_out.read_bytes()
        summary = capsys.readouterr().out.splitlines()
        assert len(summary) == 1
        assert "backend=cluster workers=2" in summary[0]
        head = serial_summary.split(" results=")[0]
        assert summary[0].startswith(head)  # |V| |E| of the input, not its core


    def test_master_waits_for_a_late_worker(self, tmp_path):
        """cluster-master leases nothing until --workers have registered:
        a second worker that connects after the first could have drained
        the job alone still gets work, and both exit cleanly."""
        import threading

        from conftest import make_random_graph

        from repro.gthinker.cluster.cli import master_cli
        from repro.gthinker.cluster.worker import ClusterWorker

        graph = make_random_graph(40, 0.25, seed=29)
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
        port_file = tmp_path / "master.port"
        status: dict = {}
        master = threading.Thread(target=lambda: status.setdefault("exit", master_cli([
            str(graph_path), "--gamma", "0.75", "--min-size", "3",
            "--port", "0", "--port-file", str(port_file), "--workers", "2",
            "--timeout", "120", "--quiet",
        ])), daemon=True)
        master.start()
        deadline = time.monotonic() + 30
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        port = int(port_file.read_text())
        workers = [ClusterWorker("127.0.0.1", port) for _ in range(2)]
        errors: list = []

        def run(worker):
            try:
                worker.run()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(w,), daemon=True)
                   for w in workers]
        threads[0].start()
        time.sleep(1.0)  # far longer than the job takes on one worker
        threads[1].start()
        master.join(120)
        for t in threads:
            t.join(10)
        assert not master.is_alive() and not any(t.is_alive() for t in threads)
        assert errors == []
        assert status.get("exit") == 0
        assert all(w.reactor.completed_units > 0 for w in workers)

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
        """M x T > 1 runs on the default backend, on virtual time."""
        assert main(
            [graph_file, "--gamma", "1.0", "--min-size", "3",
             "--machines", "2", "--threads", "4", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "results=1" in out
        assert "virtual_makespan=" in out and "utilization=" in out

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
                     "--machines", "2", "--threads", "2",
                     "--trace", str(trace_path), "--quiet"]) == 0
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

    def test_virtual_time_fields_only_above_1x1(self, graph_file, capsys):
        """The summary carries virtual_makespan= and utilization= exactly
        when the serial backend runs more than one machine x one thread."""
        for flags, shown in ((["--backend", "serial"], False),
                             (["--backend", "serial", "--machines", "2"], True),
                             (["--threads", "2"], True)):
            assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                         *flags, "--quiet"]) == 0
            out = capsys.readouterr().out
            assert ("virtual_makespan=" in out) is shown
            assert ("utilization=" in out) is shown

    def test_backend_serial_and_threaded(self, graph_file, capsys):
        """The serial backend at 1 x 1 and at 2 x 2."""
        for flags in (["--backend", "serial"],
                      ["--backend", "serial", "--machines", "2", "--threads", "2"]):
            assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                         *flags, "--quiet"]) == 0
            assert "results=1" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--backend", "process", "--machines", "2"],
                                       ["--backend", "cluster", "--threads", "2"],
                                       ["--backend", "process", "--machines", "2",
                                        "--checkpoint-dir"],
                                       ["--wall-clock", "--machines", "2"],
                                       ["--wall-clock", "--threads", "2"]])
    def test_topology_without_simulate_exits_2(self, graph_file, flags, tmp_path, capsys):
        """A topology its backend cannot run exits 2 with
        check_topology's message and is never remapped: a process or
        cluster worker runs one local scheduler (scale --num-procs), and
        M x T > 1 runs on virtual time, so not with --wall-clock."""
        if flags[-1] == "--checkpoint-dir":
            flags = [*flags, str(tmp_path / "ckpt")]
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     *flags, "--quiet"]) == 2
        out, err = capsys.readouterr()
        if "--wall-clock" in flags:
            assert "time_unit='ops'" in err
        else:
            assert "runs one machine x one thread" in err
            assert "use backend 'serial'" in err
        assert "results=" not in out
        assert not (tmp_path / "ckpt").exists()

    def test_unknown_backend_rejected(self, graph_file):
        for name in ("mpi", "threaded", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([graph_file, "--backend", name])

    @pytest.mark.parametrize("flags", [["--progress"], ["--mp-start-method", "spawn"]])
    @pytest.mark.parametrize("backend", [[], ["--backend", "serial"]])
    def test_distributed_flags_reject_serial_backend(self, graph_file, flags,
                                                     backend, capsys):
        """--progress and --mp-start-method act on the process and
        cluster coordinators; on the serial backend they are an error,
        not silently ignored."""
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     *backend, *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {flags[0]} requires --backend process or cluster")
        assert "results=" not in out

    def test_backend_conflicts_with_serial_flag(self, graph_file, capsys):
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "process", "--serial"]) == 2
        assert "--backend" in capsys.readouterr().err

    def test_backend_serial_rejects_thread_counts(self, graph_file, capsys):
        """Serial takes any M x T, but on virtual time only."""
        assert main([graph_file, "--gamma", "1.0", "--min-size", "3",
                     "--backend", "serial", "--threads", "4", "--wall-clock"]) == 2
        assert "time_unit='ops'" in capsys.readouterr().err


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
        assert self._mine(random_graph_file, "--threads", "2", "--checkpoint-dir",
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
