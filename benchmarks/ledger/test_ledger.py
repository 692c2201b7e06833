"""Checks on the ledger itself: ``PYTHONPATH=src python -m pytest benchmarks/ledger``.

Not part of tier-1 (``testpaths`` is ``tests``). One ``--smoke`` run of
the whole suite is shared by the tests that read its output.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import instances  # noqa: E402
import loadgen  # noqa: E402
import probes  # noqa: E402
import run as ledger_run  # noqa: E402
import spec  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@pytest.fixture(scope="module")
def manifest() -> dict:
    return ledger_run.manifest()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out / "ledger.json") as f:
        ledger = json.load(f)
    ledger["stdout"] = done.stdout
    ledger["out"] = out
    return ledger


def test_manifest_agrees_with_the_catalogue(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in manifest["workloads"]] == list(spec.WORKLOADS)
    for w in manifest["workloads"]:
        assert w["why"] == spec.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.DRIVER_END_TO_END]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert 0 < min(bounds.values()) and max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert len(manifest["per_layer"]) <= 128


def test_names_are_well_formed(manifest):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in (*manifest["end_to_end"], *manifest["per_layer"]):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_every_metric_and_workload_is_reported(manifest, smoke):
    (runs,) = smoke["sets"]
    assert list(runs) == [w["name"] for w in manifest["workloads"]]
    reported = set()
    for name, run in runs.items():
        assert run["failed"] == 0, run["failures"]
        for m in manifest["end_to_end"]:
            cell = run["end_to_end"][m["name"]]
            assert cell["unit"] == m["unit"] and cell["value"] > 0
            assert f"] {m['name']} = " in smoke["stdout"]
        reported |= {k for k, cell in run["per_layer"].items() if cell["unit"]}
        line = json.loads(ledger_run.driver_line(run, 1, manifest))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in manifest["per_layer"]]
        assert all(isinstance(c["value"], (int, float)) for c in line["metrics"].values())
    # A layer no workload exercises would be a dead row of the table.
    assert {m["name"] for m in manifest["per_layer"]} <= reported
    service = runs["service-mixed"]["end_to_end"]
    assert service["query_per_s"]["value"] > 0 and service["query_p50_ms"]["value"] > 0
    for name in runs:
        assert (smoke["out"] / f"spans-{name}.jsonl").stat().st_size > 0


def test_workloads_do_what_they_are_for(smoke):
    """The reasons BENCHMARK.json gives for the workloads, read off the trace."""
    (runs,) = smoke["sets"]

    def selfs(name: str) -> dict:
        layer = runs[name]["per_layer"]
        return {k: v["value"] for k, v in layer.items()
                if k.endswith(".self_s") or k == "scheduler.overhead_s"}

    dense = selfs("serial-dense")
    assert max(dense, key=dense.get) == "core.self_s"
    sparse = selfs("serial-sparse")
    assert sparse["app.self_s"] + sparse["graph.self_s"] > max(
        v for k, v in sparse.items() if k not in ("app.self_s", "graph.self_s"))
    assert runs["cluster-fetch"]["per_layer"]["cluster.worker_idle_frac"]["value"] > 0.5


def test_self_times_sum_to_the_traced_job_wall(smoke):
    (runs,) = smoke["sets"]
    for name, run in runs.items():
        wall = run["per_layer"]["_traced_wall_s"]["value"]
        total = run["per_layer"]["_self_sum_s"]["value"]
        assert abs(total - wall) <= 0.05 * wall, (name, total, wall)


def test_probes_restore_function_identity():
    import repro.core.miner as miner
    import repro.graph.kcore as kcore
    import repro.graph.subgraph as subgraph
    from repro.core.domain import TaskDomain
    from repro.gthinker.app_quasiclique import QuasiCliqueApp

    before = (kcore.k_core, subgraph.k_core, miner.k_core, miner.spawn_subgraph,
              TaskDomain.__dict__["from_graph"], TaskDomain.__dict__["restrict"],
              QuasiCliqueApp.__dict__["compute"])
    recorder = probes.Recorder()
    with recorder.installed():
        assert kcore.k_core is not before[0]
        assert subgraph.k_core is kcore.k_core is miner.k_core
        assert QuasiCliqueApp.__dict__["compute"] is not before[-1]
        with recorder.job("t", "scheduler"):
            miner.mine_maximal_quasicliques(instances.generate(spec.WORKLOADS["cluster-fetch"]),
                                            0.9, 11)
    after = (kcore.k_core, subgraph.k_core, miner.k_core, miner.spawn_subgraph,
             TaskDomain.__dict__["from_graph"], TaskDomain.__dict__["restrict"],
             QuasiCliqueApp.__dict__["compute"])
    assert all(a is b for a, b in zip(before, after))
    spans = recorder.job_spans("t")
    assert {"k_core", "spawn_subgraph", "TaskDomain.from_graph", "job"} <= {s.name for s in spans}
    (root,) = [s for s in spans if s.name == "job"]
    assert sum(probes.Fold(spans).self_by("layer").values()) == pytest.approx(
        root.end - root.start)


def test_histogram_percentiles_agree_with_statistics():
    rng = random.Random(7)
    values = [rng.lognormvariate(-7, 1) for _ in range(5000)]
    hist = loadgen.LatencyHistogram()
    for v in values:
        hist.record(v)
    assert hist.count == len(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in (50, 90, 99):
        assert hist.percentile(p) == pytest.approx(cuts[p - 1], rel=0.02)
    assert hist.samples_beyond(99) == 50
    assert hist.mean == pytest.approx(statistics.fmean(values))


def test_open_loop_times_from_the_due_time():
    schedule = loadgen.poisson_schedule(200.0, 0.5, random.Random(3))
    assert schedule == loadgen.poisson_schedule(200.0, 0.5, random.Random(3))
    assert 60 < len(schedule) < 140

    def make_sender():
        def send(request) -> bool:
            # One slow request delays the ones due behind it on its thread.
            if request == 10:
                import time
                time.sleep(0.1)
            return True
        return send

    result = loadgen.run_open_loop(make_sender, list(range(len(schedule))), schedule)
    assert result.sent == len(schedule) and result.failed == 0
    assert result.latency.percentile(100) >= 0.1
    assert result.lateness.percentile(100) > 0.01


def test_corrupted_result_set_shows_in_fail_frac(tmp_path, manifest):
    wl = spec.WORKLOADS["serial-sparse"]
    prepared = instances.prepare(wl, 0, 0, str(tmp_path))
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("".join(oracle.read_text().splitlines(keepends=True)[1:]))
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), "--workload", wl.name,
         "--seconds", "1", "--smoke", "--graph", str(tmp_path / "graph.txt"),
         "--oracle", str(oracle), "--work-dir", str(tmp_path), "--result", str(result)],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    run = ledger_run.fold(wl, json.loads(result.read_text()), [prepared], 0, 0, 0)
    assert run["failed"] >= 1 and run["end_to_end"]["fail_frac"]["value"] > 0
    assert "oracle" in run["failures"][0]


def test_scaling_diagnostics_are_null_on_too_few_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert workload.speedup(2.0, 1.0, workers=2) is None
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert workload.speedup(2.0, 1.0, workers=2) == 2.0
