"""One workload, run in a fresh process by ``run.py``.

The process reads the prepared ``graph.txt`` and ``oracle.txt``, sets
up (as many rounds as asked), then either times untraced jobs for
``--seconds`` (``--trace 0``) or runs a few untraced jobs followed by
traced ones with probes and a ``Tracer`` attached, and the replays
(``--trace 1``). It writes one JSON document to ``--result``.

RSS and ``lru_cache`` state are this process's own: ``run.py`` did the
generation and the oracle run, so ``RUSAGE_SELF`` is the coordinator of
the jobs and ``RUSAGE_CHILDREN`` its worker processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import pickle
import random
import resource
import signal
import statistics
import struct
import sys
import threading
import time
import warnings
from contextlib import contextmanager

import loadgen
import probes
import service_load
from spec import JOB_TIMEOUT_S, WORKLOADS, Workload

from repro.core.options import ResultSink
from repro.core.resultsio import read_results
from repro.graph.adjacency import Graph
from repro.graph.io import read_edge_list
from repro.gthinker import EngineConfig
from repro.gthinker.app_quasiclique import QuasiCliqueApp
from repro.gthinker.cluster import protocol
from repro.gthinker.engine import mine_parallel
from repro.gthinker.obs.report import build_report
from repro.gthinker.task import Task
from repro.gthinker.tracing import Tracer
from repro.gthinker.vertex_store import LocalVertexTable

#: Untraced and traced jobs of a ``--trace 1`` run.
UNTRACED_JOBS, TRACED_JOBS = 3, 2
#: Fewest timed jobs of a ``--trace 0`` run, whatever ``--seconds`` says.
MIN_TIMED_JOBS = 3
#: Frame header of the cluster protocol: magic, version, payload length.
FRAME_HEADER_BYTES = struct.calcsize("<4sHQ")
OPEN_LOOP_RATE = 300.0
#: Shares of ``--seconds`` on service-mixed: jobs, closed loop, open loop.
JOBS_SHARE, CLOSED_SHARE, OPEN_SHARE = 0.45, 0.20, 0.35
CLOSED_SEGMENTS = 5


class Checks:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


class JobTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reap_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process. Unlike ``ru_maxrss`` it starts at exec, so
    it does not carry over the size of the ``run.py`` that spawned us."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def median_rows(rows: list[dict]) -> dict:
    """Per-key median over jobs (counts repeat exactly on serial backends)."""
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median([row[k] for row in rows if k in row]) for k in keys}


# -- engine metrics (E) ------------------------------------------------------


def engine_rows(m: dict, results: int, wl: Workload) -> dict:
    """Per-layer rows read off one job's ``EngineMetrics`` (as a dict)."""
    stats = m["mining_stats"]
    rows = {
        "core.mine_s": m["total_mining_seconds"],
        "core.mining_ops": stats["mining_ops"],
        "core.ns_per_op": m["total_mining_seconds"] / max(1, stats["mining_ops"]) * 1e9,
        "core.candidates_emitted": stats["candidates_emitted"],
        "core.candidates_per_result": results / max(1, stats["candidates_emitted"]),
        "app.tasks_spawned": m["tasks_spawned"],
        "app.tasks_executed": m["tasks_executed"],
        # Root tasks that reached mining, over root tasks spawned.
        "app.spawn_survival":
            (m["tasks_executed"] - m["subtasks_created"]) / max(1, m["tasks_spawned"]),
        "decompose.subtasks_created": m["subtasks_created"],
        "decompose.tasks_decomposed": m["tasks_decomposed"],
        "scheduler.peak_pending_tasks": m["peak_pending_tasks"],
        "spill.bytes": m["spill_bytes"],
        "vertex_store.hits": m["remote_vertex_hits"],
        "vertex_store.misses": m["remote_vertex_misses"],
        "vertex_store.evictions": m["remote_vertex_evictions"],
        "vertex_store.hit_ratio": m["remote_vertex_hits"]
            / max(1, m["remote_vertex_hits"] + m["remote_vertex_misses"]),
        "vertex_store.remote_messages": m["remote_messages"],
    }
    for key in ("nodes_expanded", "bounding_rounds", "type1_pruned", "type2_pruned",
                "cover_skipped", "lookahead_hits", "critical_moves"):
        rows[f"core.{key}"] = stats[key]
    timing = list(m["timing"].values())
    if wl.workers and timing:
        wall = sum(t["wall_seconds"] for t in timing)
        mine = sum(t["mine_seconds"] for t in timing)
        idle = sum(t["idle_seconds"] for t in timing)
        if wl.root_layer == "engine_mp":
            rows["engine_mp.worker_mine_frac"] = mine / wall
            rows["engine_mp.worker_idle_s"] = idle / len(timing)
        else:
            rows["cluster.worker_idle_frac"] = idle / wall
            rows["cluster.worker_mine_s"] = mine / len(timing)
    return rows


def metrics_dict(metrics) -> dict:
    metrics.task_records = []  # per-task tuples, not needed and slow to copy
    return dataclasses.asdict(metrics)


# -- probe and tracer folding (P, T) -----------------------------------------


def probe_rows(spans: list[probes.Span], wall: float) -> dict:
    fold = probes.Fold(spans)
    by_layer = fold.self_by("layer")
    by_name = fold.self_by("name")
    kcore = fold.inclusive(*probes.KCORE)
    builds = fold.inclusive(*probes.DOMAIN_BUILDS)
    fsync = fold.inclusive("FileResultSink.flush")

    def seconds(*names: str, under: str | None = None) -> float:
        return fold.inclusive(*names, under=under)[1]

    rows = {
        "graph.kcore_s": kcore[1], "graph.kcore_calls": kcore[0],
        "graph.spawn_subgraph_s": seconds("spawn_subgraph", "candidate_extension"),
        "core.domain_build_s": builds[1], "core.domain_builds": builds[0],
        "core.bounding_s": seconds("iterative_bounding_masked"),
        "core.postprocess_s": seconds("postprocess_results"),
        "app.spawn_s": seconds("QuasiCliqueApp.spawn"),
        "app.materialize_s": by_name.get("QuasiCliqueApp.compute", 0.0),
        "decompose.timed_mine_s": seconds("time_delayed_mine_masked"),
        "scheduler.overhead_s": by_layer.get("scheduler", 0.0),
        "runner.spawn_union_s": seconds("spawn_subgraph", under="run_checkpointed"),
        "runner.mine_s": seconds("mine_parallel"),
        "runner.fsync_s": fsync[1], "runner.chunks": fsync[0],
        # Kept beside the layer rows so the test can check the sum.
        "_traced_wall_s": wall,
        "_self_sum_s": sum(by_layer.values()),
    }
    for layer in ("graph", "core", "app", "decompose", "engine_mp", "cluster",
                  "runner", "jobs"):
        rows[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return rows


def tracer_rows(tracer: Tracer, wl: Workload) -> dict:
    """What ``build_report`` folds out of the program's own trace."""
    report = build_report([dataclasses.asdict(e) for e in tracer.events()])
    if wl.root_layer == "engine_mp":
        return {"engine_mp.result_fold_s": report.phases["result_fold"]["seconds"]}
    if wl.root_layer == "cluster":
        fetches = report.fetches
        return {
            "vertex_store.fetch_requests": fetches.requests,
            "vertex_store.vertices_per_request": fetches.vertices_requested / fetches.requests,
        }
    return {}


# -- replays (R) -------------------------------------------------------------


def timed(fn, repeat: int = 1) -> float:
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def replay_rows(graph: Graph, wl: Workload, config: EngineConfig, tasks: list, smoke: bool) -> dict:
    """Replay single layers' public functions on what the workload produced."""
    rows: dict = {}
    repeat = 1 if smoke else 3
    if wl.workers:
        one = Graph()
        one.add_vertex(0)
        with warnings.catch_warnings():
            # The job can end before the second worker has said hello.
            warnings.simplefilter("ignore", RuntimeWarning)
            start = timed(lambda: mine_parallel(one, wl.gamma, wl.min_size, config), repeat)
        rows["engine_mp.pool_start_s" if wl.root_layer == "engine_mp" else "cluster.start_s"] = start

    blobs: list[bytes] = []
    t0 = time.perf_counter()
    for task in tasks:
        blobs.append(task.encode())
    for blob in blobs:
        Task.decode(blob)
    rows["engine_mp.task_pickle_s"] = time.perf_counter() - t0
    rows["engine_mp.task_pickle_bytes"] = sum(map(len, blobs))

    tables = LocalVertexTable.partition(graph, 2)
    rows["vertex_store.partition_s"] = timed(
        lambda: LocalVertexTable.partition(graph, 2), repeat * 2 - 1)
    app = QuasiCliqueApp(gamma=wl.gamma, min_size=wl.min_size, sink=ResultSink())
    welcome = protocol.Welcome(
        worker_id=0, config=config, app_blob=pickle.dumps(app),
        table_blob=pickle.dumps(tables[0].entries(), protocol=pickle.HIGHEST_PROTOCOL),
        partition_id=0, num_partitions=2,
    )
    some = sorted(graph.vertices())[:256]
    messages = [
        welcome,
        protocol.TaskBatch(work_id=1, tasks=tuple(blobs[:64])),
        protocol.VertexReply(
            request_id=1, entries=tuple((v, tuple(graph.neighbors(v))) for v in some)),
    ]
    frames = [protocol.encode_frame(m) for m in messages]
    rows["cluster.welcome_bytes"] = len(frames[0])
    loops = 3 if smoke else 20
    megabytes = loops * sum(map(len, frames)) / 1e6
    t0 = time.perf_counter()
    for _ in range(loops):
        for m in messages:
            protocol.encode_frame(m)
    rows["protocol.encode_mb_per_s"] = megabytes / (time.perf_counter() - t0)
    payloads = [f[FRAME_HEADER_BYTES:] for f in frames]
    t0 = time.perf_counter()
    for _ in range(loops):
        for p in payloads:
            protocol.decode_payload(p)
    rows["protocol.decode_mb_per_s"] = megabytes / (time.perf_counter() - t0)
    return rows


def speedup(serial_wall: float, wall: float, workers: int) -> float | None:
    """Serial over parallel wall clock; None on fewer cores than workers,
    where the ratio would measure time slicing and not scaling."""
    if (os.cpu_count() or 1) < workers:
        return None
    return serial_wall / wall


# -- engine workloads --------------------------------------------------------


def engine_job(graph, wl, config, oracle, checks: Checks, tracer=None):
    """One job, Graph in to maximal family out; (wall, result or None)."""
    checks.attempted += 1
    t0 = time.perf_counter()
    try:
        with time_limit(JOB_TIMEOUT_S):
            result = mine_parallel(graph, wl.gamma, wl.min_size, config, tracer=tracer)
    except Exception as exc:  # noqa: BLE001 - any job failure is a counted failure
        reap_children()
        checks.fail(f"job raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    if result.maximal != oracle:
        checks.fail(
            f"job returned {len(result.maximal)} results, oracle has {len(oracle)}"
            if len(result.maximal) != len(oracle) else "job's family differs from the oracle")
        return wall, None
    return wall, result


def jobs_wanted(args, rounds_left: int) -> tuple[float, int]:
    """(seconds, fewest jobs) of the block of timed jobs that follows a round.

    The rounds and the jobs of a run are interleaved, so that both
    medians sample the whole run and a burst of interference on the
    host that lasts a few seconds moves neither.
    """
    if args.smoke:
        return 0.0, 1 if rounds_left == 0 else 0
    if args.trace:
        return 0.0, UNTRACED_JOBS
    return args.seconds / args.setup_rounds, -(-MIN_TIMED_JOBS // args.setup_rounds)


class Block:
    """One block of timed jobs: at least ``fewest``, then as many as fit
    ``seconds`` (a job is started when half of it still fits, so blocks
    run as long as asked on average and not one job longer)."""

    def __init__(self, seconds: float, fewest: int):
        self.seconds, self.fewest = seconds, fewest
        self.begin = time.perf_counter()
        self.jobs, self.last_wall = 0, 0.0

    def add(self, wall: float) -> None:
        self.jobs += 1
        self.last_wall = wall

    def has_room(self) -> bool:
        if self.jobs < self.fewest:
            return True
        elapsed = time.perf_counter() - self.begin
        return elapsed + self.last_wall / 2 < self.seconds


def run_engine(args, wl: Workload, checks: Checks) -> dict:
    oracle = read_results(args.oracle)
    config = EngineConfig(**wl.engine)

    setup_rounds: list[float] = []
    walls: list[float] = []
    e_rows: list[dict] = []
    graph = None
    for r in range(args.setup_rounds):
        t0 = time.perf_counter()
        graph = read_edge_list(args.graph)
        if not args.smoke:
            engine_job(graph, wl, config, oracle, checks)  # warm-up
        setup_rounds.append(time.perf_counter() - t0)
        seconds, fewest = jobs_wanted(args, args.setup_rounds - 1 - r)
        block = Block(seconds, fewest)
        while not checks.failed and block.has_room():
            wall, result = engine_job(graph, wl, config, oracle, checks)
            if result is None:
                break
            walls.append(wall)
            block.add(wall)
            if args.trace:
                e_rows.append(engine_rows(metrics_dict(result.metrics), len(oracle), wl))

    out = {"setup_rounds_s": setup_rounds, "job_walls_s": walls, "results": len(oracle)}
    if args.trace and not checks.failed:
        out["per_layer"] = trace_engine(args, wl, config, graph, oracle, checks, walls, e_rows)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def trace_engine(args, wl, config, graph, oracle, checks, walls, e_rows) -> dict:
    recorder = probes.Recorder()
    traced_walls: list[float] = []
    p_rows: list[dict] = []
    serial_wall = None
    with recorder.installed():
        for i in range(1 if args.smoke else TRACED_JOBS):
            recorder.tasks.clear()  # keep one job's worth for the replays
            tracer = Tracer(capacity=2_000_000)
            with recorder.job(f"traced-{i}", wl.root_layer):
                wall, result = engine_job(graph, wl, config, oracle, checks, tracer=tracer)
            if result is None:
                return {}
            traced_walls.append(wall)
            p_rows.append({
                **probe_rows(recorder.job_spans(f"traced-{i}"), wall), **tracer_rows(tracer, wl)})
    if wl.workers:
        # The probes see only this process, so the tasks that cross the
        # process boundary are captured from one serial job of the same
        # instance, with no other probe in the way: its wall clock is
        # also the serial reference of the scaling diagnostic.
        serial = dataclasses.replace(config, backend="serial")
        with recorder.installed(only=("QuasiCliqueApp.compute",)):
            serial_wall, result = engine_job(graph, wl, serial, oracle, checks)
        if result is None:
            return {}
    rows = {**median_rows(e_rows), **median_rows(p_rows)}
    rows.update(replay_rows(graph, wl, config, recorder.tasks[:4096], args.smoke))
    rows["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
    if wl.workers:
        prefix = wl.root_layer
        rows[f"{prefix}.speedup_vs_serial"] = speedup(
            serial_wall, statistics.median(walls), wl.workers)
        # Forked workers start at the coordinator's size, as they should.
        rows[f"{prefix}.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    if args.spans:
        recorder.dump_jsonl(args.spans)
    return rows


# -- service-mixed -----------------------------------------------------------


def service_payload(args, wl: Workload) -> dict:
    return {"graph_path": os.path.abspath(args.graph), "gamma": wl.gamma,
            "min_size": wl.min_size, "engine": wl.engine}


def service_job(client, payload, family_of, oracle, checks: Checks):
    """One job through the HTTP API; the job document or None on failure."""
    checks.attempted += 1
    try:
        job = client.run_job(payload)
    except Exception as exc:  # noqa: BLE001 - any job failure is a counted failure
        checks.fail(f"service job raised {type(exc).__name__}: {exc}")
        return None
    if job["state"] != "completed":
        checks.fail(f"{job['id']} ended {job['state']}")
        return None
    if family_of(job["id"]) != oracle:
        checks.fail(f"{job['id']}: family differs from the oracle ({job['results']} results)")
        return None
    return job


class QueryLoad:
    """The read side of service-mixed against one server: closed-loop
    segments on one client, then the open-loop Poisson load."""

    def __init__(self, family, checks: Checks):
        self.family, self.checks = family, checks
        self.rates: list[float] = []
        self.closed = loadgen.LatencyHistogram()
        self.opened: loadgen.LoadResult | None = None

    def _sender(self, port: int) -> service_load.QuerySender:
        return service_load.QuerySender("127.0.0.1", port, self.family)

    def _account(self, sender: service_load.QuerySender) -> None:
        self.checks.attempted += sender.sent
        for reason in sender.wrong:
            self.checks.fail(reason)

    def closed_segments(self, port: int, queries, segment_s: float, segments: int) -> None:
        """A warm-up segment (the restarted server's index and cache are
        cold), then ``segments`` measured ones."""
        send = self._sender(port)
        _, cursor = loadgen.run_closed_loop(send, queries, 0, segment_s / 2)
        for _ in range(segments):
            result, cursor = loadgen.run_closed_loop(send, queries, cursor, segment_s)
            self.rates.append(result.sent / result.elapsed)
            self.closed.merge(result.latency)
        self._account(send)

    def open_loop(self, port: int, queries, seconds: float, seed: int) -> None:
        schedule = loadgen.poisson_schedule(OPEN_LOOP_RATE, seconds, random.Random(seed + 1))
        requests = [queries[-1 - i % len(queries)] for i in range(len(schedule))]
        senders: list[service_load.QuerySender] = []

        def make_sender():
            senders.append(self._sender(port))
            return senders[-1]

        self.opened = loadgen.run_open_loop(make_sender, requests, schedule, senders=2)
        for sender in senders:
            self._account(sender)

    def rows(self) -> dict:
        return {
            "query_per_s": statistics.median(self.rates),
            "query_p50_ms": self.opened.latency.percentile(50) * 1e3,
            "service.query_p99_ms": self.opened.latency.percentile(99) * 1e3,
            "service.closed_p99_ms": self.closed.percentile(99) * 1e3,
            "service.gen_lag_p99_ms": self.opened.lateness.percentile(99) * 1e3,
            "_closed_mean_us": self.closed.mean * 1e6,
        }


def run_service(args, wl: Workload, checks: Checks) -> dict:
    oracle = read_results(args.oracle)
    family = service_load.order_family(oracle)
    payload = service_payload(args, wl)
    graph = read_edge_list(args.graph)
    vertex_ids = sorted(graph.vertices())
    root = os.path.join(args.work_dir, "service")
    rounds = args.setup_rounds
    read_seconds = 1.0 if args.smoke else args.seconds

    def family_of(job_id: str):
        return read_results(os.path.join(root, "jobs", job_id, "result.txt"))

    def job_metrics(job_id: str) -> dict:
        with open(os.path.join(root, "jobs", job_id, "metrics.json")) as f:
            return json.load(f)

    daemon = service_load.Daemon(root)
    load = QueryLoad(family, checks)
    setup_rounds: list[float] = []
    walls, submit_ms, e_rows = [], [], []
    out: dict = {"results": len(oracle)}
    try:
        for r in range(rounds):
            daemon.stop()
            t0 = time.perf_counter()
            daemon.start()
            client = service_load.JobClient("127.0.0.1", daemon.port)
            last = None
            if not args.smoke:
                last = service_job(client, payload, family_of, oracle, checks)  # warm-up
            setup_rounds.append(time.perf_counter() - t0)
            seconds, fewest = jobs_wanted(args, rounds - 1 - r)
            block = Block(seconds * JOBS_SHARE, fewest)
            while not checks.failed and block.has_room():
                last = service_job(client, payload, family_of, oracle, checks)
                if last is None:
                    break
                walls.append(last["wall_s"])
                submit_ms.append(last["submit_ms"])
                block.add(last["wall_s"])
                if args.trace:
                    e_rows.append(engine_rows(job_metrics(last["id"]), len(oracle), wl))
            if checks.failed or last is None:
                break
            queries = service_load.build_queries(
                args.seed + r, last["id"], vertex_ids, family, 4000)
            per_round = -(-CLOSED_SEGMENTS // rounds)
            load.closed_segments(
                daemon.port, queries, read_seconds * CLOSED_SHARE / rounds / (per_round + 0.5), per_round)
            if r == rounds - 1:
                load.open_loop(daemon.port, queries, read_seconds * OPEN_SHARE, args.seed)
                out["queries"] = load.rows()
                out["peak_rss_mb"] = peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    out.update(setup_rounds_s=setup_rounds, job_walls_s=walls)

    if args.trace and not checks.failed:
        rows = trace_service(args, wl, checks, oracle, family, graph, payload, walls)
        if rows:
            rows = {**median_rows(e_rows), **rows,
                    "jobs.submit_ms": statistics.median(submit_ms)}
        out["per_layer"] = rows
    return out


def trace_service(args, wl, checks, oracle, family, graph, payload, walls) -> dict:
    """Two traced jobs and a short query load against the service in-process."""
    from repro.service.server import MiningService, build_server

    root = os.path.join(args.work_dir, "service-traced")
    recorder = probes.Recorder()
    traced_walls: list[float] = []
    p_rows: list[dict] = []
    with recorder.installed():
        service = MiningService(root)
        service.recover_and_start()
        httpd = build_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        port = httpd.server_address[1]
        client = service_load.JobClient("127.0.0.1", port)
        try:
            def family_of(job_id: str):
                return read_results(os.path.join(root, "jobs", job_id, "result.txt"))

            job = None
            for i in range(1 if args.smoke else TRACED_JOBS):
                with recorder.job(f"traced-{i}", wl.root_layer):
                    job = service_job(client, payload, family_of, oracle, checks)
                if job is None:
                    return {}
                traced_walls.append(job["wall_s"])
                p_rows.append(probe_rows(recorder.job_spans(f"traced-{i}"), job["wall_s"]))
            queries = service_load.build_queries(
                args.seed, job["id"], sorted(graph.vertices()), family, 4000)
            traced_load = QueryLoad(family, checks)
            traced_load.closed_segments(port, queries, 0.2 if args.smoke else 0.5, 1)
            traced_load.open_loop(port, queries, 0.4 if args.smoke else 1.5, args.seed)
            load = traced_load.rows()
            store = client.metricsz()["service"]["store"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.shutdown()
            thread.join(timeout=10)
    query_spans = [s for s in recorder.spans if s.job is None]
    lookups = [s.end - s.start for s in query_spans if s.name == "ResultStore.communities"]
    lookup_us = statistics.fmean(lookups) * 1e6
    rows = median_rows(p_rows)
    rows.update({k: v for k, v in load.items() if k.startswith("service.")})
    rows.update({
        "store.index_build_s": probes.Fold(query_spans).inclusive("ResultStore.index")[1],
        "store.lookup_us": lookup_us,
        "store.cache_hit_ratio":
            store["cache_hits"] / max(1, store["cache_hits"] + store["cache_misses"]),
        # The closed loop's mean client latency, minus the time in the store.
        "server.http_overhead_us": load["_closed_mean_us"] - lookup_us,
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(walls) - 1,
    })
    rows.update(replay_rows(
        graph, wl, EngineConfig(**wl.engine), recorder.tasks[:4096], args.smoke))
    if args.spans:
        recorder.dump_jsonl(args.spans)
    return rows


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-rounds", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--graph", required=True)
    parser.add_argument("--oracle", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    checks = Checks()
    try:
        run = run_service if wl.root_layer == "jobs" else run_engine
        out = run(args, wl, checks)
    finally:
        reap_children()
    out.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
    with open(args.result, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
