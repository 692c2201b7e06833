"""What the ledger measures: workloads, metrics, bounds and pinned answers.

A per-layer metric's prefix is the repo module that does the work.

This is the catalogue behind the root ``BENCHMARK.json`` (which may
only carry names, units, directions and one bound per metric) and the
tables in README.md. ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A job that runs longer than this has failed.
JOB_TIMEOUT_S = 60.0

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Registered analog name, or None for the ad-hoc sparse instance.
    dataset: str | None
    gamma: float
    min_size: int
    #: EngineConfig keyword arguments of every job of the workload.
    engine: dict = field(default_factory=dict)
    #: Layer of the span that covers one whole job.
    root_layer: str = "scheduler"
    #: Worker processes the backend starts (0 = none).
    workers: int = 0
    #: Result count and SHA-256 of the sorted family at seed 0.
    pinned_results: int = 0
    pinned_sha256: str = ""


_YOUTUBE_SHA = "57b6d1cd373d58d17f96ba08155a2ad058e82b88aa2d00689a4cc1717036154b"
_SPARSE_SHA = "48cd6f276680fa4ae7683b50786f86c3d53b9b57e9ac2da1b724b733aa51524b"
_ENRON_SHA = "cc41e88bc3f6703aa1730837309596fe6413d603dfb6625ee8fa0a2d61a9a895"
_YOUTUBE = dict(tau_split=50, tau_time=5000, time_unit="ops", decompose="timed")
_ENRON = dict(tau_split=20, tau_time=2000, time_unit="ops", decompose="timed")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="serial-dense",
        why="youtube analog on the serial backend: 86% of wall is core mining, "
            "so a kernel or branching change shows here; wire and vertex store are absent",
        dataset="youtube", gamma=0.9, min_size=13,
        engine=dict(backend="serial", **_YOUTUBE),
        pinned_results=15, pinned_sha256=_YOUTUBE_SHA,
    ),
    Workload(
        name="serial-sparse",
        why="20000-vertex sparse graph: 14328 root tasks spawn, 21 survive, mining is about 0; "
            "wall is spawn, k-core peeling, vertex resolve and queue traffic",
        dataset=None, gamma=0.8, min_size=8,
        engine=dict(backend="serial", tau_split=100, tau_time=50000,
                    time_unit="ops", decompose="timed"),
        pinned_results=6, pinned_sha256=_SPARSE_SHA,
    ),
    Workload(
        name="process-dense",
        why="serial-dense's instance on the 2-process pool: pool start, task pickling, IPC, "
            "leases and result folding in engine_mp set the gap to an ideal 0.5x of serial",
        dataset="youtube", gamma=0.9, min_size=13,
        engine=dict(backend="process", num_procs=2, **_YOUTUBE),
        root_layer="engine_mp", workers=2,
        pinned_results=15, pinned_sha256=_YOUTUBE_SHA,
    ),
    Workload(
        name="cluster-fetch",
        why="enron analog on a 2-worker localhost TCP cluster with a 256-entry vertex cache: "
            "wire, master-relayed fetches, partition shipping and launch dominate, mining is 30%",
        dataset="enron", gamma=0.9, min_size=11,
        engine=dict(backend="cluster", num_procs=2, partition="hash",
                    cache_capacity=256, heartbeat_period=0.05,
                    heartbeat_timeout=30.0, **_ENRON),
        root_layer="cluster", workers=2,
        pinned_results=30, pinned_sha256=_ENRON_SHA,
    ),
    Workload(
        name="service-mixed",
        why="the daemon's write path (chunked runner, fsync-ordered journal) beside its read path "
            "(posting-list index, LRU cache, stdlib HTTP): a gain for one that costs the other shows",
        dataset="enron", gamma=0.9, min_size=11,
        engine=dict(backend="serial"),
        root_layer="jobs",
        pinned_results=30, pinned_sha256=_ENRON_SHA,
    ),
)}

#: The ad-hoc serial-sparse instance (``planted_quasicliques`` arguments).
SPARSE_INSTANCE = dict(
    n=20000, avg_degree=10, num_plants=6, plant_size=10, gamma=0.85,
    background="plc", seed=5,
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median a later PR may worsen the metric by
    #: before it counts as a regression (0 = any worsening does).
    bound: float
    meaning: str
    #: Workloads the metric is defined on (None = all).
    workloads: tuple[str, ...] | None = None


#: The issue's seven end-to-end metrics. The bounds are calibrated on
#: the host the ledger was built on (README.md, "Bounds"): ten runs of
#: unchanged code spread ``job_wall_s`` by 3-11% and ``setup_s`` by
#: 3-15% there, and the driver wants a bound of three times the spread,
#: up to 0.25 and largest for ``setup_s``.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "graph generation, oracle run, reading the graph, daemon start and warm-up job"),
    EndToEnd("job_wall_s", "s", "lower", 0.25,
             "median wall clock of one mining job, Graph in to maximal family out "
             "(POST /jobs to state=completed on service-mixed)"),
    EndToEnd("results_per_s", "1/s", "higher", 0.25,
             "maximal results of the job over job_wall_s"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "peak RSS of the process that holds the graph and coordinates the job "
             "(the daemon's on service-mixed)"),
    EndToEnd("fail_frac", "ratio", "lower", 0.0,
             "failed over attempted operations: jobs that raised, timed out or "
             "disagreed with the oracle, queries that were non-200 or wrong"),
    EndToEnd("query_per_s", "1/s", "higher", 0.25,
             "closed-loop query throughput of one client, median over the segments",
             workloads=("service-mixed",)),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25,
             "median latency under an open-loop Poisson load of 300 req/s on 2 "
             "sender threads, timed from when each request was due",
             workloads=("service-mixed",)),
)

#: What the driver gates through ``BENCHMARK.json``: the metrics that
#: are defined, and never 0, on every workload. It reads ``fail_frac``
#: from ``attempted``/``failed`` and finds the service-only metrics in
#: the per-layer list; ``compare.py`` gates all seven.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.workloads is None and m.bound)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: E engine metrics, P probes, T tracer, R replay, S set-up timer,
    #: L load generator.
    source: str
    #: End-to-end metric and workloads the metric should move.
    moves: str


def _rows(source: str, moves: str, *cells: tuple[str, str, str]) -> list[PerLayer]:
    return [PerLayer(name, unit, better, source, moves) for name, unit, better in cells]


PER_LAYER: tuple[PerLayer, ...] = tuple(
    _rows("S", "setup_s, all workloads",
          ("graph.generate_s", "s", "lower"), ("graph.oracle_s", "s", "lower"))
    + _rows("P", "job_wall_s on serial-sparse",
            ("graph.kcore_s", "s", "lower"), ("graph.kcore_calls", "count", "lower"))
    + _rows("P", "job_wall_s on service-mixed",
            ("graph.spawn_subgraph_s", "s", "lower"))
    + _rows("P", "job_wall_s on serial-sparse, a little on serial-dense",
            ("core.domain_build_s", "s", "lower"), ("core.domain_builds", "count", "lower"))
    + _rows("E", "job_wall_s on serial-dense and process-dense",
            ("core.mine_s", "s", "lower"), ("core.mining_ops", "count", "lower"),
            ("core.ns_per_op", "ns", "lower"))
    + _rows("P", "job_wall_s on serial-dense", ("core.bounding_s", "s", "lower"))
    + _rows("E", "job_wall_s on serial-dense (search-tree size, ROADMAP item 2)",
            ("core.nodes_expanded", "count", "lower"),
            ("core.bounding_rounds", "count", "lower"),
            ("core.type1_pruned", "count", "higher"),
            ("core.type2_pruned", "count", "higher"),
            ("core.cover_skipped", "count", "higher"),
            ("core.lookahead_hits", "count", "higher"),
            ("core.critical_moves", "count", "higher"))
    + _rows("E", "job_wall_s on serial-dense",
            ("core.candidates_emitted", "count", "lower"),
            ("core.candidates_per_result", "ratio", "higher"))
    + _rows("P", "job_wall_s on serial-dense and service-mixed",
            ("core.postprocess_s", "s", "lower"))
    + _rows("P", "job_wall_s on serial-sparse",
            ("app.spawn_s", "s", "lower"), ("app.materialize_s", "s", "lower"))
    + _rows("E", "job_wall_s on serial-sparse",
            ("app.tasks_spawned", "count", "lower"),
            ("app.tasks_executed", "count", "lower"),
            ("app.spawn_survival", "ratio", "higher"))
    + _rows("P", "job_wall_s on process-dense (slack) and serial-dense (overhead)",
            ("decompose.timed_mine_s", "s", "lower"))
    + _rows("E", "job_wall_s on process-dense (slack) and serial-dense (overhead)",
            ("decompose.subtasks_created", "count", "lower"),
            ("decompose.tasks_decomposed", "count", "lower"))
    + _rows("P", "job_wall_s on serial-sparse", ("scheduler.overhead_s", "s", "lower"))
    + _rows("E", "job_wall_s on serial-sparse",
            ("scheduler.peak_pending_tasks", "count", "lower"),
            ("spill.bytes", "bytes", "lower"))
    + _rows("P", "which layer to look at first, per workload (self time of its spans)",
            ("graph.self_s", "s", "lower"), ("core.self_s", "s", "lower"),
            ("app.self_s", "s", "lower"), ("decompose.self_s", "s", "lower"),
            ("engine_mp.self_s", "s", "lower"), ("cluster.self_s", "s", "lower"),
            ("runner.self_s", "s", "lower"), ("jobs.self_s", "s", "lower"))
    + _rows("R", "job_wall_s on process-dense", ("engine_mp.pool_start_s", "s", "lower"))
    + _rows("R", "job_wall_s on process-dense and cluster-fetch",
            ("engine_mp.task_pickle_s", "s", "lower"),
            ("engine_mp.task_pickle_bytes", "bytes", "lower"))
    + _rows("E", "job_wall_s on process-dense",
            ("engine_mp.worker_mine_frac", "ratio", "higher"),
            ("engine_mp.worker_idle_s", "s", "lower"))
    + _rows("T", "job_wall_s on process-dense", ("engine_mp.result_fold_s", "s", "lower"))
    + _rows("E", "diagnostic only: a faster serial kernel lowers it",
            ("engine_mp.speedup_vs_serial", "ratio", "higher"),
            ("engine_mp.worker_peak_rss_mb", "MiB", "lower"))
    + _rows("R", "job_wall_s on cluster-fetch", ("cluster.start_s", "s", "lower"))
    + _rows("E", "job_wall_s on cluster-fetch",
            ("cluster.worker_idle_frac", "ratio", "lower"),
            ("cluster.worker_mine_s", "s", "lower"))
    + _rows("R", "job_wall_s and peak_rss_mb on cluster-fetch",
            ("cluster.welcome_bytes", "bytes", "lower"),
            ("protocol.encode_mb_per_s", "MB/s", "higher"),
            ("protocol.decode_mb_per_s", "MB/s", "higher"))
    + _rows("R", "job_wall_s on cluster-fetch", ("vertex_store.partition_s", "s", "lower"))
    + _rows("E", "job_wall_s on cluster-fetch",
            ("vertex_store.hits", "count", "higher"),
            ("vertex_store.misses", "count", "lower"),
            ("vertex_store.evictions", "count", "lower"),
            ("vertex_store.hit_ratio", "ratio", "higher"),
            ("vertex_store.remote_messages", "count", "lower"))
    + _rows("T", "job_wall_s on cluster-fetch (batching efficiency)",
            ("vertex_store.fetch_requests", "count", "lower"),
            ("vertex_store.vertices_per_request", "ratio", "higher"))
    + _rows("E", "diagnostic only: a faster serial kernel lowers it",
            ("cluster.speedup_vs_serial", "ratio", "higher"),
            ("cluster.worker_peak_rss_mb", "MiB", "lower"))
    + _rows("P", "job_wall_s on service-mixed",
            ("runner.spawn_union_s", "s", "lower"), ("runner.mine_s", "s", "lower"),
            ("runner.fsync_s", "s", "lower"), ("runner.chunks", "count", "lower"))
    + _rows("L", "job_wall_s on service-mixed", ("jobs.submit_ms", "ms", "lower"))
    + _rows("P", "query_per_s and query_p50_ms on service-mixed",
            ("store.index_build_s", "s", "lower"), ("store.lookup_us", "us", "lower"),
            ("store.cache_hit_ratio", "ratio", "higher"))
    + _rows("P", "query_per_s on service-mixed",
            ("server.http_overhead_us", "us", "lower"))
    + _rows("P", "diagnostic: traced over untraced job_wall_s, minus 1",
            ("trace.overhead_frac", "ratio", "lower"))
    + _rows("L", "diagnostic: tails and how late the open-loop generator ran",
            ("service.query_p99_ms", "ms", "lower"),
            ("service.closed_p99_ms", "ms", "lower"),
            ("service.gen_lag_p99_ms", "ms", "lower"))
    + _rows("L", "end to end on service-mixed; undefined elsewhere, so not driver-gated",
            ("query_per_s", "1/s", "higher"), ("query_p50_ms", "ms", "lower"))
    + _rows("L", "end to end; 0 by design, so the driver reads attempted/failed instead",
            ("fail_frac", "ratio", "lower"))
)
