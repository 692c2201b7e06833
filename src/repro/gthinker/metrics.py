"""Run metrics: per-task timing and engine-wide accounting.

The paper's evaluation reads directly off these counters:

* Figures 1–3 — per-task (root, |V(g)|, mining time) records;
* Table 2   — wall time, peak RAM estimate, peak spilled disk bytes,
  result count;
* Table 6   — cumulative mining time vs cumulative subgraph
  materialization time as τ_time varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.options import MiningStats


@dataclass
class TaskRecord:
    """One executed mining task (iteration-3 work only)."""

    task_id: int
    root: int
    generation: int
    subgraph_vertices: int
    subgraph_edges: int
    mining_seconds: float
    mining_ops: int
    materialize_seconds: float
    materialize_ops: int
    subtasks_created: int


@dataclass
class WorkerTiming:
    """Per-worker wall/mine/idle accounting (seconds, monotonic clock).

    ``wall_seconds`` is the worker's observed loop time, split into
    ``mine_seconds`` (inside a task quantum) and ``idle_seconds``
    (waiting for work: queue gets, empty picks, backoff sleeps).
    ``merge`` sums component-wise, so the same key accumulated across
    batches (process workers report per batch) stays consistent:
    wall == mine + idle holds whenever the producer maintained it.
    """

    wall_seconds: float = 0.0
    mine_seconds: float = 0.0
    idle_seconds: float = 0.0

    def merge(self, other: "WorkerTiming") -> None:
        self.wall_seconds += other.wall_seconds
        self.mine_seconds += other.mine_seconds
        self.idle_seconds += other.idle_seconds


@dataclass
class EngineMetrics:
    """Aggregated over one engine run (merge per-worker copies at the end)."""

    wall_seconds: float = 0.0
    #: Virtual time (ops) of the serial executor (repro.gthinker.engine):
    #: its makespan and busy-thread share, at M x T > 1 only; and the
    #: summed cost of its quanta, at any topology (at 1 x 1 it is the
    #: makespan). 0 on the process and cluster backends.
    virtual_makespan: float = 0.0
    utilization: float = 0.0
    virtual_work: float = 0.0
    tasks_spawned: int = 0
    tasks_executed: int = 0
    subtasks_created: int = 0
    tasks_decomposed: int = 0
    total_mining_seconds: float = 0.0
    total_mining_ops: int = 0
    total_materialize_seconds: float = 0.0
    total_materialize_ops: int = 0
    remote_messages: int = 0
    #: Remote-vertex-cache effectiveness (paper Fig. 8 store): lookups
    #: served from the bounded cache, lookups that had to fetch, and
    #: entries dropped by the LRU bound.
    remote_vertex_hits: int = 0
    remote_vertex_misses: int = 0
    remote_vertex_evictions: int = 0
    spill_batches: int = 0
    spill_bytes: int = 0
    spill_bytes_peak: int = 0
    steals: int = 0
    stolen_tasks: int = 0
    #: Stealing observability (one per planned StealMove / task shipped
    #: from a donor / task delivered to a recipient). On the in-process
    #: executors sent == received; on the cluster runtime they can
    #: diverge transiently while a grant is in flight.
    steals_planned: int = 0
    steals_sent: int = 0
    steals_received: int = 0
    #: Fault tolerance (process + cluster backends, emitted from the
    #: shared control plane in repro.gthinker.runtime): dead/wedged
    #: worker incidents, at-least-once re-dispatches, tasks poisoned
    #: after max_attempts, and stale duplicate results dropped.
    workers_died: int = 0
    tasks_retried: int = 0
    tasks_quarantined: int = 0
    stale_results_dropped: int = 0
    results: int = 0
    peak_pending_tasks: int = 0
    #: Per-worker wall/mine/idle split (repro.gthinker.obs). Keyed by a
    #: backend-native worker index: 0 on the serial engine (one row for
    #: its host loop at any M x T), worker id on the process and
    #: cluster backends.
    timing: dict[int, WorkerTiming] = field(default_factory=dict)
    task_records: list[TaskRecord] = field(default_factory=list)
    mining_stats: MiningStats = field(default_factory=MiningStats)

    def record_task(self, record: TaskRecord) -> None:
        self.task_records.append(record)
        self.tasks_executed += 1
        self.total_mining_seconds += record.mining_seconds
        self.total_mining_ops += record.mining_ops
        self.total_materialize_seconds += record.materialize_seconds
        self.total_materialize_ops += record.materialize_ops
        self.subtasks_created += record.subtasks_created
        if record.subtasks_created:
            self.tasks_decomposed += 1

    def merge(self, other: "EngineMetrics") -> None:
        self.tasks_spawned += other.tasks_spawned
        self.tasks_executed += other.tasks_executed
        self.subtasks_created += other.subtasks_created
        self.tasks_decomposed += other.tasks_decomposed
        self.total_mining_seconds += other.total_mining_seconds
        self.total_mining_ops += other.total_mining_ops
        self.total_materialize_seconds += other.total_materialize_seconds
        self.total_materialize_ops += other.total_materialize_ops
        self.remote_messages += other.remote_messages
        self.remote_vertex_hits += other.remote_vertex_hits
        self.remote_vertex_misses += other.remote_vertex_misses
        self.remote_vertex_evictions += other.remote_vertex_evictions
        self.spill_batches += other.spill_batches
        self.spill_bytes += other.spill_bytes
        self.spill_bytes_peak = max(self.spill_bytes_peak, other.spill_bytes_peak)
        self.steals += other.steals
        self.stolen_tasks += other.stolen_tasks
        self.steals_planned += other.steals_planned
        self.steals_sent += other.steals_sent
        self.steals_received += other.steals_received
        self.workers_died += other.workers_died
        self.tasks_retried += other.tasks_retried
        self.tasks_quarantined += other.tasks_quarantined
        self.stale_results_dropped += other.stale_results_dropped
        self.peak_pending_tasks = max(self.peak_pending_tasks, other.peak_pending_tasks)
        for worker, timing in other.timing.items():
            self.timing.setdefault(worker, WorkerTiming()).merge(timing)
        self.task_records.extend(other.task_records)
        self.mining_stats.merge(other.mining_stats)

    # -- evaluation-facing views ------------------------------------------

    def mining_vs_materialization_ratio(self) -> float:
        """Table 6 ratio; ops-based so it is meaningful on virtual time too."""
        if self.total_materialize_ops == 0:
            return float("inf")
        return self.total_mining_ops / self.total_materialize_ops

    def per_root_times(self) -> dict[int, float]:
        """Figure 1/2 series: total mining seconds per spawned root."""
        out: dict[int, float] = {}
        for r in self.task_records:
            out[r.root] = out.get(r.root, 0.0) + r.mining_seconds
        return out

    def top_task_times(self, k: int = 100) -> list[float]:
        """Figure 2 series: the k largest per-task mining times, sorted."""
        times = sorted((r.mining_seconds for r in self.task_records), reverse=True)
        return times[:k]

    def size_time_pairs(self) -> list[tuple[int, float]]:
        """Figure 3 series: (subgraph |V|, mining seconds) per task."""
        return [(r.subgraph_vertices, r.mining_seconds) for r in self.task_records]

