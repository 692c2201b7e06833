"""The reforged G-thinker engine's in-process executor (paper Section 5, Figure 8).

M machines × T mining threads run the reforged runtime's data
structures in the calling thread: per machine a vertex table behind
the vertex store, a global big-task queue and disk spilling (L_small /
L_big); per thread a local task queue. The paper's testbed has more
cores than a test box, so the threads share one core on a virtual
clock: when a thread picks a task at virtual time t the task really
runs, its cost c is its deterministic operation count
(``QuantumResult.cost``), and its children become visible to the
queues only at t+c, so no thread observes work that has not yet
"happened". The same job at 4 and at 32 threads mines the identical
task set, and the makespan ratio *is* the schedulability of the
workload — what Table 5 measures. At 1×1 the loop is plain serial
execution. The process and cluster backends run one such scheduler
per worker process (:mod:`repro.gthinker.cluster`).

All scheduling *policy* — routing, pick priority, local-queue refill
order, spawn batching with big-task early stop, steal planning — lives
in :mod:`repro.gthinker.scheduler` and is shared verbatim with the
worker reactor, and so is a task's lifecycle (spawn, route, settle a
quantum, donate to a steal) and the live-task count. This module is
only the event loop on virtual time, :func:`quasiclique_job` (the
core and app every front end mines) and :func:`mine_parallel`, the
front door of every backend, which dispatches on ``config.backend``.

Each machine reads through the same vertex store as a cluster worker
(:class:`~repro.gthinker.vertex_store.RemoteGraphAccess`); its cache
misses are served synchronously from the owner's table.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from ..core.miner import quasiclique_core
from ..core.options import DEFAULT_OPTIONS, ResultSink
from ..core.postprocess import postprocess_results
from ..graph.adjacency import Graph
from .app_protocol import GThinkerApp
from .app_quasiclique import QuasiCliqueApp
from .config import EngineConfig, check_topology
from .metrics import EngineMetrics, WorkerTiming
from .scheduler import SchedulerCore, build_machines
from .tracing import NullTracer, Tracer


@dataclass
class MiningRunResult:
    """Engine output: maximal results, raw candidates, run metrics."""

    maximal: set[frozenset[int]]
    candidates: set[frozenset[int]]
    metrics: EngineMetrics

    def __len__(self) -> int:
        return len(self.maximal)

    @classmethod
    def from_sink(cls, sink: ResultSink, metrics: EngineMetrics) -> MiningRunResult:
        """Post-process a job's folded candidates into its maximal family."""
        candidates = sink.results()
        maximal = postprocess_results(candidates)
        metrics.results = len(maximal)
        return cls(maximal=maximal, candidates=candidates, metrics=metrics)


class GThinkerEngine:
    """Run one mining job on M machines × T threads, in the calling thread."""

    def __init__(
        self,
        graph: Graph,
        app: GThinkerApp,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
        roots=None,
    ):
        self.app = app
        self.config = config
        self.machines = build_machines(graph, config)
        if roots is not None:
            offered = set(roots)
            for m in self.machines:
                m.spawn_order = [v for v in m.spawn_order if v in offered]
        self.core = SchedulerCore(app, config, self.machines, tracer)
        self.metrics = self.core.metrics
        self.tracer = self.core.tracer

    def run(self) -> MiningRunResult:
        """Execute the job: run quanta on virtual time until no task is left.

        The job is over once every root has been offered to spawn and
        every task has finished. The 'process' and 'cluster' backends
        are other executors, reached through :func:`mine_parallel`.
        """
        backend = self.config.backend
        if backend != "serial":
            raise ValueError(
                f"GThinkerEngine is the serial executor; for "
                f"backend={backend!r} use mine_parallel (or run_cluster_app "
                f"for an app of your own)"
            )
        check_topology(self.config)
        start = time.perf_counter()
        try:
            makespan, work = self._run_events()
        finally:
            for m in self.machines:
                m.cleanup()
        metrics = self.core.collect_metrics()
        metrics.wall_seconds = time.perf_counter() - start
        metrics.virtual_work = work
        if self.config.total_threads > 1 and makespan:
            metrics.virtual_makespan = makespan
            metrics.utilization = work / (makespan * self.config.total_threads)
        return MiningRunResult.from_sink(self.app.sink, metrics)

    def _run_events(self) -> tuple[float, float]:
        """The event loop; returns (virtual makespan, total virtual work).

        Events are ``(time, seq, slot, quantum)``: a thread slot
        ``(machine, thread)`` that is free to pick, carrying the
        quantum it just completed (None for a wake-up), or the steal
        tick when ``slot`` is None. A thread that finds nothing to pick
        idles until a completed quantum or a steal makes work visible.
        """
        config = self.config
        core = self.core
        timing = WorkerTiming()
        t_start = time.perf_counter()
        events: list = []
        seq = itertools.count()
        for m in range(config.num_machines):
            for t in range(config.threads_per_machine):
                heapq.heappush(events, (0.0, next(seq), (m, t), None))
        steal_period = max(1.0, config.steal_period_seconds)
        if config.num_machines > 1:
            heapq.heappush(events, (steal_period, next(seq), None, None))
        idle: set[tuple[int, int]] = set()
        makespan = work = 0.0

        def wake_idle(now: float) -> None:
            for slot in list(idle):
                idle.discard(slot)
                heapq.heappush(events, (now, next(seq), slot, None))

        while events:
            now, _, slot, quantum = heapq.heappop(events)
            if slot is None:
                moved = core.apply_steals()
                wake = moved or any(m.pending_big() for m in self.machines)
                # Re-arm while work is live and some thread can still
                # move: with every thread idle and nothing to steal, no
                # tick could wake one, so the loop runs dry instead.
                if (events or wake) and (core.live > 0 or not core.all_spawned()):
                    heapq.heappush(events, (now + steal_period, next(seq), None, None))
                if wake:
                    wake_idle(now)
                continue

            t0 = time.perf_counter()
            machine = self.machines[slot[0]]
            thread = machine.threads[slot[1]]
            if quantum is not None:
                # A completed quantum's effects become visible now (t+c).
                core.settle(quantum, machine, thread)
                if quantum.children or quantum.resumed is not None:
                    wake_idle(now)
            task = core.pick(machine, thread)
            if task is None:
                idle.add(slot)
                continue
            result = core.run_quantum(task, machine, thread, self.metrics.record_task)
            cost = max(result.cost, 1.0)
            work += cost
            makespan = max(makespan, now + cost)
            heapq.heappush(events, (now + cost, next(seq), slot, result))
            timing.mine_seconds += time.perf_counter() - t0

        if core.live or not core.all_spawned():
            raise RuntimeError(
                f"the event loop ran dry with {core.live} live task(s) "
                f"and spawn {'done' if core.all_spawned() else 'unfinished'}"
            )
        timing.wall_seconds = time.perf_counter() - t_start
        timing.idle_seconds = timing.wall_seconds - timing.mine_seconds
        self.metrics.timing[0] = timing
        return makespan, work


def quasiclique_job(
    graph: Graph, gamma: float, min_size: int, options=None
) -> tuple[Graph, QuasiCliqueApp]:
    """What every engine front end mines: the Theorem 2 core of `graph`
    (:func:`~repro.core.miner.quasiclique_core`, which checks γ and
    τ_size first) and one :class:`QuasiCliqueApp` over it."""
    options = options or DEFAULT_OPTIONS
    core = quasiclique_core(graph, gamma, min_size, options)
    app = QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink(), options=options)
    return core, app


def mine_parallel(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    options=None,
    tracer: Tracer | NullTracer | None = None,
    *,
    start_method: str | None = None,
    on_progress=None,
    roots=None,
) -> MiningRunResult:
    """Mine `graph` on the reforged engine: the one front door of every backend.

    Builds the job (:func:`quasiclique_job`: the Theorem 2 core and one
    :class:`QuasiCliqueApp`) and runs it on the executor
    ``config.backend`` names: 'serial' runs here, on
    ``num_machines × threads_per_machine`` threads of virtual time;
    'process' and 'cluster' go to the localhost launcher
    (:func:`~repro.gthinker.cluster.launcher.run_cluster_app`), with
    warm-start workers for 'process' and cold ones for 'cluster'.
    :func:`~repro.gthinker.config.check_topology` guards the topology.

    `roots` are the vertices offered to spawn (``None``: all of them);
    a root's task does not depend on what else is offered.

    `start_method` (multiprocessing start method of the workers) and
    `on_progress` (a callback given each live
    :class:`~repro.gthinker.obs.ProgressSnapshot`) apply to the process
    and cluster backends only.
    """
    config = config or EngineConfig()
    check_topology(config)
    graph, app = quasiclique_job(graph, gamma, min_size, options)
    if config.backend == "serial":
        return GThinkerEngine(graph, app, config, tracer=tracer, roots=roots).run()
    from .cluster.launcher import run_cluster_app

    return run_cluster_app(
        graph, app, config, tracer=tracer, start_method=start_method, roots=roots,
        on_progress=on_progress, warm_start=config.backend == "process",
    )
