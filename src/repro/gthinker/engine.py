"""The reforged G-thinker engine's in-process executor (paper Section 5, Figure 8).

One machine with one mining thread runs the reforged runtime's data
structures in the calling thread: a vertex table behind the vertex
store, the thread's local task queue, the machine's global big-task
queue, and disk spilling (L_small / L_big). The paper's M machines × T
threads topology runs on the simulated cluster
(:mod:`repro.gthinker.simulation`), which mines for real on virtual
time; the process and cluster backends run one such scheduler per
worker process (:mod:`repro.gthinker.cluster`).

All scheduling *policy* — routing, pick priority, local-queue refill
order, spawn batching with big-task early stop, steal planning — lives
in :mod:`repro.gthinker.scheduler` and is shared verbatim with the
other executors. This module is only the serial loop plus job
lifecycle (active-task accounting, metrics collection), and
:func:`mine_parallel`, the front-end that dispatches on
``config.backend``.

The machine reads through the same vertex store as a cluster worker
(:class:`~repro.gthinker.vertex_store.RemoteGraphAccess`); its cache
misses are served synchronously from the owner's table.
"""

from __future__ import annotations

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
from .scheduler import SchedulerCore, build_machines, collect_machine_metrics
from .task import Task
from .tracing import NullTracer, Tracer


@dataclass
class MiningRunResult:
    """Engine output: maximal results, raw candidates, run metrics."""

    maximal: set[frozenset[int]]
    candidates: set[frozenset[int]]
    metrics: EngineMetrics

    def __len__(self) -> int:
        return len(self.maximal)


class GThinkerEngine:
    """Run one mining job on one machine × one thread, in the calling thread."""

    def __init__(
        self,
        graph: Graph,
        app: GThinkerApp,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.app = app
        self.config = config
        self.machines = build_machines(graph, config)
        self._active = 0
        self._peak_active = 0
        self.metrics = EngineMetrics()
        self.core = SchedulerCore(
            app, config, self.machines, tracer,
            metrics=self.metrics,
            task_queued=self._task_born,
        )
        self.tracer = self.core.tracer

    def _task_born(self, task: Task) -> None:
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)

    def run(self) -> MiningRunResult:
        """Execute the job: pick and run quanta until no task is left.

        The job is over once every vertex has been offered to spawn and
        every task has finished. The 'process', 'cluster' and
        'simulated' backends are other executors, reached through
        :func:`mine_parallel`.
        """
        backend = self.config.backend
        if backend != "serial":
            executor = {
                "process": "mine_multiprocess",
                "cluster": "ClusterMaster",
                "simulated": "SimulatedClusterEngine",
            }[backend]
            raise ValueError(
                f"GThinkerEngine is the serial executor; for "
                f"backend={backend!r} use {executor} (or mine_parallel)"
            )
        check_topology(self.config)
        start = time.perf_counter()
        try:
            self._run_serial()
        finally:
            self.core.detach()
            for m in self.machines:
                m.cleanup()
        self.metrics.wall_seconds = time.perf_counter() - start
        collect_machine_metrics(self.metrics, self.machines)
        self.metrics.peak_pending_tasks = self._peak_active
        self.metrics.mining_stats.merge(self.app.stats)
        candidates = self.app.sink.results()
        maximal = postprocess_results(candidates)
        self.metrics.results = len(maximal)
        return MiningRunResult(maximal=maximal, candidates=candidates, metrics=self.metrics)

    def _run_serial(self) -> None:
        core = self.core
        machine = self.machines[0]
        slot = machine.threads[0]
        timing = WorkerTiming()
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            task = core.pick(machine, slot)
            if task is None:
                timing.idle_seconds += time.perf_counter() - t0
                if self._active == 0 and core.all_spawned():
                    break
                continue
            result = core.run_quantum(task, machine, self.metrics.record_task, slot=slot)
            for child in result.children:
                core.route(child, machine, slot)
            if result.resumed is not None:
                core.buffer_ready(result.resumed, machine, slot)
            if result.finished:
                self._active -= 1
            timing.mine_seconds += time.perf_counter() - t0
        timing.wall_seconds = time.perf_counter() - t_start
        self.metrics.timing[0] = timing


def mine_parallel(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    options=None,
    tracer: Tracer | NullTracer | None = None,
) -> MiningRunResult:
    """Convenience front-end: mine `graph` on the reforged engine.

    Dispatches on ``config.backend``: 'serial' runs here, on one
    machine × one thread (:func:`~repro.gthinker.config.check_topology`);
    ``backend='process'`` delegates to
    :func:`repro.gthinker.engine_mp.mine_multiprocess`, ``'cluster'`` to
    :func:`repro.gthinker.cluster.mine_cluster` and ``'simulated'`` to
    :func:`repro.gthinker.simulation.simulate_cluster`, so one call site
    can select any executor from configuration alone. Every backend
    mines :func:`~repro.core.miner.quasiclique_core` of `graph`.
    """
    config = config or EngineConfig()
    check_topology(config)
    if config.backend == "simulated":
        from .simulation import simulate_cluster

        return simulate_cluster(
            graph, gamma, min_size, config, options=options, tracer=tracer
        )
    if config.backend == "process":
        from .engine_mp import mine_multiprocess

        return mine_multiprocess(
            graph, gamma, min_size, config, options=options, tracer=tracer
        )
    if config.backend == "cluster":
        from .cluster import mine_cluster

        return mine_cluster(
            graph, gamma, min_size, config, options=options, tracer=tracer
        )
    options = options or DEFAULT_OPTIONS
    graph = quasiclique_core(graph, gamma, min_size, options)
    app = QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink(), options=options)
    return GThinkerEngine(graph, app, config, tracer=tracer).run()
