"""The reforged G-thinker engine (paper Section 5, Figure 8).

An in-process reproduction of the distributed runtime: M machines each
with T mining threads, a hash-partitioned vertex table, a remote vertex
cache, per-thread local task queues, a shared per-machine global
big-task queue, disk spilling (L_small / L_big), and master-coordinated
big-task stealing across machines.

All scheduling *policy* — routing, pick priority, local-queue refill
order, spawn batching with big-task early stop, steal planning — lives
in :mod:`repro.gthinker.scheduler` and is shared verbatim with the
simulated cluster. This module is only the *executor*: the serial fast
path and the real-thread driver, plus job lifecycle (active-task
accounting, worker failure propagation, metrics collection).

Each machine reads through the same vertex store as a cluster worker
(:class:`~repro.gthinker.vertex_store.RemoteGraphAccess`); only its
cache misses are served synchronously from the owner's table, so the
data-serving latency collapses to zero while ownership, caching, and
message counts are the cluster's. The *scheduling* behaviour — what
the paper's reforge is about — is faithful.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..core.options import ResultSink, ThreadSafeResultSink
from ..core.postprocess import postprocess_results
from ..graph.adjacency import Graph
from .app_protocol import GThinkerApp
from .app_quasiclique import QuasiCliqueApp
from .config import EngineConfig
from .metrics import EngineMetrics, WorkerTiming
from .scheduler import (
    MachineState,
    SchedulerCore,
    ThreadSlot,
    build_machines,
    collect_machine_metrics,
)
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
    """Run one mining job over the reforged runtime with real threads."""

    def __init__(
        self,
        graph: Graph,
        app: GThinkerApp,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.graph = graph
        self.app = app
        self.config = config
        self.machines = build_machines(graph, config)
        self._active = 0
        self._active_lock = threading.Lock()
        self._peak_active = 0
        self._done = threading.Event()
        self.metrics = EngineMetrics()
        self._metrics_lock = threading.Lock()
        self._worker_error: BaseException | None = None
        self.core = SchedulerCore(
            app, config, self.machines, tracer,
            metrics=self.metrics,
            metrics_lock=self._metrics_lock,
            task_queued=self._task_born,
        )
        self.tracer = self.core.tracer

    # -- job-lifetime accounting -------------------------------------------

    def _task_born(self, task: Task) -> None:
        with self._active_lock:
            self._active += 1
            self._peak_active = max(self._peak_active, self._active)

    def _task_finished(self) -> None:
        with self._active_lock:
            self._active -= 1

    def _maybe_finish(self) -> None:
        if self.core.all_spawned():
            with self._active_lock:
                if self._active == 0:
                    self._done.set()

    # -- scheduler delegation (kept for white-box tests / callers) ---------

    def add_task(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        """Queue a task under the shared routing policy."""
        self.core.route(task, machine, slot)

    def _spawn_batch(self, machine: MachineState, slot: ThreadSlot) -> None:
        self.core.spawn_batch(machine, slot)

    def _apply_steals(self) -> None:
        self.core.apply_steals()

    # -- one scheduling step -----------------------------------------------

    def _step(self, machine: MachineState, slot: ThreadSlot, metrics: EngineMetrics) -> bool:
        """One scheduling step; True iff any work was performed."""
        task = self.core.pick(machine, slot)
        if task is None:
            return False
        result = self.core.run_quantum(task, machine, metrics.record_task, slot=slot)
        # Children first: the active counter must never dip to zero while
        # a finishing parent still has unrouted offspring.
        for child in result.children:
            self.core.route(child, machine, slot)
        if result.resumed is not None:
            self.core.buffer_ready(result.resumed, machine, slot)
        if result.finished:
            self._task_finished()
            self._maybe_finish()
        return True

    def _stealing_loop(self) -> None:
        while not self._done.wait(self.config.steal_period_seconds):
            self.core.apply_steals()

    # -- drivers -----------------------------------------------------------

    def run(self) -> MiningRunResult:
        """Execute the job; serial fast path when only one thread exists.

        `config.backend` can pin the driver: 'serial' and 'threaded'
        force one of the two in-process drivers; 'auto' keeps the
        historical rule (serial at 1×1). The 'process' and 'simulated'
        backends are different executors — use
        :func:`repro.gthinker.engine_mp.mine_multiprocess` /
        :func:`repro.gthinker.simulation.simulate_cluster` (or the
        dispatching front-end :func:`mine_parallel`).
        """
        backend = self.config.backend
        if backend in ("process", "simulated"):
            raise ValueError(
                f"GThinkerEngine only drives in-process threads; for "
                f"backend={backend!r} use "
                f"{'MultiprocessEngine' if backend == 'process' else 'SimulatedClusterEngine'}"
            )
        if backend == "serial" and self.config.total_threads != 1:
            raise ValueError(
                "backend='serial' drives a single machine×thread; lower "
                "num_machines/threads_per_machine to 1 or use 'threaded'"
            )
        start = time.perf_counter()
        if backend == "serial" or (backend == "auto" and self.config.total_threads == 1):
            self._run_serial()
        else:
            self._run_threaded()
        if self._worker_error is not None:
            for m in self.machines:
                m.cleanup()
            raise RuntimeError("a mining thread failed") from self._worker_error
        self.metrics.wall_seconds = time.perf_counter() - start
        self._collect_metrics()
        candidates = self.app.sink.results()
        maximal = postprocess_results(candidates)
        self.metrics.results = len(maximal)
        for m in self.machines:
            m.cleanup()
        return MiningRunResult(maximal=maximal, candidates=candidates, metrics=self.metrics)

    def _timing_key(self, machine: MachineState, slot: ThreadSlot) -> int:
        """Global thread index: the key of EngineMetrics.timing rows."""
        return machine.machine_id * self.config.threads_per_machine + slot.slot_id

    def _run_serial(self) -> None:
        machine = self.machines[0]
        slot = machine.threads[0]
        local = EngineMetrics()
        timing = WorkerTiming()
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            worked = self._step(machine, slot, local)
            dt = time.perf_counter() - t0
            if worked:
                timing.mine_seconds += dt
            else:
                timing.idle_seconds += dt
                self._maybe_finish()
                if self._done.is_set():
                    break
        timing.wall_seconds = time.perf_counter() - t_start
        local.timing[self._timing_key(machine, slot)] = timing
        with self._metrics_lock:
            self.metrics.merge(local)

    def _run_threaded(self) -> None:
        def worker(machine: MachineState, slot: ThreadSlot) -> None:
            local = EngineMetrics()
            timing = WorkerTiming()
            idle_spins = 0
            t_start = time.perf_counter()
            try:
                while not self._done.is_set():
                    t0 = time.perf_counter()
                    worked = self._step(machine, slot, local)
                    dt = time.perf_counter() - t0
                    if worked:
                        timing.mine_seconds += dt
                        idle_spins = 0
                        continue
                    timing.idle_seconds += dt
                    idle_spins += 1
                    self._maybe_finish()
                    t0 = time.perf_counter()
                    time.sleep(min(0.002, 0.0001 * idle_spins))
                    timing.idle_seconds += time.perf_counter() - t0
            except BaseException as exc:  # noqa: BLE001 - repropagated in run()
                # A dead worker with queued work would hang the job on
                # the active counter; record the failure and stop the
                # whole job so run() can re-raise it loudly.
                with self._metrics_lock:
                    if self._worker_error is None:
                        self._worker_error = exc
                self._done.set()
            finally:
                timing.wall_seconds = time.perf_counter() - t_start
                local.timing[self._timing_key(machine, slot)] = timing
                with self._metrics_lock:
                    self.metrics.merge(local)

        threads: list[threading.Thread] = []
        for machine in self.machines:
            for slot in machine.threads:
                t = threading.Thread(target=worker, args=(machine, slot), daemon=True)
                threads.append(t)
        stealer = None
        if self.config.num_machines > 1:
            stealer = threading.Thread(target=self._stealing_loop, daemon=True)
            stealer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if stealer is not None:
            stealer.join()

    def _collect_metrics(self) -> None:
        collect_machine_metrics(self.metrics, self.machines)
        self.metrics.peak_pending_tasks = self._peak_active
        self.metrics.mining_stats.merge(self.app.stats)


def mine_parallel(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    options=None,
    tracer: Tracer | NullTracer | None = None,
) -> MiningRunResult:
    """Convenience front-end: mine `graph` on the reforged engine.

    Dispatches on ``config.backend``: the in-process drivers run here;
    ``backend='process'`` delegates to
    :func:`repro.gthinker.engine_mp.mine_multiprocess`, ``'cluster'`` to
    :func:`repro.gthinker.cluster.mine_cluster` and ``'simulated'`` to
    :func:`repro.gthinker.simulation.simulate_cluster`, so one call site
    can select any executor from configuration alone.
    """
    from ..core.options import DEFAULT_OPTIONS

    config = config or EngineConfig()
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
    sink: ResultSink = ThreadSafeResultSink() if config.total_threads > 1 else ResultSink()
    app = QuasiCliqueApp(
        gamma=gamma,
        min_size=min_size,
        sink=sink,
        options=options or DEFAULT_OPTIONS,
    )
    return GThinkerEngine(graph, app, config, tracer=tracer).run()
