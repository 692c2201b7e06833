"""Discrete-event simulated cluster (scalability experiments).

This box has one physical CPU core and a GIL, so the paper's
scalability tables (Table 5) cannot be reproduced with wall-clock
speedups. Instead, every task is executed *once*, serially, while a
virtual clock schedules it onto M machines × T virtual mining threads.

The scheduling policy is not re-implemented here: the simulator drives
the same :class:`repro.gthinker.scheduler.SchedulerCore` as the real
engine — identical big-task routing, B_global → B_local → Q_global →
Q_local pick order, L_small/L_big spilling, refill order, spawn-batch
early stop, and master stealing — over the same machine/thread queue
state, for any application implementing the
:class:`~repro.gthinker.app_protocol.GThinkerApp` protocol. A policy
change in the scheduler therefore applies to every executor at once,
and the simulator emits the same trace-event vocabulary as the
threaded engine.

The virtual cost of a task is its deterministic operation count
(``ComputeOutcome.cost_ops``), so makespans are exactly reproducible:
the same job simulated at 4 and at 32 threads runs the identical task
set, and the makespan ratio *is* the schedulability of the workload —
which is precisely what Table 5 measures.

Event semantics: when a virtual thread picks a task at time t, the task
really runs (we learn its cost c and its children); its children become
visible to the queues only at t+c, so no thread can observe work that
has not yet "happened" in virtual time.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field

from ..core.postprocess import postprocess_results
from ..graph.adjacency import Graph
from .app_protocol import GThinkerApp
from .app_quasiclique import QuasiCliqueApp
from .config import EngineConfig
from .metrics import EngineMetrics
from .scheduler import SchedulerCore, build_machines, collect_machine_metrics
from .task import Task
from .tracing import NullTracer, Tracer


@dataclass
class SimOutcome:
    """Result of a simulated run."""

    maximal: set[frozenset[int]]
    candidates: set[frozenset[int]]
    metrics: EngineMetrics
    makespan: float
    total_work: float
    busy_per_thread: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        if self.makespan <= 0:
            return 1.0
        slots = len(self.busy_per_thread)
        return self.total_work / (self.makespan * max(1, slots))

    def speedup_against(self, baseline_makespan: float) -> float:
        return baseline_makespan / self.makespan if self.makespan else float("inf")


class SimulatedClusterEngine:
    """Virtual-time execution of any G-thinker app on M×T workers."""

    def __init__(
        self,
        graph: Graph,
        app: GThinkerApp,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
    ):
        if config.time_unit != "ops":
            raise ValueError(
                "the simulated cluster requires time_unit='ops' so task costs "
                "and decomposition points are deterministic"
            )
        self.graph = graph
        self.app = app
        self.config = config
        self.machines = build_machines(graph, config)
        self.metrics = EngineMetrics()
        self._outstanding = 0  # tasks sitting in queues or ready buffers
        self._executing = 0  # tasks between pick and completion event
        self.core = SchedulerCore(
            app, config, self.machines, tracer,
            metrics=self.metrics,
            metrics_lock=threading.Lock(),
            task_queued=self._task_enqueued,
            task_buffered=self._task_enqueued,
            task_picked=self._task_dequeued,
        )
        self.tracer = self.core.tracer

    # -- outstanding-work accounting (virtual-time liveness) ---------------

    def _task_enqueued(self, task: Task) -> None:
        self._outstanding += 1
        self.metrics.peak_pending_tasks = max(
            self.metrics.peak_pending_tasks, self._outstanding
        )

    def _task_dequeued(self, task: Task) -> None:
        self._outstanding -= 1

    # -- main event loop ---------------------------------------------------

    def run(self) -> SimOutcome:
        config = self.config
        core = self.core
        slots = [
            (m, t)
            for m in range(config.num_machines)
            for t in range(config.threads_per_machine)
        ]
        busy: dict[tuple[int, int], float] = {slot: 0.0 for slot in slots}
        #: (time, seq, kind, payload); kinds: 'free' thread slot, 'steal' tick.
        #: payload for 'free': (slot, quantum_result | None, is_completion).
        events: list[tuple[float, int, str, object]] = []
        seq = itertools.count()
        for slot in slots:
            heapq.heappush(events, (0.0, next(seq), "free", (slot, None, False)))
        steal_enabled = config.num_machines > 1
        steal_period = max(1.0, config.steal_period_seconds)
        if steal_enabled:
            heapq.heappush(events, (steal_period, next(seq), "steal", None))
        idle: set[tuple[int, int]] = set()
        makespan = 0.0
        total_work = 0.0

        def wake_idle(now: float) -> None:
            for slot in list(idle):
                idle.discard(slot)
                heapq.heappush(events, (now, next(seq), "free", (slot, None, False)))

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == "steal":
                moved = core.apply_steals()
                if (
                    self._outstanding > 0
                    or self._executing > 0
                    or not core.all_spawned()
                ):
                    heapq.heappush(events, (now + steal_period, next(seq), "steal", None))
                if moved or any(m.pending_big() for m in self.machines):
                    wake_idle(now)
                continue

            slot, quantum, is_completion = payload  # type: ignore[misc]
            machine_id, thread_id = slot
            machine = self.machines[machine_id]
            thread = machine.threads[thread_id]
            if is_completion:
                self._executing -= 1
            if quantum is not None:
                # A finished quantum's effects become visible now (t+c).
                for child in quantum.children:
                    core.route(child, machine, thread)
                if quantum.resumed is not None:
                    core.buffer_ready(quantum.resumed, machine, thread)
                if quantum.children or quantum.resumed is not None:
                    wake_idle(now)
            task = core.pick(machine, thread)
            if task is None:
                idle.add(slot)
                continue
            self._executing += 1
            result = core.run_quantum(task, machine, self.metrics.record_task)
            cost = max(result.cost, 1.0)
            busy[slot] += cost
            total_work += cost
            makespan = max(makespan, now + cost)
            heapq.heappush(events, (now + cost, next(seq), "free", (slot, result, True)))

        self.metrics.virtual_makespan = makespan
        collect_machine_metrics(self.metrics, self.machines)
        self.metrics.mining_stats.merge(self.app.stats)
        candidates = self.app.sink.results()
        maximal = postprocess_results(candidates)
        self.metrics.results = len(maximal)
        for m in self.machines:
            m.cleanup()
        return SimOutcome(
            maximal=maximal,
            candidates=candidates,
            metrics=self.metrics,
            makespan=makespan,
            total_work=total_work,
            busy_per_thread=busy,
        )


def simulate_app(
    graph: Graph,
    app: GThinkerApp,
    config: EngineConfig,
    tracer: Tracer | NullTracer | None = None,
) -> SimOutcome:
    """Front-end: run any GThinkerApp on the simulated cluster."""
    return SimulatedClusterEngine(graph, app, config, tracer=tracer).run()


def simulate_cluster(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig,
    options=None,
    tracer: Tracer | NullTracer | None = None,
) -> SimOutcome:
    """Front-end: simulate one quasi-clique job; returns results + makespan."""
    from ..core.options import DEFAULT_OPTIONS, ResultSink

    app = QuasiCliqueApp(
        gamma=gamma,
        min_size=min_size,
        sink=ResultSink(),
        options=options or DEFAULT_OPTIONS,
    )
    return SimulatedClusterEngine(graph, app, config, tracer=tracer).run()
