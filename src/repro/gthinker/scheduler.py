"""Backend-agnostic scheduler core (the paper's reforged policy, §5).

One implementation of the reforged G-thinker scheduling rules, shared
by every executor — the serial fast path and the threaded driver in
:mod:`repro.gthinker.engine`, and the virtual-time driver in
:mod:`repro.gthinker.simulation`:

1. *routing*  — a new task goes to the machine's global big-task queue
   (Q_global, spilling to L_big) iff it is big, else to the picking
   thread's local queue (Q_local, spilling to L_small);
2. *pick order* — B_global → B_local → Q_global (try-lock, refilled
   from L_big) → Q_local;
3. *refill order* — a low Q_local refills from L_small first, then
   drains B_local, then spawns new tasks from the vertex table;
4. *spawn batch* — at most one batch of C tasks per refill, stopping
   early the moment a spawned task is big (the guard against flooding
   Q_global);
5. *stealing* — a master plans big-task moves from per-machine pending
   counts and applies them between the machines' global queues.

The core is policy only: it owns no threads and no clock. Executors
drive it (`pick` → `run_quantum` → route children / re-buffer the
suspended task) and observe queue transitions through three optional
hooks (`task_queued`, `task_buffered`, `task_picked`) so each backend
can keep its own liveness accounting — an active-task counter for the
real engine, an outstanding-work counter for the simulator — without
duplicating any scheduling decision.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..graph.adjacency import Graph
from .app_protocol import ComputeContext, GThinkerApp, ensure_app
from .config import EngineConfig
from .metrics import EngineMetrics, TaskRecord
from .obs.spans import emit_span
from .spill import SpillableQueue, SpillFileList
from .stealing import plan_steals
from .task import Task
from .tracing import NullTracer, Tracer
from .vertex_store import LocalVertexTable, RemoteGraphAccess, in_process_stores


class ThreadSlot:
    """Per-mining-thread queue state: its local queue and ready buffer."""

    def __init__(self, config: EngineConfig, lsmall: SpillFileList, slot_id: int = 0):
        #: Index of this slot on its machine (span/timing attribution).
        self.slot_id = slot_id
        self.qlocal = SpillableQueue(config.queue_capacity, config.batch_size, lsmall)
        self.blocal: deque[Task] = deque()


class MachineState:
    """One machine: vertex store, queues, spawn cursor.

    The same state object backs the real engine (where its locks are
    contended), the simulated cluster (single-threaded; the locks are
    uncontended but harmless) and the cluster worker, so the simulator
    exercises the identical store and queue/spill structures as the
    threaded runtime and the wire.
    """

    def __init__(self, machine_id: int, data: RemoteGraphAccess, config: EngineConfig):
        self.machine_id = machine_id
        self.config = config
        #: The machine's vertex store: its table, remote cache and
        #: message count (see :class:`RemoteGraphAccess`).
        self.data = data
        self.table = data.table
        self.lsmall = SpillFileList(config.spill_dir, f"m{machine_id}-small")
        self.lbig = SpillFileList(config.spill_dir, f"m{machine_id}-big")
        self.qglobal = SpillableQueue(config.queue_capacity, config.batch_size, self.lbig)
        self.bglobal: deque[Task] = deque()
        self.bglobal_lock = threading.Lock()
        self.threads = [
            ThreadSlot(config, self.lsmall, slot_id=i)
            for i in range(config.threads_per_machine)
        ]
        self.spawn_order = self.table.vertices_sorted()
        self.spawn_pos = 0
        self.spawn_lock = threading.Lock()

    def spawn_exhausted(self) -> bool:
        with self.spawn_lock:
            return self.spawn_pos >= len(self.spawn_order)

    def next_spawn_vertices(self, count: int) -> list[int]:
        with self.spawn_lock:
            chunk = self.spawn_order[self.spawn_pos : self.spawn_pos + count]
            self.spawn_pos += len(chunk)
            return chunk

    def pop_bglobal(self) -> Task | None:
        with self.bglobal_lock:
            return self.bglobal.popleft() if self.bglobal else None

    def push_bglobal(self, task: Task) -> None:
        with self.bglobal_lock:
            self.bglobal.append(task)

    def pending_big(self) -> int:
        with self.bglobal_lock:
            ready = len(self.bglobal)
        return ready + self.qglobal.pending_estimate()

    def cleanup(self) -> None:
        self.lsmall.cleanup()
        self.lbig.cleanup()


def build_machines(graph: Graph, config: EngineConfig) -> list[MachineState]:
    """Partition `graph` per `config` and build each machine's state."""
    from .partition import make_partitioner

    partitioner = (
        None
        if config.partition == "hash"
        else make_partitioner(config.partition, graph, config.num_machines)
    )
    tables = LocalVertexTable.partition(
        graph, config.num_machines, partitioner=partitioner
    )
    stores = in_process_stores(tables, config.cache_capacity, partitioner)
    return [MachineState(m, store, config) for m, store in enumerate(stores)]


def collect_machine_metrics(metrics: EngineMetrics, machines: list[MachineState]) -> None:
    """Fold per-machine vertex-store and spill counters into `metrics`."""
    for machine in machines:
        cache = machine.data.cache
        metrics.remote_messages += machine.data.remote_messages
        metrics.remote_vertex_hits += cache.hits
        metrics.remote_vertex_misses += cache.misses
        metrics.remote_vertex_evictions += cache.evictions
        for spill in (machine.lsmall, machine.lbig):
            metrics.spill_batches += spill.batches_spilled
            metrics.spill_bytes += spill.bytes_written
            metrics.spill_bytes_peak = max(metrics.spill_bytes_peak, spill.bytes_peak)


@dataclass
class QuantumResult:
    """Effects of one scheduling quantum of a task.

    A quantum resolves the task's pending pulls, then chains compute
    iterations until the task either finishes or issues new pulls (the
    suspend-for-data point where it re-enters the ready buffers with
    its big/small status re-evaluated). The executor applies the
    effects: route `children`, re-buffer `resumed` — in that order, so
    a parent's children are visible before its completion is counted.
    """

    finished: bool
    cost: float = 0.0
    children: list[Task] = field(default_factory=list)
    #: The task itself iff it suspended awaiting data (None if finished).
    resumed: Task | None = None


class SchedulerCore:
    """The reforged scheduling policy over a set of machine states."""

    def __init__(
        self,
        app: GThinkerApp,
        config: EngineConfig,
        machines: list[MachineState],
        tracer: Tracer | NullTracer | None = None,
        *,
        metrics: EngineMetrics | None = None,
        metrics_lock: threading.Lock | None = None,
        task_queued: Callable[[Task], None] | None = None,
        task_buffered: Callable[[Task], None] | None = None,
        task_picked: Callable[[Task], None] | None = None,
    ):
        self.app = ensure_app(app)
        self.config = config
        self.machines = machines
        # `is not None`, not truthiness: an empty Tracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._metrics_lock = metrics_lock or threading.Lock()
        self._task_queued = task_queued
        self._task_buffered = task_buffered
        self._task_picked = task_picked
        self._task_ids = itertools.count()
        self._task_id_lock = threading.Lock()
        #: spawn_batch calls in progress (see all_spawned).
        self._spawning = 0
        self._spawning_lock = threading.Lock()

    # -- shared counters ---------------------------------------------------

    def next_task_id(self) -> int:
        with self._task_id_lock:
            return next(self._task_ids)

    def all_spawned(self) -> bool:
        """Every vertex is off its cursor and every spawned task routed.

        The cursors are read before the in-flight count: spawn_batch
        raises the count before it takes a vertex and lowers it only
        after the task is routed (and counted active), so a vertex in
        between can never make a concurrent termination check pass.
        """
        return all(m.spawn_exhausted() for m in self.machines) and self._spawning == 0

    # -- task routing ------------------------------------------------------

    def route(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        """Queue a task: big → machine's global queue, small → the thread's."""
        if self._task_queued is not None:
            self._task_queued(task)
        self._enqueue(task, machine, slot)

    def requeue(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        """Re-route a reclaimed task for another dispatch attempt.

        The retry twin of :meth:`route`: same big/small policy, but the
        task was already counted when first queued, so the `task_queued`
        liveness hook must not fire again — a retry is the same unit of
        work re-entering the queues, not new work. Retry accounting
        (``tasks_retried``, the ``task_retried`` trace event) happened
        at reclaim time in :func:`repro.gthinker.runtime.reclaim_lease`;
        this is pure re-enqueue.
        """
        self._enqueue(task, machine, slot)

    def _enqueue(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        if self.config.use_global_queue and task.is_big(self.config.tau_split):
            machine.qglobal.push(task)
            self.tracer.emit("route_global", task.task_id, machine.machine_id)
        else:
            slot.qlocal.push(task)
            self.tracer.emit("route_local", task.task_id, machine.machine_id)

    def buffer_ready(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        """Re-buffer a data-ready task, preserving big-task priority."""
        if self._task_buffered is not None:
            self._task_buffered(task)
        if self.config.use_global_queue and task.is_big(self.config.tau_split):
            machine.push_bglobal(task)
            self.tracer.emit("ready_global", task.task_id, machine.machine_id)
        else:
            slot.blocal.append(task)
            self.tracer.emit("ready_local", task.task_id, machine.machine_id)

    # -- spawning ----------------------------------------------------------

    def spawn_batch(self, machine: MachineState, slot: ThreadSlot) -> int:
        """Spawn up to one batch of tasks; stop early once one is big.

        Vertices are taken from the cursor one at a time so the early
        stop (the paper's guard against flooding the global queue with
        big tasks) never skips a vertex. Returns the number spawned.
        """
        with self._spawning_lock:
            self._spawning += 1
        try:
            return self._spawn_from_cursor(machine, slot)
        finally:
            with self._spawning_lock:
                self._spawning -= 1

    def _spawn_from_cursor(self, machine: MachineState, slot: ThreadSlot) -> int:
        trace = self.tracer.enabled
        t0 = time.monotonic() if trace else 0.0
        spawned = 0
        while spawned < self.config.batch_size:
            vertices = machine.next_spawn_vertices(1)
            if not vertices:
                break
            v = vertices[0]
            adjacency = machine.table.get(v)
            assert adjacency is not None
            task = self.app.spawn(v, adjacency, self.next_task_id())
            if task is None:
                continue
            with self._metrics_lock:
                self.metrics.tasks_spawned += 1
            self.tracer.emit("spawn", task.task_id, machine.machine_id, detail=f"root={v}")
            self.route(task, machine, slot)
            spawned += 1
            if self.config.use_global_queue and task.is_big(self.config.tau_split):
                break
        if trace and spawned:
            emit_span(
                self.tracer, "root_spawn", t0, time.monotonic(),
                machine=machine.machine_id, thread=slot.slot_id,
                detail=f"spawned={spawned}",
            )
        return spawned

    def refill_qlocal(self, machine: MachineState, slot: ThreadSlot) -> None:
        """Refill priority: L_small, then B_local, then spawn new tasks."""
        trace = self.tracer.enabled
        t0 = time.monotonic() if trace else 0.0
        loaded = slot.qlocal.refill_from_spill()
        if loaded:
            if trace:
                emit_span(
                    self.tracer, "spill_refill", t0, time.monotonic(),
                    machine=machine.machine_id, thread=slot.slot_id,
                    detail=f"queue=qlocal loaded={loaded}",
                )
            return
        if slot.blocal:
            while slot.blocal and len(slot.qlocal) < self.config.batch_size:
                slot.qlocal.push(slot.blocal.popleft())
            return
        self.spawn_batch(machine, slot)

    # -- picking -----------------------------------------------------------

    def pick(self, machine: MachineState, slot: ThreadSlot) -> Task | None:
        """One pick under the reforged priority; None iff no work is visible.

        Phase 1 (push): data-ready tasks, big ones first. Phase 2
        (pop): the machine's global queue (try-lock; refill a batch
        from L_big when low), then the thread's local queue (refilled
        per `refill_qlocal`). If the local refill spawned only big
        tasks the global queue is re-checked, so a lone thread can
        never strand its own spawn.
        """
        task = machine.pop_bglobal() if self.config.use_global_queue else None
        if task is None and slot.blocal:
            task = slot.blocal.popleft()
        if task is None:
            task = self._pop_global(machine, slot)
        if task is None:
            if slot.qlocal.needs_refill():
                self.refill_qlocal(machine, slot)
            task = slot.qlocal.pop()
            if task is not None:
                self.tracer.emit("pop_local", task.task_id, machine.machine_id)
            else:
                task = self._pop_global(machine, slot)
        if task is not None and self._task_picked is not None:
            self._task_picked(task)
        return task

    def _pop_global(
        self, machine: MachineState, slot: ThreadSlot | None = None
    ) -> Task | None:
        if not self.config.use_global_queue:
            return None
        if machine.qglobal.needs_refill():
            trace = self.tracer.enabled
            t0 = time.monotonic() if trace else 0.0
            loaded = machine.qglobal.refill_from_spill()
            if trace and loaded:
                emit_span(
                    self.tracer, "spill_refill", t0, time.monotonic(),
                    machine=machine.machine_id,
                    thread=slot.slot_id if slot is not None else -1,
                    detail=f"queue=qglobal loaded={loaded}",
                )
        acquired, task = machine.qglobal.try_pop()
        if acquired and task is not None:
            self.tracer.emit("pop_global", task.task_id, machine.machine_id)
            return task
        return None

    # -- execution ---------------------------------------------------------

    def run_quantum(
        self,
        task: Task,
        machine: MachineState,
        record: Callable[[TaskRecord], None] | None = None,
        slot: ThreadSlot | None = None,
    ) -> QuantumResult:
        """Run compute iterations until the task finishes or suspends.

        Pull resolution goes through the machine's vertex store
        (synchronous in-process); the quantum's abstract cost (compute ops plus
        `sim_message_cost` per remote message) feeds the simulator's
        virtual clock and is computed identically — for free — on the
        real engine.

        With tracing on, the quantum is wrapped in a ``batch_mine``
        span (attributed to `slot` when the executor passes one), so a
        trace reconstructs per-task mining time without the metrics
        side channel.
        """
        trace = self.tracer.enabled
        t0 = time.monotonic() if trace else 0.0
        result = self._run_quantum(task, machine, record)
        if trace:
            emit_span(
                self.tracer, "batch_mine", t0, time.monotonic(),
                task_id=task.task_id, machine=machine.machine_id,
                thread=slot.slot_id if slot is not None else -1,
                detail=f"finished={int(result.finished)} "
                f"children={len(result.children)}",
            )
        return result

    def _run_quantum(
        self,
        task: Task,
        machine: MachineState,
        record: Callable[[TaskRecord], None] | None = None,
    ) -> QuantumResult:
        ctx = ComputeContext(config=self.config, next_task_id=self.next_task_id, record=record)
        data = machine.data
        cost = 0.0
        children: list[Task] = []
        while True:
            if task.pulls:
                before = data.remote_messages
                frontier = data.resolve(task.pulls)
                cost += (data.remote_messages - before) * self.config.sim_message_cost
                task.pulls = []
            else:
                frontier = {}
            self.tracer.emit("execute", task.task_id, machine.machine_id)
            outcome = self.app.compute(task, frontier, ctx)
            cost += outcome.cost_ops
            if outcome.new_tasks:
                self.tracer.emit(
                    "decompose", task.task_id, machine.machine_id,
                    detail=f"children={len(outcome.new_tasks)}",
                )
                children.extend(outcome.new_tasks)
            if outcome.finished:
                self.tracer.emit("finish", task.task_id, machine.machine_id)
                return QuantumResult(finished=True, cost=cost, children=children)
            if task.pulls:
                return QuantumResult(
                    finished=False, cost=cost, children=children, resumed=task
                )
            # No pulls pending (e.g. iteration 2 → 3): continue inline,
            # mirroring G-thinker scheduling the next iteration right away.

    # -- stealing ----------------------------------------------------------

    def apply_steals(self) -> int:
        """Plan and apply one stealing period; returns tasks moved."""
        trace = self.tracer.enabled
        t_start = time.monotonic() if trace else 0.0
        counts = [m.pending_big() for m in self.machines]
        moves = plan_steals(counts, self.config.batch_size)
        moved = 0
        for move in moves:
            self.tracer.emit(
                "steal_planned", -1, move.src,
                detail=f"dst=m{move.dst} count={move.count}",
            )
            with self._metrics_lock:
                self.metrics.steals_planned += 1
            batch = self.machines[move.src].qglobal.pop_batch(move.count)
            if not batch:
                continue
            self.machines[move.dst].qglobal.push_batch(batch)
            for stolen in batch:
                self.tracer.emit(
                    "steal_sent", stolen.task_id, move.src,
                    detail=f"dst=m{move.dst}",
                )
                self.tracer.emit(
                    "steal_received", stolen.task_id, move.dst,
                    detail=f"from=m{move.src}",
                )
                self.tracer.emit(
                    "steal", stolen.task_id, move.dst,
                    detail=f"from=m{move.src}",
                )
            with self._metrics_lock:
                self.metrics.steals += 1
                self.metrics.stolen_tasks += len(batch)
                self.metrics.steals_sent += len(batch)
                self.metrics.steals_received += len(batch)
            moved += len(batch)
        if trace and moved:
            emit_span(
                self.tracer, "steal_transfer", t_start, time.monotonic(),
                detail=f"moves={len(moves)} moved={moved}",
            )
        return moved

