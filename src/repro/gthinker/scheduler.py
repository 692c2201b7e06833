"""Backend-agnostic scheduler core (the paper's reforged policy, §5).

One implementation of the reforged G-thinker scheduling rules, shared
by every executor — the virtual-time loop of the serial backend
(:mod:`repro.gthinker.engine`) and the worker reactor of the process
and cluster backends:

1. *routing*  — a new task goes to the machine's global big-task queue
   (Q_global, spilling to L_big) iff it is big, else to the picking
   thread's local queue (Q_local, spilling to L_small);
2. *pick order* — B_global → B_local → Q_global (refilled from L_big)
   → Q_local;
3. *refill order* — a low Q_local refills from L_small first, then
   drains B_local, then spawns new tasks from the vertex table;
4. *spawn batch* — at most one batch of C tasks per refill, stopping
   early the moment a spawned task is big (the guard against flooding
   Q_global);
5. *stealing* — a master plans big-task moves from per-machine pending
   counts and applies them between the machines' global queues.

The core is policy only: it owns no threads, its injected clock times
trace spans and nothing else, and every executor drives it from a
single thread (`pick` → `run_quantum` → route children / re-buffer
the suspended task). Executors observe each newly queued task
through the optional `task_queued` hook, which feeds their live-task
count, without duplicating any scheduling decision.
"""

from __future__ import annotations

import itertools
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

    The same state object backs every machine of the serial executor
    and every process or cluster worker, so the virtual-time loop
    exercises the identical store and queue/spill structures as the
    wire.
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
        self.threads = [
            ThreadSlot(config, self.lsmall, slot_id=i)
            for i in range(config.threads_per_machine)
        ]
        self.spawn_order = self.table.vertices_sorted()
        self.spawn_pos = 0

    def spawn_exhausted(self) -> bool:
        return self.spawn_pos >= len(self.spawn_order)

    def pending_big(self) -> int:
        return len(self.bglobal) + self.qglobal.pending_estimate()

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
        task_queued: Callable[[Task], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.app = ensure_app(app)
        self.config = config
        self.machines = machines
        # `is not None`, not truthiness: an empty Tracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._task_queued = task_queued
        #: Times the trace spans only; no scheduling decision reads it.
        self._clock = clock
        self._task_ids = itertools.count()

    def detach(self) -> None:
        """Drop the executor's hook once its job has ended.

        The hook is the executor's bound method, so until then the
        executor and its core reference each other; breaking the cycle
        frees the job's machines, vertex tables and graph by reference
        counting instead of leaving them for a cyclic collection.
        """
        self._task_queued = None

    # -- shared counters ---------------------------------------------------

    def next_task_id(self) -> int:
        return next(self._task_ids)

    def all_spawned(self) -> bool:
        """Every vertex is off its machine's spawn cursor."""
        return all(m.spawn_exhausted() for m in self.machines)

    # -- task routing ------------------------------------------------------

    def route(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        """Queue a task: big → machine's global queue, small → the thread's."""
        if self._task_queued is not None:
            self._task_queued(task)
        if self.config.use_global_queue and task.is_big(self.config.tau_split):
            machine.qglobal.push(task)
            self.tracer.emit("route_global", task.task_id, machine.machine_id)
        else:
            slot.qlocal.push(task)
            self.tracer.emit("route_local", task.task_id, machine.machine_id)

    def buffer_ready(self, task: Task, machine: MachineState, slot: ThreadSlot) -> None:
        """Re-buffer a data-ready task, preserving big-task priority."""
        if self.config.use_global_queue and task.is_big(self.config.tau_split):
            machine.bglobal.append(task)
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
        trace = self.tracer.enabled
        t0 = self._clock() if trace else 0.0
        spawned = 0
        order = machine.spawn_order
        while spawned < self.config.batch_size and machine.spawn_pos < len(order):
            v = order[machine.spawn_pos]
            machine.spawn_pos += 1
            adjacency = machine.table.get(v)
            assert adjacency is not None
            task = self.app.spawn(v, adjacency, self.next_task_id())
            if task is None:
                continue
            self.metrics.tasks_spawned += 1
            self.tracer.emit("spawn", task.task_id, machine.machine_id, detail=f"root={v}")
            self.route(task, machine, slot)
            spawned += 1
            if self.config.use_global_queue and task.is_big(self.config.tau_split):
                break
        if trace and spawned:
            emit_span(
                self.tracer, "root_spawn", t0, self._clock(),
                machine=machine.machine_id, thread=slot.slot_id,
                detail=f"spawned={spawned}",
            )
        return spawned

    def refill_qlocal(self, machine: MachineState, slot: ThreadSlot) -> None:
        """Refill priority: L_small, then B_local, then spawn new tasks."""
        trace = self.tracer.enabled
        t0 = self._clock() if trace else 0.0
        loaded = slot.qlocal.refill_from_spill()
        if loaded:
            if trace:
                emit_span(
                    self.tracer, "spill_refill", t0, self._clock(),
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
        (pop): the machine's global queue (refill a batch from L_big
        when low), then the thread's local queue (refilled
        per `refill_qlocal`). If the local refill spawned only big
        tasks the global queue is re-checked, so a lone thread can
        never strand its own spawn.
        """
        task = None
        if self.config.use_global_queue and machine.bglobal:
            task = machine.bglobal.popleft()
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
        return task

    def _pop_global(self, machine: MachineState, slot: ThreadSlot) -> Task | None:
        if not self.config.use_global_queue:
            return None
        if machine.qglobal.needs_refill():
            trace = self.tracer.enabled
            t0 = self._clock() if trace else 0.0
            loaded = machine.qglobal.refill_from_spill()
            if trace and loaded:
                emit_span(
                    self.tracer, "spill_refill", t0, self._clock(),
                    machine=machine.machine_id, thread=slot.slot_id,
                    detail=f"queue=qglobal loaded={loaded}",
                )
        task = machine.qglobal.pop()
        if task is not None:
            self.tracer.emit("pop_global", task.task_id, machine.machine_id)
        return task

    # -- execution ---------------------------------------------------------

    def run_quantum(
        self,
        task: Task,
        machine: MachineState,
        slot: ThreadSlot,
        record: Callable[[TaskRecord], None] | None = None,
    ) -> QuantumResult:
        """Run compute iterations until the task finishes or suspends.

        Pull resolution goes through the machine's vertex store
        (synchronous in-process); the quantum's abstract cost (compute ops plus
        `sim_message_cost` per remote message) feeds the serial
        executor's virtual clock and is computed identically — for
        free — on the worker reactors.

        With tracing on, the quantum is wrapped in a ``batch_mine``
        span attributed to `slot`, the thread that ran it, so a trace
        reconstructs per-task mining time without the metrics side
        channel.
        """
        trace = self.tracer.enabled
        t0 = self._clock() if trace else 0.0
        result = self._run_quantum(task, machine, record)
        if trace:
            emit_span(
                self.tracer, "batch_mine", t0, self._clock(),
                task_id=task.task_id, machine=machine.machine_id,
                thread=slot.slot_id,
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
        t_start = self._clock() if trace else 0.0
        counts = [m.pending_big() for m in self.machines]
        moves = plan_steals(counts, self.config.batch_size)
        moved = 0
        for move in moves:
            self.tracer.emit(
                "steal_planned", -1, move.src,
                detail=f"dst=m{move.dst} count={move.count}",
            )
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
            self.metrics.steals += 1
            self.metrics.stolen_tasks += len(batch)
            self.metrics.steals_sent += len(batch)
            self.metrics.steals_received += len(batch)
            moved += len(batch)
        if trace and moved:
            emit_span(
                self.tracer, "steal_transfer", t_start, self._clock(),
                detail=f"moves={len(moves)} moved={moved}",
            )
        return moved

