"""Process-pool executor: SchedulerCore quanta across worker processes.

The serial and threaded drivers in :mod:`repro.gthinker.engine` share
one interpreter, so the CPU-bound backtracking that dominates
quasi-clique mining is serialized by the GIL no matter how many threads
run. The original G-thinker gets its scalability from one mining comper
per core; this executor reproduces that with `multiprocessing`:

* the **parent** owns every piece of scheduler state — the spawn
  cursor, Q_global/Q_local, B_global, the L_big/L_small spill lists,
  steal coordination, and the task-lease table — and drives the same
  :class:`~repro.gthinker.scheduler.SchedulerCore` policy as every
  other executor;
* **workers** hold a read-only copy of the input graph (fork-inherited
  where the platform allows, rebuilt from a
  `multiprocessing.shared_memory` buffer otherwise) plus their own copy
  of the application, receive pickled :class:`Task` batches over a
  per-worker queue, run each task's compute iterations to completion
  (pulls resolve against the local graph copy, so tasks never suspend
  inside a worker), and ship back mined candidates, per-batch
  :class:`EngineMetrics`, forwarded tracer events, and any
  decomposition remainder tasks;
* remainder tasks return to the parent, get fresh task IDs, and re-enter
  the shared routing policy (big → Q_global, small → Q_local), so
  time-delayed decomposition balances load across processes exactly as
  it does across threads.

**Fault tolerance.** Long skewed mining runs are the paper's whole
motivation, and a production run cannot die because one worker did.
This driver owns transport and dispatch only; every fault-semantic
decision is delegated to the shared coordination control plane
(:mod:`repro.gthinker.runtime`, also under the cluster runtime):

* every dispatched batch is recorded in the control plane's
  :class:`~repro.gthinker.runtime.TaskLeaseTable` (task ids, per-task
  attempt counts, a wall-clock deadline derived from ``tau_time`` plus
  ``lease_slack``, a ``lease_window``-bounded per-worker pipeline);
* a worker that **died** (non-zero/None ``Process.exitcode``, broken
  pipe, injected SIGKILL) or whose **lease expired** (wedged — Alg. 10
  promises no task legitimately outruns its budget) is joined, its
  death accounted through :class:`~repro.gthinker.runtime.
  WorkerRegistry`, its leases reclaimed through :func:`~repro.gthinker.
  runtime.reclaim_lease` (exponential backoff retry, ``max_attempts``
  quarantine), and a fresh incarnation respawned in its slot;
* at-least-once duplicates are dropped — and idempotent candidates
  kept — by :class:`~repro.gthinker.runtime.ResultFolder`.

Result channels are isolated per worker *incarnation*
(:class:`~repro.gthinker.runtime.PipeChannel`): each worker ships
messages over its own one-writer pipe rather than a shared queue. A
shared `multiprocessing.Queue` write lock is a fault-domain violation —
a worker SIGKILLed while its feeder thread holds the lock dies owning
it, wedging every peer's `put` until their leases expire and the whole
pool death-spirals into quarantine. With private pipes a killed worker
can tear only its own channel; the supervisor abandons it, reclaims the
leases, and the rest of the pool never notices.

Because each worker owns a whole-graph replica, pull resolution is
always local: `remote_messages` stays 0 and the vertex cache is idle on
this backend (the partitioned vertex store is a distribution model, not
a parallelism mechanism). Everything the paper's reforge is about —
routing, pick order, spilling, spawn batching, stealing — still runs,
in the parent.

The application must be picklable: it is shipped once to every worker
at pool start. `MultiprocessEngine` verifies this at construction and
raises a `TypeError` naming the app, instead of letting the first
dispatch die inside a worker.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
import traceback
import warnings
from array import array
from multiprocessing import connection as mp_connection

from ..core.options import ResultSink
from ..core.postprocess import postprocess_results
from ..graph.access import InMemoryGraphAccess
from ..graph.adjacency import Graph
from .app_protocol import ComputeContext, GThinkerApp, ensure_app
from .app_quasiclique import QuasiCliqueApp
from .chaos import FaultInjection, die_hard
from .config import EngineConfig
from .engine import MiningRunResult
from .metrics import EngineMetrics, WorkerTiming
from .obs.progress import ProgressSnapshot, progress_detail
from .runtime import (
    ChannelClosed,
    PipeChannel,
    ResultFolder,
    RetryPolicy,
    TaskLeaseTable,
    WorkerRegistry,
    WorkerSlot,
    reclaim_lease,
)
from .scheduler import SchedulerCore, build_machines, collect_machine_metrics
from .task import Task
from .tracing import NullTracer, Tracer

__all__ = ["FaultInjection", "MultiprocessEngine", "mine_multiprocess"]

#: Trace-event kinds a worker may forward to the parent's tracer.
_WORKER_EVENT_KINDS = ("execute", "finish", "decompose", "span_begin", "span_end")


# -- read-only graph shipping ---------------------------------------------


def _graph_to_shm(graph: Graph):
    """Serialize `graph` into a shared-memory int64 buffer.

    Layout: [num_vertices, num_edges, v_0..v_{n-1}, u_0, w_0, ...].
    Vertex IDs are arbitrary non-negative ints (no compaction needed).
    """
    from multiprocessing import shared_memory

    data = array("q", [graph.num_vertices, graph.num_edges])
    data.extend(sorted(graph.vertices()))
    for u, w in graph.edges():
        data.append(u)
        data.append(w)
    payload = data.tobytes()
    shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    shm.buf[: len(payload)] = payload
    return shm, len(payload)


def _attach_shm_untracked(name: str):
    """Attach to a parent-owned segment without resource tracking.

    The parent owns the segment's lifetime; letting workers register it
    with the (shared) resource tracker causes spurious KeyError noise at
    exit when several workers attach the same name (bpo-38119). Python
    3.13 has `track=False` for exactly this; on older versions the
    standard workaround is suppressing registration around the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= not supported (< 3.13)
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(res_name, rtype):
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _graph_from_shm(name: str, nbytes: int) -> Graph:
    """Rebuild the read-only graph copy inside a spawned worker."""
    shm = _attach_shm_untracked(name)
    try:
        data = array("q")
        data.frombytes(bytes(shm.buf[:nbytes]))
    finally:
        shm.close()
    num_vertices, num_edges = data[0], data[1]
    vertices = data[2 : 2 + num_vertices]
    flat = data[2 + num_vertices : 2 + num_vertices + 2 * num_edges]
    edges = ((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))
    return Graph.from_edges(edges, vertices=vertices)


def _resolve_graph(graph_payload) -> InMemoryGraphAccess:
    """Build the worker's access over its whole-graph replica, which
    reached this process by fork inheritance or a shm rebuild."""
    kind = graph_payload[0]
    if kind == "direct":  # fork: the object itself rode through the fork
        return InMemoryGraphAccess(graph_payload[1])
    _, name, nbytes = graph_payload  # spawn/forkserver: rebuild from shm
    return InMemoryGraphAccess(_graph_from_shm(name, nbytes))


# -- the worker process ----------------------------------------------------


def _run_task(app, config, access, task, next_task_id, metrics, events):
    """Run one task's compute iterations to completion; returns children.

    Pulls resolve through the worker's :class:`InMemoryGraphAccess`
    (whole-graph replica — `unresolved` is always empty), so a task
    never suspends here — the suspend/re-buffer path belongs to the
    executors whose vertex store is partitioned.
    """
    ctx = ComputeContext(
        config=config, next_task_id=next_task_id, record=metrics.record_task
    )
    children: list[Task] = []
    t0 = time.monotonic() if events is not None else 0.0
    while True:
        if task.pulls:
            frontier = access.resolve(task.pulls)
            task.pulls = []
        else:
            frontier = {}
        if events is not None:
            events.append(("execute", task.task_id, ""))
        outcome = app.compute(task, frontier, ctx)
        if outcome.new_tasks:
            children.extend(outcome.new_tasks)
            if events is not None:
                events.append(
                    ("decompose", task.task_id, f"children={len(outcome.new_tasks)}")
                )
        if outcome.finished:
            if events is not None:
                events.append(("finish", task.task_id, ""))
                # The batch_mine span of this task, as a forwarded event
                # pair (retroactive emission — same rule as emit_span, so
                # pairing/nesting holds in the parent's trace too).
                t1 = time.monotonic()
                events.append(
                    ("span_begin", task.task_id,
                     f"name=batch_mine t={t0:.6f} children={len(children)}")
                )
                events.append(
                    ("span_end", task.task_id,
                     f"name=batch_mine t={t1:.6f} dur={t1 - t0:.6f} "
                     f"children={len(children)}")
                )
            return children


def _worker_main(
    worker_id: int,
    graph_payload,
    app_blob: bytes,
    config: EngineConfig,
    injection: FaultInjection | None,
    task_q,
    result_conn,
    trace_enabled: bool,
) -> None:
    """Worker loop: decode batches, mine, ship results back.

    Message protocol (worker → parent, over this incarnation's private
    result pipe — one writer per pipe, so a SIGKILLed worker can never
    leave a shared write lock held and wedge its peers; sends happen on
    this thread, so every completed batch is flushed before the next
    batch is even received):
      ("batch", worker_id, batch_id, finished, child_blobs, candidates,
       metrics, events) per processed batch;
      ("done", worker_id, stats_blob) on sentinel;
      ("error", worker_id, traceback_text) on any failure (the worker
       exits afterwards; the parent's supervisor respawns it).

    `injection` is the chaos hook: when set, this incarnation SIGKILLs
    itself upon receiving a batch after completing `after_batches` of
    them (the parent only passes it to the targeted worker's first
    incarnation).
    """
    try:
        access = _resolve_graph(graph_payload)
        app = pickle.loads(app_blob)
        # Provisional child IDs; the parent renumbers on receipt, so
        # negative values can never collide with scheduler-issued IDs.
        provisional = itertools.count(1)
        shipped: set[frozenset[int]] = set()
        completed = 0
        while True:
            t_wait = time.monotonic()
            item = task_q.get()
            waited = time.monotonic() - t_wait
            if item is None:
                result_conn.send(("done", worker_id, pickle.dumps(app.stats)))
                return
            if injection is not None and completed >= injection.after_batches:
                die_hard()
            batch_id, blobs = item
            metrics = EngineMetrics()
            events: list | None = [] if trace_enabled else None
            children: list[Task] = []
            t_mine = time.monotonic()
            for blob in blobs:
                task = Task.decode(blob)
                children.extend(
                    _run_task(
                        app, config, access, task,
                        lambda: -next(provisional), metrics, events,
                    )
                )
            busy = time.monotonic() - t_mine
            # Per-batch wall/mine/idle slice; the parent's metrics merge
            # sums slices per worker id into one WorkerTiming row.
            metrics.timing[worker_id] = WorkerTiming(
                wall_seconds=waited + busy, mine_seconds=busy, idle_seconds=waited
            )
            results = app.sink.results()
            fresh = results - shipped
            shipped |= fresh
            result_conn.send(
                (
                    "batch",
                    worker_id,
                    batch_id,
                    len(blobs),
                    [t.encode() for t in children],
                    fresh,
                    metrics,
                    events or [],
                )
            )
            completed += 1
    except BaseException:
        try:
            result_conn.send(("error", worker_id, traceback.format_exc()))
        except OSError:  # parent already closed the pipe mid-shutdown
            pass


# -- the parent-side engine ------------------------------------------------


class MultiprocessEngine:
    """Run one mining job over a supervised pool of worker processes.

    The parent is the only scheduler: it spawns tasks from the vertex
    table, routes and picks through `SchedulerCore`, leases picked
    batches to workers over per-worker queues, and folds worker results
    — candidates, metrics, tracer events, remainder tasks — back in.
    Workers are expendable: death or wedging triggers lease reclaim,
    backoff retry, respawn, and (after `config.max_attempts` failed
    dispatches of a task) quarantine — never a crashed run.
    """

    def __init__(
        self,
        graph: Graph,
        app: GThinkerApp,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
        start_method: str | None = None,
        fault_injection: FaultInjection | None = None,
        on_progress=None,
    ):
        self.graph = graph
        self.app = ensure_app(app)
        self.config = config
        #: Live-progress callback: called with a ProgressSnapshot every
        #: config.progress_interval seconds (default 1s when a callback
        #: is given; the `progress` trace event fires on the same clock).
        self.on_progress = on_progress
        try:
            self._app_blob = pickle.dumps(app, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise TypeError(
                f"the process backend ships the app to every worker, but "
                f"{type(app).__name__} is not picklable: {exc}. Keep engine "
                f"apps free of locks, open files, and lambdas, or use the "
                f"threaded backend."
            ) from exc
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else "spawn"
        elif start_method not in available:
            raise ValueError(
                f"start method {start_method!r} not available here "
                f"(have: {', '.join(available)})"
            )
        self.start_method = start_method
        self.num_procs = config.resolved_num_procs
        self.machines = build_machines(graph, config)
        self.metrics = EngineMetrics()
        self._active = 0
        self._peak_active = 0
        self.core = SchedulerCore(
            app, config, self.machines, tracer,
            metrics=self.metrics,
            task_queued=self._task_born,
        )
        self.tracer = self.core.tracer
        # -- fault-tolerance state: the shared control plane ---------------
        self.leases = TaskLeaseTable(
            config.max_attempts, lease_window=config.lease_window
        )
        self.registry = WorkerRegistry(metrics=self.metrics, tracer=self.tracer)
        self._retries: RetryPolicy[Task] = RetryPolicy(config.retry_backoff)
        self._folder = ResultFolder(
            self.app.sink, self.leases, metrics=self.metrics, tracer=self.tracer
        )
        self._injection = fault_injection
        #: Tasks poisoned after max_attempts failed dispatches.
        self.quarantined: list[Task] = []
        #: Tracebacks reported by workers that failed at the app level.
        self.worker_errors: list[str] = []
        self._batch_ids = itertools.count()

    @property
    def retry_schedule(self) -> list[tuple[int, int, float]]:
        """(task_id, attempt, backoff_delay) per scheduled retry — the
        observable backoff sequence, asserted by tests."""
        return self._retries.history

    def _task_born(self, task: Task) -> None:
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)

    # -- parent-side scheduling -------------------------------------------

    def _slots(self):
        return [
            (machine, slot)
            for machine in self.machines
            for slot in machine.threads
        ]

    def _collect_batch(self, slot_cycle, num_slots: int) -> list[Task]:
        """Pick up to one batch of tasks, round-robin across pick sources."""
        batch: list[Task] = []
        for _ in range(num_slots):
            machine, slot = next(slot_cycle)
            while len(batch) < self.config.batch_size:
                task = self.core.pick(machine, slot)
                if task is None:
                    break
                batch.append(task)
            if len(batch) >= self.config.batch_size:
                break
        return batch

    def _route_child(self, blob: bytes) -> None:
        child = Task.decode(blob)
        child.task_id = self.core.next_task_id()
        machine, slot = next(self._route_cycle)
        self.core.route(child, machine, slot)

    # -- pool management ----------------------------------------------------

    def _spawn_worker(self, slot: WorkerSlot) -> None:
        """(Re)start the worker in `slot` with a fresh private channel.

        Each incarnation gets a private result pipe (wrapped in a
        :class:`PipeChannel`): the worker is the pipe's only writer, so
        there is no cross-worker write lock for a SIGKILLed process to
        die holding, and a partially-written frame from a terminated
        worker corrupts only its own (abandoned) channel — never a
        peer's.
        """
        injection = None
        if self._injection is not None:
            injection = self._injection.for_incarnation(
                slot.worker_id, slot.generation
            )
        task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        if slot.channel is not None:
            slot.channel.close()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                slot.worker_id, self._graph_payload, self._app_blob,
                self.config, injection, task_q, send_conn, self.tracer.enabled,
            ),
            daemon=True,
        )
        slot.channel = PipeChannel(task_q, recv_conn)
        slot.transport = proc
        proc.start()
        # The worker holds the write end now; dropping the parent's copy
        # makes worker death observable as EOF on the channel.
        send_conn.close()

    def _fail_worker(self, slot: WorkerSlot, reason: str, now: float) -> None:
        """Handle one dead/wedged worker: reclaim its leases, respawn it."""
        proc = slot.transport
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        # Results the worker shipped before failing are done work, not
        # retries — fold them in before reclaiming what remains.
        self._drain_results()
        channel = slot.channel
        self.registry.fail(slot, reason)
        if channel is not None:
            # Anything still sitting on the dead worker's queue is
            # covered by its leases; the queue itself is discarded.
            channel.discard_task_queue()
        for lease in self.leases.leases_for(slot.worker_id):
            reclaim_lease(
                self.leases, lease, self._retries, now,
                metrics=self.metrics, tracer=self.tracer,
                on_quarantine=self._on_quarantine,
            )
        self.registry.revive(slot)
        self._spawn_worker(slot)

    def _on_quarantine(self, task: Task, attempts: int) -> None:
        self._active -= 1
        self.quarantined.append(task)

    def _flush_due_retries(self, now: float) -> None:
        for task, _attempts in self._retries.pop_due(now):
            machine, slot = next(self._route_cycle)
            self.core.requeue(task, machine, slot)

    # -- live progress -----------------------------------------------------

    def _progress_interval(self) -> float:
        """Seconds between progress emissions; 0 disables them."""
        if self.config.progress_interval:
            return self.config.progress_interval
        if self.on_progress is not None or self.tracer.enabled:
            return 1.0
        return 0.0

    def status_snapshot(self) -> ProgressSnapshot:
        """One live-progress snapshot of the pool, as the parent sees it."""
        leased = self.leases.leased_task_count()
        return ProgressSnapshot(
            wall_seconds=time.perf_counter() - self._run_start,
            tasks_pending=max(0, self._active - leased),
            tasks_leased=leased,
            tasks_done=self.metrics.tasks_executed,
            candidates=len(self.app.sink.results()),
            workers_alive=sum(
                1 for slot in self.registry.slots()
                if slot.transport is not None and slot.transport.is_alive()
            ),
            workers_died=self.metrics.workers_died,
        )

    def _emit_progress(self) -> None:
        snapshot = self.status_snapshot()
        self.tracer.emit("progress", -1, detail=progress_detail(snapshot))
        if self.on_progress is not None:
            self.on_progress(snapshot)

    def _supervise(self, now: float) -> None:
        """Detect dead and wedged workers; reclaim and respawn."""
        for slot in self.registry.slots():
            if not slot.transport.is_alive():
                self._fail_worker(
                    slot, f"exitcode={slot.transport.exitcode}", now
                )
        for lease in self.leases.expired(now):
            # An earlier reclaim this round may have taken it already.
            if self.leases.get(lease.lease_id) is not None:
                self._fail_worker(
                    self.registry.get(lease.worker_id),
                    f"lease {lease.lease_id} expired (wedged worker)", now,
                )

    # -- driver ------------------------------------------------------------

    def run(self) -> MiningRunResult:
        start = time.perf_counter()
        self._run_start = start
        self._ctx = multiprocessing.get_context(self.start_method)
        shm = None
        if self.start_method == "fork":
            self._graph_payload = ("direct", self.graph)
        else:
            shm, nbytes = _graph_to_shm(self.graph)
            self._graph_payload = ("shm", shm.name, nbytes)
        try:
            for w in range(self.num_procs):
                self._spawn_worker(self.registry.add(WorkerSlot(worker_id=w)))
            self._dispatch_loop()
            self._shutdown()
        finally:
            for slot in self.registry.slots():
                proc = slot.transport
                if proc is None:
                    continue
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5.0)
            for slot in self.registry.slots():
                if slot.channel is not None:
                    slot.channel.discard_task_queue()
                    slot.channel.close()
            if shm is not None:
                shm.close()
                shm.unlink()
            for m in self.machines:
                m.cleanup()
        self.metrics.wall_seconds = time.perf_counter() - start
        collect_machine_metrics(self.metrics, self.machines)
        self.metrics.peak_pending_tasks = max(
            self.metrics.peak_pending_tasks, self._peak_active
        )
        self.metrics.mining_stats.merge(self.app.stats)
        candidates = self.app.sink.results()
        maximal = postprocess_results(candidates)
        self.metrics.results = len(maximal)
        return MiningRunResult(
            maximal=maximal, candidates=candidates, metrics=self.metrics
        )

    def _fill_windows(self, pick_cycle, num_slots: int, now: float) -> None:
        """Lease fresh batches to every worker with spare window."""
        for slot in self.registry.slots():
            while self.leases.has_window(slot.worker_id):
                batch = self._collect_batch(pick_cycle, num_slots)
                if not batch:
                    return  # nothing pickable right now
                self._dispatch(slot, batch, now)

    def _dispatch(self, slot: WorkerSlot, batch: list[Task], now: float) -> None:
        batch_id = next(self._batch_ids)
        self.leases.grant(
            batch_id, slot.worker_id, batch, now,
            self.config.lease_timeout(len(batch)),
        )
        try:
            slot.channel.send((batch_id, [t.encode() for t in batch]))
        except ChannelClosed:
            # Dead incarnation caught mid-dispatch: the lease just
            # granted is covered by the supervisor's reclaim next round.
            pass

    def _dispatch_loop(self) -> None:
        config = self.config
        core = self.core
        slots = self._slots()
        pick_cycle = itertools.cycle(slots)
        self._route_cycle = itertools.cycle(slots)
        steal_enabled = config.num_machines > 1
        last_steal = time.monotonic()
        progress_every = self._progress_interval()
        last_progress = time.monotonic()
        while True:
            now = time.monotonic()
            if progress_every and now - last_progress >= progress_every:
                self._emit_progress()
                last_progress = now
            self._flush_due_retries(now)
            self._supervise(now)
            self._fill_windows(pick_cycle, len(slots), now)
            if not self.leases:
                if (
                    core.all_spawned()
                    and self._active == 0
                    and not self._retries
                ):
                    return
                # Nothing dispatchable yet (work on spill files
                # mid-refill, or retries still backing off); let the
                # policy make progress.
                if steal_enabled:
                    core.apply_steals()
                time.sleep(0.001)
                continue
            ready = self._wait_channels(timeout=0.05)
            if not ready:
                continue
            for channel in ready:
                msg = self._recv_from(channel)
                if msg is not None:
                    self._handle_message(msg)
            if steal_enabled:
                now = time.monotonic()
                if now - last_steal >= config.steal_period_seconds:
                    core.apply_steals()
                    last_steal = now

    def _wait_channels(self, timeout: float) -> list[PipeChannel]:
        """Channels with a readable message, via one multiplexed wait."""
        by_conn = {ch.waitable: ch for ch in self.registry.channels()}
        ready = mp_connection.wait(list(by_conn), timeout=timeout)
        return [by_conn[conn] for conn in ready]

    def _recv_from(self, channel: PipeChannel):
        """Receive one message, tolerating a dead writer.

        EOF (the worker exited) and a torn frame (the worker was
        terminated mid-send) poison only this incarnation's private
        pipe: the channel marks itself closed and is abandoned. Anything
        its remaining messages carried is re-run through lease reclaim.
        """
        try:
            return channel.recv()
        except ChannelClosed:
            return None

    def _drain_results(self) -> None:
        """Fold in every result message already sitting in the pipes."""
        for channel in self.registry.channels():
            while not channel.closed and channel.poll():
                msg = self._recv_from(channel)
                if msg is None:
                    break
                self._handle_message(msg)

    def _handle_message(self, msg) -> None:
        kind = msg[0]
        if kind == "error":
            # App-level failure: the worker ships its traceback and
            # exits; the supervisor will reclaim and respawn on the next
            # round. Record loudly — a deterministic app bug surfaces
            # here attempt after attempt until quarantine.
            _, worker_id, tb = msg
            self.worker_errors.append(tb)
            last = tb.strip().splitlines()[-1] if tb.strip() else "unknown error"
            warnings.warn(
                f"worker process {worker_id} failed ({last}); its leased "
                f"batches will be retried or quarantined",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        if kind == "done":
            # A shutdown acknowledgement cannot appear mid-dispatch, but
            # tolerate it rather than crash a run that is otherwise fine.
            return
        _, worker_id, batch_id, finished, child_blobs, fresh, wmetrics, events = msg
        # Candidates fold unconditionally (idempotent); everything else
        # folds only if the lease is still ours — a stale at-least-once
        # duplicate's children and metrics belong to the retry that
        # superseded it, and dropping them keeps accounting single-count.
        self._folder.fold(fresh)
        if self._folder.complete(batch_id) is None:
            return
        # Children first, exactly like the threaded driver: the active
        # counter must never hit zero while a finishing parent still has
        # unrouted offspring.
        for blob in child_blobs:
            self._route_child(blob)
        self._active -= finished
        self.metrics.merge(wmetrics)
        if events:
            self._folder.forward_events(worker_id, events, _WORKER_EVENT_KINDS)

    def _shutdown(self) -> None:
        for slot in self.registry.slots():
            try:
                slot.channel.send(None)
            except ChannelClosed:
                pass
        pending = set(range(self.num_procs))
        deadline = time.monotonic() + 30.0
        while pending and time.monotonic() < deadline:
            ready = self._wait_channels(timeout=1.0)
            if not ready:
                if all(
                    not slot.transport.is_alive()
                    for slot in self.registry.slots()
                ):
                    break
                continue
            for channel in ready:
                msg = self._recv_from(channel)
                if msg is None:
                    continue
                if msg[0] == "done":
                    _, worker_id, stats_blob = msg
                    self.metrics.mining_stats.merge(pickle.loads(stats_blob))
                    pending.discard(worker_id)
                elif msg[0] == "batch":
                    # A stale duplicate flushed by a worker we terminated
                    # for lease expiry: every lease was settled before
                    # the dispatch loop returned, so only fold the
                    # (deduplicated) candidates.
                    self._folder.fold(msg[5])
                elif msg[0] == "error":
                    # All mining already completed; losing this worker's
                    # final stats blob is not worth failing the run over.
                    self.worker_errors.append(msg[2])
                    pending.discard(msg[1])
        for slot in self.registry.slots():
            slot.transport.join(timeout=5.0)


def mine_multiprocess(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    options=None,
    tracer: Tracer | NullTracer | None = None,
    start_method: str | None = None,
    fault_injection: FaultInjection | None = None,
    on_progress=None,
) -> MiningRunResult:
    """Convenience front-end: mine `graph` on the process-pool backend."""
    from ..core.options import DEFAULT_OPTIONS

    config = config or EngineConfig(backend="process")
    app = QuasiCliqueApp(
        gamma=gamma,
        min_size=min_size,
        sink=ResultSink(),
        options=options or DEFAULT_OPTIONS,
    )
    return MultiprocessEngine(
        graph, app, config, tracer=tracer, start_method=start_method,
        fault_injection=fault_injection, on_progress=on_progress,
    ).run()
