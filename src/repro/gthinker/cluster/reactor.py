"""Steppable reactors: the cluster's coordination logic, transport-free.

The distributed control flow of the cluster runtime lives here as two
*reactors* — pure state machines advanced by explicit ``on_message`` /
``on_tick`` / ``mine_step`` transitions over :class:`~repro.gthinker.
runtime.Channel` objects. Neither class owns a socket, a thread, a
queue, or a wall clock: every transition receives ``now`` from its
driver, and the only timers a reactor keeps are deadlines derived from
those ``now`` values.

Two drivers advance the same reactors:

* the real TCP runtime (:class:`~.master.ClusterMaster` /
  :class:`~.worker.ClusterWorker`) — accept/reader threads feed
  ``on_message`` from framed sockets and a run loop supplies
  ``time.monotonic()`` ticks;
* the deterministic simulation (:mod:`repro.gthinker.sim`) — a
  single-threaded event heap feeds the same transitions on a virtual
  clock, so every schedule the simulator explores is a schedule the
  shipping coordination code could really execute.

That the simulated code *is* the shipping code — not a model of it —
is the point of the split: a seed that breaks the simulation replays a
real coordination bug.

A task's lifecycle (spawn, settle a quantum, donate to a steal, the
live count) is the worker's :class:`~repro.gthinker.scheduler.
SchedulerCore`'s, as on the serial executor; the worker reactor keeps
only the cluster's own: lease acknowledgement, fetch parking, and
result and remainder shipping.

Failure semantics are channel-mediated exactly as before the split: a
send to a gone peer raises :class:`~repro.gthinker.runtime.
ChannelClosed` (the master reactor absorbs it into
:meth:`MasterReactor.fail_worker`; the worker reactor lets it
propagate — a worker that cannot reach its master is dead by
definition), and a received ``None`` means the peer's era is over.
"""

from __future__ import annotations

import itertools
import pickle
import time
import warnings
from dataclasses import replace
from typing import Any, Callable

from ..app_protocol import ensure_app
from ..config import EngineConfig
from ..engine import MiningRunResult
from ..metrics import EngineMetrics, WorkerTiming
from ..obs.progress import ProgressSnapshot, progress_detail
from ..obs.spans import emit_span
from ..partition import make_partitioner
from ..runtime import (
    Channel,
    ChannelClosed,
    WorkerRegistry,
    WorkerSlot,
    WorkLedger,
    WorkUnit,
)
from ..scheduler import MachineState, SchedulerCore, build_machines
from ..stealing import plan_steals
from ..task import Task
from ..tracing import NullTracer, Tracer
from ..vertex_store import (
    LocalVertexTable,
    RemoteGraphAccess,
    RemoteVertexCache,
    owner_function,
)
from .protocol import (
    Goodbye,
    Heartbeat,
    Hello,
    ProgressReport,
    ResultBatch,
    Shutdown,
    SpawnRange,
    StatusReply,
    StatusRequest,
    StealGrant,
    StealRequest,
    TaskBatch,
    VertexReply,
    VertexRequest,
    Welcome,
)

__all__ = ["MasterReactor", "WorkerReactor"]

#: Auto chunking target: about this many spawn-range units per worker.
_UNITS_PER_WORKER = 8
#: Send a ProgressReport every this many heartbeats (worker side).
_PROGRESS_EVERY = 4


class MasterReactor:
    """Coordinator state machine of one distributed mining job.

    Owns the three global decisions (the work ledger, big-task steal
    coordination, failure recovery) plus result folding; the TCP master
    and the simulator add only transport and a clock.
    The driver is responsible for (a) feeding every received message to
    :meth:`on_message`, (b) calling :meth:`on_tick` often enough that
    heartbeat timeouts, retry backoffs, and steal periods fire (any
    cadence at or below ``config.heartbeat_period`` is safe), and
    (c) running the shutdown handshake once :attr:`done` turns true.

    ``clock`` times the ``result_fold`` and ``lease_reclaim`` spans and
    nothing else: ``time.monotonic`` on the real runtime, the virtual
    clock in simulation.
    """

    def __init__(
        self,
        graph: Any,
        app: Any,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
        num_workers: int | None = None,
        on_progress: Callable[[ProgressSnapshot], None] | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        roots: Any = None,
    ):
        self.graph = graph
        #: The vertices offered to spawn (None: every vertex).
        self.roots = None if roots is None else set(roots)
        self.app = ensure_app(app)
        self.config = config
        self.tracer = tracer if tracer is not None else NullTracer()
        self.on_progress = on_progress
        self.num_workers = num_workers or config.resolved_num_procs
        if self.num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        try:
            self._app_blob = pickle.dumps(app, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise TypeError(
                f"the process and cluster backends ship the app to every "
                f"worker, but {type(app).__name__} is not picklable: {exc}. "
                f"Keep engine apps free of locks, open files, and lambdas, "
                f"or run it on the serial backend."
            ) from exc
        #: Per-partition Welcome payloads ({vertex: adjacency} pickles),
        #: built lazily per partition and cached for rejoining workers.
        self._partition_blobs: dict[int, bytes] = {}
        self._parts: list[list[int]] | None = None
        self.metrics = EngineMetrics()
        self.progress: dict[int, ProgressReport] = {}
        # -- the coordination control plane --------------------------------
        self._clock = clock
        self.ledger = WorkLedger(
            config, metrics=self.metrics, tracer=self.tracer, clock=clock
        )
        self.registry = WorkerRegistry(metrics=self.metrics, tracer=self.tracer)
        self._pending: list[WorkUnit] = []
        self._work_ids = itertools.count()
        self._steal_ids = itertools.count()
        self._pending_steals: dict[int, tuple[int, int, int]] = {}
        #: Stale StealGrants absorbed (voided request ids: the donor died
        #: between planning and the grant's arrival, or a duplicated
        #: grant frame). Their payload is re-pended — the blobs may be
        #: the only copy of their tasks — and this counter keeps the
        #: decision observable to tests and the simulator.
        self.stale_steal_grants = 0
        self._by_channel: dict[Channel, WorkerSlot] = {}
        # -- timers (all derived from driver-supplied `now` values) --------
        self._run_start = 0.0
        self._next_steal: float | None = None
        self._last_progress: float | None = None
        self._registered_any = False
        self._fleet_in = False
        self.shutdown_started = False
        #: The launcher that respawns failed workers, when there is one
        #: (see :mod:`.launcher`): told of every death, asked before the
        #: job is declared lost.
        self.supervisor: Any = None

    # -- lifecycle ---------------------------------------------------------

    def start_work(self, now: float) -> None:
        """Anchor the run clock and cut the spawn range into work units."""
        self._run_start = now
        self._next_steal = now + self.config.steal_period_seconds
        self._last_progress = now
        self._build_work()

    @property
    def done(self) -> bool:
        """True once no unit is pending, leased, or awaiting retry — and
        no steal request is outstanding.

        The steal clause is load-bearing: a granted batch physically
        leaves the donor's queues before the grant reaches the master,
        so the donor can drain and ack every lease while the stolen
        tasks exist only inside an in-flight ``StealGrant``. Declaring
        the job finished in that window would orphan them. An
        outstanding request always resolves: the donor either answers
        it (grant arrives, entry cleared) or dies (entry voided by
        :meth:`fail_worker`, tasks covered by its reclaimed leases).
        """
        return self.ledger.idle and not (self._pending or self._pending_steals)

    # -- the work ledger ---------------------------------------------------

    def _build_work(self) -> None:
        """Cut the spawn-vertex range into leasable chunks.

        The job's partition strategy decides which worker *should* own
        which vertices; chunks of the per-worker parts (cut down to the
        job's roots) are interleaved so that with fewer live workers
        than expected the load still spreads.
        """
        parts = self._partitioned()
        if self.roots is not None:
            parts = [[v for v in part if v in self.roots] for part in parts]
        n_vertices = sum(len(p) for p in parts)
        chunk = self.config.cluster_chunk_size or max(
            1, -(-n_vertices // (self.num_workers * _UNITS_PER_WORKER))
        )
        chunked = [
            [(pid, part[i: i + chunk]) for i in range(0, len(part), chunk)]
            for pid, part in enumerate(parts)
        ]
        for round_ in itertools.zip_longest(*chunked):
            for item in round_:
                if item and item[1]:
                    pid, vertices = item
                    self._pending.append(
                        WorkUnit(
                            work_id=next(self._work_ids),
                            kind="range",
                            payload=tuple(vertices),
                            home=pid,
                        )
                    )

    def _partitioned(self) -> list[list[int]]:
        """The job's per-partition vertex lists (computed once; both the
        work units and the Welcome vertex tables cut along them)."""
        if self._parts is None:
            self._parts = make_partitioner(
                self.config.partition, self.graph, self.num_workers
            ).parts()
        return self._parts

    def _partition_blob(self, partition_id: int) -> bytes:
        blob = self._partition_blobs.get(partition_id)
        if blob is None:
            graph = self.graph
            entries = {
                v: tuple(graph.neighbors(v))
                for v in self._partitioned()[partition_id]
            }
            blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
            self._partition_blobs[partition_id] = blob
        return blob

    def _fleet_ready(self, now: float) -> bool:
        """True once the supervisor has no worker still starting (the
        launcher: every process it launched has registered or exited; a
        TCP master: ``num_workers`` have registered), or
        ``heartbeat_timeout`` after :meth:`start_work`; before then the
        first worker in could drain a short job alone.
        A one-shot latch, so a later respawn never stalls leasing."""
        if not self._fleet_in:
            self._fleet_in = (
                self.supervisor is None
                or now >= self._run_start + self.config.heartbeat_timeout
                or not self.supervisor.starting(self._registered_pids())
            )
        return self._fleet_in

    def _registered_pids(self) -> set[int]:
        return {
            w.hello.pid for w in self._by_channel.values() if w.hello is not None
        }

    def _pump(self, now: float) -> None:
        """Lease pending units to workers with open window slots."""
        if not self._fleet_ready(now):
            return
        while self._pending:
            targets = sorted(
                (w for w in self.registry.alive() if self.ledger.has_window(w.worker_id)),
                key=lambda w: (self.ledger.open_count(w.worker_id), w.worker_id),
            )
            if not targets:
                return
            progressed = False
            for worker in targets:
                if not self._pending:
                    return
                # A send failure inside _lease fails that worker and
                # re-pends its units, so re-check before each grant: the
                # sorted snapshot may hold a worker that just died.
                if not worker.alive or not self.ledger.has_window(
                    worker.worker_id
                ):
                    continue
                self._lease(self._take_pending(worker), worker, now)
                progressed = True
            if not progressed:
                return

    def _take_pending(self, worker: WorkerSlot) -> WorkUnit:
        """Pop the best pending unit for `worker`: a unit homed on its
        partition first (spawns hit the local vertex table), else the
        oldest unit — locality is a preference, never a stall."""
        home = worker.worker_id % self.num_workers
        for i, unit in enumerate(self._pending):
            if unit.home == home:
                return self._pending.pop(i)
        return self._pending.pop(0)

    def _lease(
        self,
        unit: WorkUnit,
        worker: WorkerSlot,
        now: float,
        enforce_window: bool = True,
    ) -> None:
        self.ledger.grant(unit, worker.worker_id, enforce_window=enforce_window)
        if unit.kind == "range":
            msg: Any = SpawnRange(work_id=unit.work_id, vertices=unit.payload)
        else:
            msg = TaskBatch(
                work_id=unit.work_id, tasks=unit.payload, origin=unit.origin
            )
        self._send(worker, msg, now)

    def _send(self, worker: WorkerSlot, message: Any, now: float) -> None:
        try:
            worker.channel.send(message)
        except ChannelClosed:
            self.fail_worker(worker, "send failed (connection lost)", now)

    # -- failure recovery --------------------------------------------------

    def fail_worker(self, worker: WorkerSlot, reason: str, now: float) -> None:
        if not self.registry.fail(worker, reason):
            return  # already dead
        # Steal requests this worker was *donating* for are void: the
        # grant will never arrive (its channel is gone), and the granted
        # tasks — if any left its queues — are covered by the leases
        # reclaimed below. Requests where it was only the *recipient*
        # stay outstanding: the donor is alive and its grant is coming;
        # dropping that grant would lose tasks that exist nowhere else,
        # since the donor already evicted them and will ack its leases.
        self._pending_steals = {
            rid: (src, dst, n)
            for rid, (src, dst, n) in self._pending_steals.items()
            if src != worker.worker_id
        }
        self.ledger.reclaim(worker.worker_id, now)
        if self.supervisor is not None and worker.hello is not None and not self.done:
            self.supervisor.worker_failed(worker.hello.pid)

    def _check_heartbeats(self, now: float) -> None:
        for worker, reason in self.registry.stale(
            now, self.config.heartbeat_timeout
        ):
            self.fail_worker(worker, reason, now)

    def check_liveness(self, now: float) -> None:
        """Raise once no live worker is left to finish the job.

        Under a supervisor the job is lost when every launched process
        has either died after registering or exited before it: while one
        is still starting (a replacement, or a first incarnation not yet
        connected), it may rescue the work. Without one, the job is lost
        once the full expected complement has registered and then died;
        with stragglers still connecting, a late joiner may yet rescue
        it."""
        self._registered_any = self._registered_any or (
            len(self.registry) >= self.num_workers
        )
        if self.done or self.registry.alive():
            return
        if self.supervisor is None:
            lost = self._registered_any
        else:
            lost = not self.supervisor.starting(self._registered_pids())
        if lost:
            raise RuntimeError(
                f"all cluster workers died with work outstanding "
                f"({len(self._pending)} pending, "
                f"{len(self.ledger)} leased, "
                f"{len(self.ledger.quarantined_ids)} quarantined)"
            )

    # -- stealing ----------------------------------------------------------

    def _plan_steals(self, now: float) -> None:
        alive = sorted(self.registry.alive(), key=lambda w: w.worker_id)
        if len(alive) < 2:
            return
        counts = [w.pending_big for w in alive]
        for move in plan_steals(counts, self.config.batch_size):
            donor, recipient = alive[move.src], alive[move.dst]
            if donor.stealing_from:
                continue  # one outstanding request per donor
            self.metrics.steals_planned += 1
            self.tracer.emit(
                "steal_planned", -1, donor.worker_id,
                detail=f"dst=m{recipient.worker_id} count={move.count}",
            )
            request_id = next(self._steal_ids)
            self._pending_steals[request_id] = (
                donor.worker_id, recipient.worker_id, move.count
            )
            donor.stealing_from = True
            self._send(
                donor, StealRequest(request_id=request_id, count=move.count), now
            )

    def _handle_steal_grant(
        self, worker: WorkerSlot, msg: StealGrant, now: float
    ) -> None:
        entry = self._pending_steals.pop(msg.request_id, None)
        worker.stealing_from = False
        if entry is None:
            # Voided (the donor died) or duplicated (frame-level, or the
            # donor answered a retransmitted request twice). The blobs
            # may still be the only copy of their tasks: the donor could
            # have acked the evicted units complete — releasing their
            # leases — before the grant landed, so dropping here loses
            # candidates. Re-pend instead; if another copy is mined too,
            # the fold's dedup makes the duplicate invisible.
            self.stale_steal_grants += 1
            if msg.tasks:
                self._pending.insert(0, WorkUnit(
                    work_id=next(self._work_ids),
                    kind="batch",
                    payload=tuple(msg.tasks),
                    origin="stale-steal",
                ))
                self._pump(now)
            return
        _src, dst, _count = entry
        if not msg.tasks:
            return
        self.metrics.steals += 1
        self.metrics.steals_sent += len(msg.tasks)
        if self.tracer.enabled:
            for blob in msg.tasks:
                self.tracer.emit(
                    "steal_sent", Task.decode(blob).task_id, worker.worker_id,
                    detail=f"dst=m{dst}",
                )
        unit = WorkUnit(
            work_id=next(self._work_ids),
            kind="batch",
            payload=tuple(msg.tasks),
            origin="steal",
        )
        recipient = self.registry.get(dst)
        if recipient is not None and recipient.alive:
            # A stolen batch must land on its planned recipient even if
            # that briefly over-commits the window — that is what the
            # ledger's enforce_window escape hatch exists for.
            self._lease(unit, recipient, now, enforce_window=False)
            self.metrics.steals_received += len(msg.tasks)
            if self.tracer.enabled:
                for blob in msg.tasks:
                    self.tracer.emit(
                        "steal_received", Task.decode(blob).task_id, dst,
                        detail=f"from=m{worker.worker_id}",
                    )
        else:
            # Recipient died while the grant was in flight: the batch is
            # ordinary pending work now.
            self._pending.insert(0, unit)
            self._pump(now)

    # -- live progress -----------------------------------------------------

    def status_snapshot(self, now: float) -> ProgressSnapshot:
        """One live-progress snapshot of the job, as the master sees it.

        ``tasks_pending``/``tasks_leased`` count master-side work units
        (spawn-range chunks and task batches); ``tasks_done`` is executed
        tasks as reported by worker ProgressReports.
        """
        return ProgressSnapshot(
            wall_seconds=now - self._run_start,
            tasks_pending=len(self._pending),
            tasks_leased=self.ledger.leased_task_count(),
            tasks_done=sum(p.tasks_executed for p in self.progress.values()),
            candidates=len(self.app.sink),
            workers_alive=len(self.registry.alive()),
            workers_died=self.metrics.workers_died,
        )

    def progress_period(self) -> float:
        """Seconds between progress emissions; 0 disables them.

        The cadence at which workers send their ProgressReport
        (every ``_PROGRESS_EVERY`` heartbeats), so each snapshot can
        carry fresh counts; emissions happen only when a callback or a
        tracer is attached.
        """
        if self.on_progress is not None or self.tracer.enabled:
            return _PROGRESS_EVERY * self.config.heartbeat_period
        return 0.0

    def _emit_progress(self, now: float) -> None:
        snapshot = self.status_snapshot(now)
        self.tracer.emit("progress", -1, detail=progress_detail(snapshot))
        if self.on_progress is not None:
            self.on_progress(snapshot)

    def _reply_status(self, channel: Channel, now: float) -> None:
        s = self.status_snapshot(now)
        try:
            channel.send(
                StatusReply(
                    wall_seconds=s.wall_seconds,
                    tasks_pending=s.tasks_pending,
                    tasks_leased=s.tasks_leased,
                    tasks_done=s.tasks_done,
                    candidates=s.candidates,
                    workers_alive=s.workers_alive,
                    workers_died=s.workers_died,
                )
            )
        except ChannelClosed:
            channel.close()  # observer gone before the reply; no worker to fail

    # -- message handling --------------------------------------------------

    def on_message(self, channel: Channel, msg: Any, now: float) -> None:
        """Apply one received message (``None`` = the peer disconnected)."""
        worker = self._by_channel.get(channel)
        if msg is None:
            if worker is not None:
                self.fail_worker(worker, "connection closed", now)
            else:
                channel.close()
            return
        if isinstance(msg, Hello):
            self._register(channel, msg, now)
            return
        if isinstance(msg, StatusRequest):
            # Served for any connected peer — observers query progress
            # without registering as a worker.
            self._reply_status(channel, now)
            return
        if worker is None:
            warnings.warn(
                f"message {type(msg).__name__} from unregistered peer "
                f"{getattr(channel, 'peer', channel)}; dropping",
                RuntimeWarning,
            )
            return
        worker.last_seen = now
        if isinstance(msg, Heartbeat):
            worker.pending_big = msg.pending_big
        elif isinstance(msg, ProgressReport):
            self.progress[worker.worker_id] = msg
        elif isinstance(msg, ResultBatch):
            self._handle_results(worker, msg, now)
        elif isinstance(msg, VertexRequest):
            self._serve_vertices(worker, msg, now)
        elif isinstance(msg, StealGrant):
            self._handle_steal_grant(worker, msg, now)
        elif isinstance(msg, Goodbye):
            self._handle_goodbye(worker, msg)

    def _register(self, channel: Channel, hello: Hello, now: float) -> None:
        worker = self.registry.register(channel, hello, now)
        self._by_channel[channel] = worker
        # Partition ids wrap, so a worker rejoining after a death (fresh
        # worker_id) inherits a partition that already exists — the
        # store never grows past num_workers partitions.
        partition_id = worker.worker_id % self.num_workers
        table_blob = None
        if hello.needs_graph:
            table_blob = self._partition_blob(partition_id)
        self._send(
            worker,
            Welcome(
                worker_id=worker.worker_id,
                config=self.config,
                app_blob=self._app_blob,
                table_blob=table_blob,
                partition_id=partition_id,
                num_partitions=self.num_workers,
                partition_strategy=self.config.partition,
                trace=self.tracer.enabled,
            ),
            now,
        )
        if self.shutdown_started:
            # The job ended while this worker was connecting: release it
            # now, or the Goodbye collection waits out its whole grace.
            self._send(worker, Shutdown(), now)
            return
        self._pump(now)

    def _serve_vertices(
        self, worker: WorkerSlot, msg: VertexRequest, now: float
    ) -> None:
        """Answer a worker's remote-adjacency fetch from the full graph.

        Stateless: a duplicated request frame is simply re-served (the
        worker drops the duplicate reply by request_id), and a vertex
        absent from the graph resolves to an empty adjacency tuple.
        """
        graph = self.graph
        entries = tuple(
            (v, tuple(graph.neighbors(v)) if graph.has_vertex(v) else ())
            for v in msg.vertices
        )
        self.tracer.emit(
            "vertex_served", -1, worker.worker_id,
            detail=f"request={msg.request_id} size={len(entries)}",
        )
        self._send(worker, VertexReply(request_id=msg.request_id, entries=entries), now)

    def _handle_results(
        self, worker: WorkerSlot, msg: ResultBatch, now: float
    ) -> None:
        self._fold(worker, msg)
        for blob in msg.remainders:
            self._pending.append(
                WorkUnit(
                    work_id=next(self._work_ids),
                    kind="batch",
                    payload=(blob,),
                    origin="remainder",
                )
            )
        for work_id in msg.completed:
            # A stale ack (unit reclaimed, possibly re-leased elsewhere)
            # is an at-least-once duplicate: counted and dropped.
            if not self.ledger.complete(work_id, worker.worker_id):
                self.metrics.stale_results_dropped += 1
        self._pump(now)

    def _fold(self, worker: WorkerSlot, msg: ResultBatch) -> None:
        """Fold a batch's candidates into the sink; forward its events.

        Candidates fold even from a stale or dying sender: the sink
        keys on ``frozenset(candidate)``, so a re-mined unit's output
        folds to the same results and mined truth is never thrown away.
        Worker-origin trace events are attributed ``machine=worker id``
        with the worker-local thread they carry, the mirror image of the
        control plane's ``machine=-1, thread=worker id``.
        """
        tracer, sink = self.tracer, self.app.sink
        t0 = self._clock() if tracer.enabled else 0.0
        before = len(sink)
        for candidate in msg.candidates:
            sink.emit(frozenset(candidate))
        if not tracer.enabled:
            return
        if msg.candidates:
            emit_span(
                tracer, "result_fold", t0, self._clock(),
                detail=f"candidates={len(msg.candidates)} new={len(sink) - before}",
            )
        for kind, task_id, thread, detail in msg.events:
            tracer.emit(
                kind, task_id, machine=worker.worker_id, thread=thread, detail=detail
            )

    def _handle_goodbye(self, worker: WorkerSlot, msg: Goodbye) -> None:
        # A clean exit, not a death: no workers_died accounting, so this
        # deliberately bypasses registry.fail(). A Goodbye for a slot
        # already accounted dead (or a duplicated frame) is stale — its
        # metrics were either lost with the death or already merged.
        if not worker.alive:
            return
        self.metrics.merge(msg.metrics)
        worker.alive = False
        if worker.channel is not None:
            worker.channel.close()

    # -- housekeeping ------------------------------------------------------

    def on_tick(self, now: float) -> None:
        """One housekeeping pass: liveness, retries, dispatch, steals,
        progress. Drivers call this between message deliveries."""
        self._check_heartbeats(now)
        # Reclaimed units sit out their exponential backoff in the
        # ledger's retry heap; only the tick moves them back to pending — an
        # idle survivor generates no result traffic, so the tick itself
        # must offer the work around.
        for unit in self.ledger.pop_due(now):
            self._pending.insert(0, unit)
        self._pump(now)
        progress_every = self.progress_period()
        if (
            progress_every
            and self._last_progress is not None
            and now - self._last_progress >= progress_every
        ):
            self._emit_progress(now)
            self._last_progress = now
        if self._next_steal is not None and now >= self._next_steal:
            self._next_steal = now + self.config.steal_period_seconds
            self._plan_steals(now)
        self.check_liveness(now)

    # -- shutdown ----------------------------------------------------------

    def begin_shutdown(self, now: float) -> None:
        """Job done: ask every live worker to flush and say Goodbye."""
        self.shutdown_started = True
        for worker in self.registry.alive():
            self._send(worker, Shutdown(), now)

    def awaiting_goodbye(self) -> list[WorkerSlot]:
        return self.registry.alive()

    def abandon_stragglers(self) -> None:
        """Give up on workers that never said Goodbye (metrics are lost)."""
        for worker in self.registry.alive():
            warnings.warn(
                f"worker {worker.worker_id} never said Goodbye; its final "
                f"metrics are lost",
                RuntimeWarning,
            )
            worker.alive = False
            if worker.channel is not None:
                worker.channel.close()

    def finalize(self, wall_seconds: float) -> MiningRunResult:
        """Post-process the folded candidates into the standard result."""
        self.metrics.wall_seconds = wall_seconds
        return MiningRunResult.from_sink(self.app.sink, self.metrics)


class WorkerReactor:
    """Worker state machine: one leased mining process, transport-free.

    Drivers advance it with four calls: :meth:`hello` once the channel
    is up, :meth:`on_message` per received frame, :meth:`on_tick` for
    heartbeat/flush timing, and :meth:`mine_step` whenever there is
    time to mine (one pick → run-quantum → settle per call). ``on_message``
    returns ``'ok'``, ``'stop'`` (Shutdown received — the driver calls
    :meth:`finish`), or ``'lost'`` (the master is gone).

    ``clock`` feeds only the worker-timing split and trace spans, the
    scheduler core's included; on the real runtime it is
    ``time.monotonic``, the master's clock, on the simulator it is the
    virtual clock, and no scheduling decision reads it.

    ``unit_hook`` is called with the completed-unit count every time a
    work unit arrives — the chaos kill switch on the real runtime
    (:class:`~repro.gthinker.chaos.FaultInjection` → ``die_hard``), and
    unused in simulation where faults live in the
    :class:`~repro.gthinker.sim.FaultPlan`.
    """

    def __init__(
        self,
        channel: Channel,
        graph: Any = None,
        *,
        pid: int = 0,
        host: str = "local",
        unit_hook: Callable[[int], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.channel = channel
        self.graph = graph
        self._pid = pid
        self._host = host
        self._unit_hook = unit_hook
        self._clock = clock
        self.worker_id = -1
        self.metrics = EngineMetrics()
        self.completed_units = 0
        self._shipped: set[frozenset[int]] = set()
        #: Big children shipped back to the master for redistribution.
        self._remainders: list[Task] = []
        self._open: dict[int, str] = {}  # work_id -> kind
        self._served_steals: set[int] = set()
        #: Remote-mode graph access (None on a warm start, where the
        #: full local graph answers every read).
        self.access: RemoteGraphAccess | None = None
        self._fetch_ids = itertools.count()
        #: request_id -> ('task', parked Task) | ('spawn', vertex tuple).
        self._pending_fetches: dict[int, tuple[str, Any]] = {}
        #: task_id -> pull tuple to unpin after the task's next quantum.
        self._unpin_after: dict[int, tuple[int, ...]] = {}
        self._trace_seq = -1
        self._pre_welcome: list[Any] = []
        self.started = False
        self.stopped = False
        # Set on Welcome:
        self.app: Any = None
        self.config: EngineConfig | None = None
        self.core: SchedulerCore | None = None
        self.machine: Any = None
        self.slot: Any = None
        self.tracer: Tracer | NullTracer = NullTracer()
        self._next_heartbeat = 0.0
        self._heartbeats_sent = 0
        self._run_start = 0.0
        self._mine_seconds = 0.0

    # -- handshake ---------------------------------------------------------

    def hello(self) -> None:
        self.channel.send(
            Hello(pid=self._pid, host=self._host, needs_graph=self.graph is None)
        )

    def _welcome(self, welcome: Welcome, now: float) -> None:
        if self.started:
            return  # a duplicated Welcome frame changes nothing
        self.worker_id = welcome.worker_id
        config = welcome.config
        app = pickle.loads(welcome.app_blob)
        spill_dir = config.spill_dir
        if spill_dir is not None:
            import os

            spill_dir = os.path.join(spill_dir, f"worker-{self.worker_id}")
        local_config = replace(
            config,
            num_machines=1,
            threads_per_machine=1,
            spill_dir=spill_dir,
        )
        self.app = app
        self.config = local_config
        if self.graph is not None:
            # Warm start: the operator pre-loaded the whole graph, so
            # every read is local and no vertex ever needs fetching.
            self.machine = build_machines(self.graph, local_config)[0]
        else:
            if welcome.table_blob is None:
                raise RuntimeError(
                    "master sent no vertex table and no local graph was "
                    "provided"
                )
            table = LocalVertexTable.from_entries(
                welcome.partition_id,
                welcome.num_partitions,
                pickle.loads(welcome.table_blob),
            )
            # Under hash partitioning the worker can recompute ownership
            # (the absent-vertex shortcut); other strategies' maps stay
            # with the master.
            self.access = RemoteGraphAccess(
                table,
                RemoteVertexCache(local_config.cache_capacity),
                owner=owner_function(welcome.num_partitions)
                if welcome.partition_strategy == "hash" else None,
            )
            self.machine = MachineState(0, self.access, local_config)
        # Spawning is master-driven (SpawnRange leases); the local spawn
        # cursor must never race it.
        self.machine.spawn_order = []
        self.slot = self.machine.threads[0]
        self.tracer = Tracer() if welcome.trace else NullTracer()
        self.core = SchedulerCore(
            app, local_config, [self.machine], self.tracer, clock=self._clock
        )
        self.metrics = self.core.metrics
        self._next_heartbeat = now + config.heartbeat_period
        self._run_start = now
        self.started = True
        # Work the master raced ahead of the Welcome (possible only on
        # reordering transports) was parked; apply it in arrival order.
        parked, self._pre_welcome = self._pre_welcome, []
        for queued in parked:
            self.on_message(queued, now)

    # -- message handling --------------------------------------------------

    def on_message(self, msg: Any, now: float) -> str:
        """Apply one master frame; returns ``'ok' | 'stop' | 'lost'``."""
        if msg is None:
            self.stopped = True
            return "lost"
        if isinstance(msg, Welcome):
            self._welcome(msg, now)
            return "ok"
        if not self.started:
            # Anything overtaking the Welcome is parked until the reactor
            # has a scheduler to apply it to.
            self._pre_welcome.append(msg)
            return "ok"
        if isinstance(msg, Shutdown):
            return "stop"
        if isinstance(msg, (SpawnRange, TaskBatch)):
            if self._unit_hook is not None:
                self._unit_hook(self.completed_units)
            self._open[msg.work_id] = (
                "range" if isinstance(msg, SpawnRange) else "batch"
            )
            if isinstance(msg, SpawnRange):
                self._spawn_range(msg)
            else:
                for blob in msg.tasks:
                    task = Task.decode(blob)
                    task.task_id = self.core.next_task_id()
                    self.core.route(task, self.machine, self.slot)
        elif isinstance(msg, VertexReply):
            self._vertex_reply(msg)
        elif isinstance(msg, StealRequest):
            self._serve_steal(msg, now)
        # Heartbeat/ProgressReport never flow master -> worker; anything
        # else is ignored for forward compatibility.
        return "ok"

    def _spawn_range(self, msg: SpawnRange) -> None:
        missing: list[int] = []
        for v in msg.vertices:
            adjacency = self.machine.table.get(v)
            if adjacency is None and self.access is not None:
                # Not ours: a unit leased off its home partition. Serve
                # the spawn from the cache, or fetch the adjacency.
                if self.access.known_absent(v):
                    continue  # provably not a graph vertex
                adjacency = self.access.cached(v)
                if adjacency is None:
                    missing.append(v)
                    continue
            if adjacency is None:
                continue  # full table: not a graph vertex
            self.core.spawn_root(v, adjacency, self.machine, self.slot)
        if missing:
            self._request_vertices("spawn", tuple(missing))

    # -- remote vertex fetching --------------------------------------------

    def _request_vertices(
        self, kind: str, vertices: tuple[int, ...], task: Task | None = None
    ) -> None:
        request_id = next(self._fetch_ids)
        self._pending_fetches[request_id] = (
            kind, task if kind == "task" else vertices
        )
        self.core.tracer.emit(
            "vertex_requested",
            -1 if task is None else task.task_id,
            0,
            detail=f"request={request_id} size={len(vertices)}",
        )
        self.channel.send(
            VertexRequest(
                worker_id=self.worker_id,
                request_id=request_id,
                vertices=vertices,
            )
        )

    def _vertex_reply(self, msg: VertexReply) -> None:
        entry = self._pending_fetches.pop(msg.request_id, None)
        if entry is None:
            # A duplicated reply frame: the first copy already admitted
            # these entries and woke the waiter; admitting again would
            # skew the fetch counters for no benefit.
            return
        kind, payload = entry
        if kind == "task":
            task: Task = payload
            # Pin on admission: the entries this task waited for must
            # survive later admissions until its quantum resolves them.
            self.access.admit(msg.entries, pin=True)
            still = self.access.unresolved(task.pulls)
            if still:
                # Unreachable when the reply covers the request (pins
                # forbid eviction in between); kept as a re-fetch rather
                # than an assert so a future protocol relaxation (partial
                # replies) degrades to an extra round trip.
                self._request_vertices("task", tuple(still), task=task)
                return
            self._unpin_after[task.task_id] = tuple(task.pulls)
            self.core.buffer_ready(task, self.machine, self.slot)
        else:
            self.access.admit(msg.entries)
            adjacency = dict(msg.entries)
            for v in payload:
                self.core.spawn_root(
                    v, adjacency.get(v, ()), self.machine, self.slot
                )

    def _serve_steal(self, msg: StealRequest, now: float) -> None:
        """Give up to `count` big tasks from Q_global (+ its spill list)."""
        if msg.request_id in self._served_steals:
            # A duplicated request frame. Serving it again would evict a
            # second batch for a request the master considers answered —
            # the master re-pends such stale grants, but the eviction is
            # pure waste, so an answered id is simply ignored.
            return
        self._served_steals.add(msg.request_id)
        trace = self.tracer.enabled
        t0 = self._clock() if trace else 0.0
        granted = self.core.donate(self.machine, msg.count)
        if trace and granted:
            # Donor-side half of the move; the events forward to the
            # master's trace attributed machine=this worker.
            emit_span(
                self.tracer, "steal_transfer", t0, self._clock(),
                detail=f"granted={len(granted)} requested={msg.count}",
            )
        self.channel.send(
            StealGrant(
                request_id=msg.request_id,
                worker_id=self.worker_id,
                tasks=tuple(t.encode() for t in granted),
            )
        )

    # -- heartbeat / progress ----------------------------------------------

    @property
    def next_heartbeat(self) -> float:
        return self._next_heartbeat

    def on_tick(self, now: float) -> None:
        """Send the heartbeat (and periodic flush/progress) when due."""
        if not self.started or self.stopped or now < self._next_heartbeat:
            return
        self._next_heartbeat = now + self.config.heartbeat_period
        self._heartbeats_sent += 1
        self.channel.send(
            Heartbeat(worker_id=self.worker_id, pending_big=self.machine.pending_big())
        )
        if self._fresh_candidates() or self._remainders:
            self.flush()
        if self._heartbeats_sent % _PROGRESS_EVERY == 0:
            self.channel.send(
                ProgressReport(
                    worker_id=self.worker_id,
                    tasks_executed=self.metrics.tasks_executed,
                )
            )

    # -- mining ------------------------------------------------------------

    def mine_step(self, now: float) -> float | None:
        """Run at most one scheduling quantum.

        Returns the quantum's abstract cost, or None when nothing was
        pickable (the driver decides whether to block, yield, or — in
        simulation — stop scheduling steps until new work arrives). An
        idle reactor with drained units flushes their acknowledgements
        as a side effect, exactly like the old inline loop.
        """
        if not self.started or self.stopped:
            return None
        task = self.core.pick(self.machine, self.slot)
        if task is None:
            if (
                self.core.live == 0
                and not self._pending_fetches
                and (self._open or self._remainders or self._fresh_candidates())
            ):
                self.flush(completed_all=True)
            return None
        if self.access is not None and task.pulls:
            fetch_missing = self.access.unresolved(task.pulls)
            if fetch_missing:
                # Park the task until its remote pulls arrive. Pin what
                # is already cached so a later admission cannot evict it
                # while we wait; the fetched rest pins on admit.
                self.access.pin(task.pulls)
                self._request_vertices("task", tuple(fetch_missing), task=task)
                return 1.0 + len(fetch_missing) * self.config.sim_message_cost
        t0 = self._clock()
        quantum = self.core.run_quantum(
            task, self.machine, self.slot, self.metrics.record_task
        )
        self._mine_seconds += self._clock() - t0
        unpin = self._unpin_after.pop(task.task_id, None)
        if unpin is not None:
            self.access.unpin(unpin)
        # Big children go back to the master for redistribution.
        self.core.settle(
            quantum, self.machine, self.slot, export=self._remainders.append
        )
        if len(self._remainders) >= self.config.batch_size:
            self.flush()
        return quantum.cost

    # -- result shipping ---------------------------------------------------

    def _fresh_candidates(self) -> set[frozenset[int]]:
        return self.app.sink.results() - self._shipped

    def _new_events(self) -> tuple:
        if not self.tracer.enabled:
            return ()
        events = [e for e in self.tracer.events() if e.seq > self._trace_seq]
        if events:
            self._trace_seq = events[-1].seq
        return tuple((e.kind, e.task_id, e.thread, e.detail) for e in events)

    def flush(self, completed_all: bool = False) -> None:
        """Ship fresh candidates, remainders, trace events, and — when the
        local scheduler has drained — the acknowledgements of every open
        work unit, all in one atomic message."""
        completed: tuple[int, ...] = ()
        if (
            completed_all
            and self.core.live == 0
            and not self._pending_fetches
            and self._open
        ):
            completed = tuple(self._open)
            self.completed_units += len(completed)
            self._open.clear()
        fresh = self._fresh_candidates()
        self._shipped |= fresh
        remainders = tuple(t.encode() for t in self._remainders)
        self._remainders.clear()
        self.channel.send(
            ResultBatch(
                worker_id=self.worker_id,
                completed=completed,
                candidates=tuple(fresh),
                remainders=remainders,
                events=self._new_events(),
            )
        )

    # -- shutdown ----------------------------------------------------------

    def finish(self, now: float) -> None:
        """Shutdown received: final flush, metrics fold-up, Goodbye."""
        wall = now - self._run_start
        self.metrics.timing[self.worker_id] = WorkerTiming(
            wall_seconds=wall,
            mine_seconds=self._mine_seconds,
            idle_seconds=max(0.0, wall - self._mine_seconds),
        )
        self.flush(completed_all=True)
        self.core.collect_metrics()
        self.channel.send(Goodbye(worker_id=self.worker_id, metrics=self.metrics))
        self.stopped = True

    def cleanup(self) -> None:
        if self.machine is not None:
            self.machine.cleanup()
