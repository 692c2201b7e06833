"""The deterministic simulation harness: one seed, one cluster run.

:func:`run_sim` builds the *shipping* coordination code — a
:class:`~repro.gthinker.cluster.reactor.MasterReactor` and N
:class:`~repro.gthinker.cluster.reactor.WorkerReactor`s — over an
in-memory :class:`~.net.SimNet`, and drives the whole job in one
thread on a virtual clock under a seeded :class:`~.plan.FaultPlan`:
message delay/jitter/reorder/duplication, connection tears, link
partitions, worker crashes and restarts, wedged workers, stragglers.

Checked continuously (after every delivered network frame):

* ``WorkLedger.check_invariants()`` — lease conservation can never be
  violated, not even transiently.

Checked at quiescence:

* **oracle equality** — the run's maximal family and raw candidate
  set equal a serial reference run of the same graph and parameters
  (candidate-set equality *is* dedup exactness: the master's frozenset
  dedup must make at-least-once re-mining invisible);
* **metrics/trace consistency** — the fault and steal counters agree
  with their trace-event counts per docs/OBSERVABILITY.md
  (``worker_died``/``task_retried``/``task_quarantined`` sizes,
  ``steal_planned``/``steal_sent``/``steal_received``);
* **no poisoned work** — plans are bounded well below
  ``max_attempts``, so any quarantine is a coordination bug;
* **one clock** — every traced span time lies inside the run's virtual
  time: master, ledger and workers all read the virtual clock.

A share of seeds (:data:`_WARM_SHARE`) runs the process backend's
configuration instead of the cluster's: warm-start workers that hold
the whole graph, ask for no partition and fetch no vertex. That choice
comes from its own ``random.Random`` derived from the seed, so the
main stream, and with it every cold seed's schedule, is unchanged.

Everything is deterministic: virtual time only, a single
``random.Random(seed)`` per concern, no sockets, no threads, no
sleeps. The same seed reproduces the same :attr:`SimNet.log`
byte-for-byte, which is what makes a failing seed a *replayable*
coordination bug rather than an anecdote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any

from ...core.options import DEFAULT_OPTIONS, ResultSink
from ...graph.adjacency import Graph
from ..app_quasiclique import QuasiCliqueApp
from ..cluster.protocol import Hello, VertexReply, VertexRequest, Welcome
from ..cluster.reactor import MasterReactor, WorkerReactor
from ..config import EngineConfig
from ..engine import mine_parallel
from ..obs.spans import parse_detail
from ..runtime import ChannelClosed
from ..tracing import Tracer
from .net import SimChannel, SimNet
from .plan import FaultPlan, generate_plan

__all__ = ["SimReport", "run_sim"]

#: Virtual seconds per abstract mining op (one quantum ≈ tau_time ops).
_OPS_SECONDS = 0.002
#: Master housekeeping cadence (virtual seconds).
_MASTER_TICK = 0.05
#: Virtual Goodbye-collection grace after shutdown begins.
_GOODBYE_GRACE = 5.0
#: Hard bounds: a run that exceeds these did not quiesce.
_MAX_VIRTUAL_TIME = 120.0
_MAX_EVENTS = 200_000

#: Sim parameters (small graphs: the oracle is brute-force-checkable
#: and one fuzz sweep covers hundreds of schedules in seconds).
_GAMMA = 0.75
_MIN_SIZE = 3
_GRAPH_POOL = 5
#: Share of fuzz seeds whose workers start warm (the process backend).
_WARM_SHARE = 0.25


@dataclass
class SimReport:
    """Outcome of one simulated run."""

    seed: int
    ok: bool
    failure: str | None
    events: int
    virtual_time: float
    num_workers: int
    plan: FaultPlan
    log: list[str]
    tracer: Tracer
    metrics: Any = None
    result: Any = None
    #: Stale StealGrants the master re-pended (see MasterReactor).
    stale_steal_grants: int = 0
    #: Per-worker resident adjacency entries at quiescence (partition
    #: table + remote cache + pins) — the distributed vertex store's
    #: memory-bound evidence. Keyed by sim worker index; only workers
    #: that completed the Welcome handshake appear.
    resident: dict[int, int] | None = None
    #: Whether the workers started warm (whole graph, no fetches).
    warm_start: bool = False


def _sim_graph(gseed: int) -> Graph:
    """One small Erdős–Rényi graph from the deterministic pool."""
    rng = random.Random(1000 + gseed)
    n = 8 + (gseed % 4)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    return Graph.from_edges(edges, vertices=range(n))


_oracle_cache: dict[tuple, Any] = {}


def _oracle(gseed: int, config: EngineConfig):
    """Serial reference run (cached across a fuzz sweep)."""
    key = (gseed, config.tau_split, config.tau_time, config.decompose)
    if key not in _oracle_cache:
        serial = replace(
            config,
            backend="serial",
            num_machines=1,
            threads_per_machine=1,
            num_procs=0,
            cluster_chunk_size=0,
        )
        _oracle_cache[key] = mine_parallel(
            _sim_graph(gseed), _GAMMA, _MIN_SIZE, serial
        )
    return _oracle_cache[key]


def _sim_config(rng: random.Random, num_workers: int) -> EngineConfig:
    """The job config of one fuzz run (a few knobs vary per seed)."""
    return EngineConfig(
        backend="cluster",
        num_procs=num_workers,
        decompose="timed",
        tau_time=10,
        time_unit="ops",
        # tau_split=0 makes every task big: steal traffic is guaranteed,
        # so a third of the fuzz space hammers the grant/forward path.
        tau_split=rng.choice([3, 3, 0]),
        queue_capacity=4,
        batch_size=2,
        heartbeat_period=0.25,
        heartbeat_timeout=2.0,
        retry_backoff=0.1,
        lease_window=2,
        max_attempts=10,
        steal_period_seconds=0.5,
        cluster_chunk_size=rng.choice([0, 1, 2]),
        # A tiny cache forces evictions and leans on the pin/refcount
        # overlay (a capacity below one task's pull count must still
        # make progress); the default-sized cache covers the hit path.
        cache_capacity=rng.choice([2, 4, 1 << 16]),
    )


class _SimWorker:
    """Driver-side state of one simulated worker process."""

    def __init__(self, index: int, reactor: WorkerReactor,
                 endpoint: SimChannel, speed: float):
        self.index = index
        self.reactor = reactor
        self.endpoint = endpoint
        self.speed = speed
        self.dead = False
        self.mine_scheduled = False


def run_sim(
    seed: int,
    *,
    plan: FaultPlan | None = None,
    num_workers: int | None = None,
    config: EngineConfig | None = None,
    graph_seed: int | None = None,
    warm_start: bool | None = None,
) -> SimReport:
    """Simulate one full cluster job under seed-derived faults.

    The keyword overrides exist for pinned regression scenarios: a
    hand-written plan with an explicit worker count and config replays
    one documented failure class instead of a random draw. Such a
    scenario runs cold workers unless `warm_start` says otherwise; a
    bare seed draws the choice (see :data:`_WARM_SHARE`).
    """
    if warm_start is None:
        warm_start = (
            plan is None and config is None
            and random.Random(f"warm-start:{seed}").random() < _WARM_SHARE
        )
    rng = random.Random(seed)
    gseed = graph_seed if graph_seed is not None else rng.randrange(_GRAPH_POOL)
    n_workers = num_workers or rng.choice([2, 2, 3])
    cfg = config or _sim_config(rng, n_workers)
    fault_plan = plan or generate_plan(rng.randrange(2**31), n_workers)
    graph = _sim_graph(gseed)
    oracle = _oracle(gseed, cfg)

    net = SimNet(
        seed=rng.randrange(2**31),
        dup_exempt=lambda msg: isinstance(msg, (Hello, Welcome)),
        fetch_frames=lambda msg: isinstance(msg, (VertexRequest, VertexReply)),
    )
    tracer = Tracer()
    app = QuasiCliqueApp(
        gamma=_GAMMA, min_size=_MIN_SIZE, sink=ResultSink(),
        options=DEFAULT_OPTIONS,
    )
    master = MasterReactor(
        graph, app, cfg, tracer=tracer, num_workers=n_workers,
        clock=lambda: net.now,
    )
    master.start_work(0.0)

    workers: list[_SimWorker] = []
    state = {"failure": None, "shutdown": False, "grace_over": False}

    def fail(message: str) -> None:
        if state["failure"] is None:
            state["failure"] = message

    # -- worker driving ----------------------------------------------------

    def worker_dies(worker: _SimWorker) -> None:
        if worker.dead:
            return
        worker.dead = True
        try:
            worker.reactor.cleanup()
        except Exception:
            pass
        worker.endpoint.close()

    def kick_mine(worker: _SimWorker) -> None:
        if worker.mine_scheduled or worker.dead:
            return
        worker.mine_scheduled = True
        net.call_at(net.now + 1e-4, f"w{worker.index}-mine",
                    lambda: mine(worker))

    def mine(worker: _SimWorker) -> None:
        worker.mine_scheduled = False
        if worker.dead or worker.endpoint.wedged:
            return
        try:
            cost = worker.reactor.mine_step(net.now)
        except ChannelClosed:
            worker_dies(worker)
            return
        if cost is not None:
            duration = max(cost, 1.0) * _OPS_SECONDS * worker.speed
            worker.mine_scheduled = True
            net.call_at(net.now + duration, f"w{worker.index}-mine",
                        lambda: mine(worker))

    def worker_tick(worker: _SimWorker) -> None:
        if worker.dead:
            return
        if not worker.endpoint.wedged:
            try:
                worker.reactor.on_tick(net.now)
            except ChannelClosed:
                worker_dies(worker)
                return
            kick_mine(worker)
        net.call_at(net.now + cfg.heartbeat_period,
                    f"w{worker.index}-tick", lambda: worker_tick(worker))

    def worker_handler(worker: _SimWorker, channel: SimChannel) -> None:
        msg = channel.recv()
        if worker.dead:
            return
        try:
            action = worker.reactor.on_message(msg, net.now)
        except ChannelClosed:
            worker_dies(worker)
            return
        if action == "stop":
            try:
                worker.reactor.finish(net.now)
            except ChannelClosed:
                worker_dies(worker)
                return
            worker.reactor.cleanup()
            worker.dead = True
        elif action == "lost":
            worker.reactor.cleanup()
            worker.dead = True
        else:
            kick_mine(worker)

    def master_handler(channel: SimChannel) -> None:
        msg = channel.recv()
        master.on_message(channel, msg, net.now)
        master.ledger.check_invariants()

    def spawn_worker(index: int) -> None:
        faults = fault_plan.link_for(index)
        windows = tuple(
            (p.start, p.end)
            for p in fault_plan.partitions
            if index in p.workers
        )
        m_end, w_end = net.link(f"link-w{index}", faults, windows)
        m_end.handler = master_handler
        # A cold worker (graph=None) runs the real distributed vertex
        # store — partition table in the Welcome, remote pulls through
        # VertexRequest/VertexReply; a warm one reads the whole graph.
        reactor = WorkerReactor(
            w_end, graph if warm_start else None,
            pid=index, host=f"sim-{index}",
            clock=lambda: net.now,
        )
        worker = _SimWorker(index, reactor, w_end, fault_plan.faults_for(index).speed)
        w_end.handler = lambda ch, w=worker: worker_handler(w, ch)
        workers.append(worker)
        try:
            reactor.hello()
        except ChannelClosed:
            worker_dies(worker)
            return
        net.call_at(net.now + cfg.heartbeat_period,
                    f"w{index}-tick", lambda: worker_tick(worker))
        wf = fault_plan.faults_for(index)
        if wf.crash_at is not None:
            net.call_at(wf.crash_at, f"w{index}-crash",
                        lambda: worker_dies(worker))
            if wf.restart_at is not None:
                replacement = len(workers) + n_workers + index
                net.call_at(wf.restart_at, f"w{index}-restart",
                            lambda r=replacement: spawn_worker(r))
        if wf.wedge_at is not None:
            net.call_at(wf.wedge_at, f"w{index}-wedge",
                        lambda: net.wedge(w_end))
            if wf.unwedge_at is not None:
                net.call_at(wf.unwedge_at, f"w{index}-unwedge",
                            lambda: net.unwedge(w_end))

    for i in range(n_workers):
        net.call_at(i * 0.01, f"w{i}-spawn", lambda i=i: spawn_worker(i))

    def master_tick() -> None:
        if state["failure"] is not None:
            return
        if not state["shutdown"]:
            master.on_tick(net.now)
        net.call_at(net.now + _MASTER_TICK, "master-tick", master_tick)

    net.call_at(0.0, "master-tick", master_tick)

    # -- the run loop ------------------------------------------------------

    result = None
    try:
        while True:
            if state["failure"] is not None:
                break
            if state["shutdown"]:
                if not master.awaiting_goodbye():
                    break
                if state["grace_over"]:
                    master.abandon_stragglers()
                    break
            if net.now > _MAX_VIRTUAL_TIME or net.events_fired > _MAX_EVENTS:
                fail(
                    f"no quiescence: t={net.now:.3f} events={net.events_fired} "
                    f"pending={len(master._pending)} leased={len(master.ledger)}"
                )
                break
            if not net.step():
                fail("event heap drained before quiescence")
                break
            if not state["shutdown"] and master.done:
                state["shutdown"] = True
                master.begin_shutdown(net.now)
                net.call_at(net.now + _GOODBYE_GRACE, "goodbye-grace",
                            lambda: state.__setitem__("grace_over", True))
    except (AssertionError, RuntimeError) as exc:
        fail(f"{type(exc).__name__}: {exc}")

    # -- quiescence checks -------------------------------------------------

    resident: dict[int, int] = {}
    if state["failure"] is None:
        try:
            master.ledger.check_invariants()
            result = master.finalize(net.now)
            _check_oracle(result, oracle)
            _check_consistency(master, tracer)
            _check_trace_times(tracer, net.now)
            resident = _check_memory_bounded(workers, graph, n_workers)
        except AssertionError as exc:
            fail(f"quiescence check failed: {exc}")

    for worker in workers:
        if not worker.dead:
            worker.reactor.cleanup()

    return SimReport(
        seed=seed,
        ok=state["failure"] is None,
        failure=state["failure"],
        events=net.events_fired,
        virtual_time=net.now,
        num_workers=n_workers,
        plan=fault_plan,
        log=net.log,
        tracer=tracer,
        metrics=master.metrics,
        result=result,
        stale_steal_grants=master.stale_steal_grants,
        resident=resident,
        warm_start=warm_start,
    )


def _check_oracle(result: Any, oracle: Any) -> None:
    assert result.maximal == oracle.maximal, (
        f"maximal family diverged from the serial oracle: "
        f"missing={sorted(map(sorted, oracle.maximal - result.maximal))} "
        f"extra={sorted(map(sorted, result.maximal - oracle.maximal))}"
    )
    assert result.candidates == oracle.candidates, (
        f"candidate set diverged (dedup exactness): "
        f"missing={sorted(map(sorted, oracle.candidates - result.candidates))} "
        f"extra={sorted(map(sorted, result.candidates - oracle.candidates))}"
    )


def _check_memory_bounded(
    workers: list[_SimWorker], graph: Graph, n_workers: int
) -> dict[int, int]:
    """The distributed vertex store never reassembles the full graph.

    With more than one worker, each worker's partition table must be a
    strict subset of the vertex set, and its remote cache must respect
    its capacity bound. (The sim graphs are tiny, so table + cache can
    legitimately *reach* |V| — the strict resident < |V| bound is
    asserted on a larger graph by the cluster integration tests.)
    """
    resident: dict[int, int] = {}
    for worker in workers:
        reactor = worker.reactor
        access = getattr(reactor, "access", None)
        if access is None or reactor.machine is None:
            continue
        resident[worker.index] = access.resident_entries()
        if n_workers > 1:
            assert len(reactor.machine.table) < graph.num_vertices, (
                f"worker {worker.index} holds the full graph: table has "
                f"{len(reactor.machine.table)} of {graph.num_vertices} vertices"
            )
        assert len(access.cache) <= access.cache.capacity, (
            f"worker {worker.index} cache over capacity: "
            f"{len(access.cache)} > {access.cache.capacity}"
        )
    return resident


def _traced_size(tracer: Tracer, kind: str) -> int:
    """Sum of the ``size=`` payloads of one fault-event kind."""
    total = 0
    for event in tracer.events(kind=kind):
        total += int(parse_detail(event.detail).get("size", 1))
    return total


def _check_consistency(master: MasterReactor, tracer: Tracer) -> None:
    """Metrics ↔ trace agreement per docs/OBSERVABILITY.md."""
    m = master.metrics
    counts = tracer.counts()
    assert m.workers_died == counts.get("worker_died", 0), (
        f"workers_died={m.workers_died} != "
        f"worker_died events={counts.get('worker_died', 0)}"
    )
    assert m.tasks_retried == _traced_size(tracer, "task_retried"), (
        f"tasks_retried={m.tasks_retried} != "
        f"traced sizes={_traced_size(tracer, 'task_retried')}"
    )
    quarantined = master.ledger.quarantined_ids
    assert m.tasks_quarantined == 0 and not quarantined, (
        f"work quarantined under a bounded plan: "
        f"{m.tasks_quarantined} tasks, {len(quarantined)} units"
    )
    assert m.steals_planned == counts.get("steal_planned", 0), (
        f"steals_planned={m.steals_planned} != "
        f"steal_planned events={counts.get('steal_planned', 0)}"
    )
    assert m.steals_sent == counts.get("steal_sent", 0), (
        f"steals_sent={m.steals_sent} != "
        f"steal_sent events={counts.get('steal_sent', 0)}"
    )
    assert m.steals_received == counts.get("steal_received", 0), (
        f"steals_received={m.steals_received} != "
        f"steal_received events={counts.get('steal_received', 0)}"
    )
    assert m.steals_received <= m.steals_sent, (
        f"more steals received ({m.steals_received}) than sent "
        f"({m.steals_sent})"
    )


def _check_trace_times(tracer: Tracer, end: float) -> None:
    """Every event that carries a time (``t=``) read the virtual clock.

    Spans print ``t`` to 6 decimals, so one that ends at `end` may read
    up to half a microsecond past it.
    """
    for event in tracer.events():
        t = parse_detail(event.detail).get("t")
        assert t is None or 0.0 <= float(t) <= end + 1e-6, (
            f"{event.kind} at t={t} lies outside the run's virtual time "
            f"[0, {end:.6f}]: {event.detail}"
        )

