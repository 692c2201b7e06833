"""Launchers for the cluster runtime.

:func:`mine_cluster` is the one-call localhost form: it binds a master
on an ephemeral port, forks/spawns the workers as real OS processes
that connect back over TCP, and returns the standard
:class:`~repro.gthinker.engine.MiningRunResult`. It is what
``EngineConfig(backend='cluster')`` dispatches to and what the tests
drive; multi-host deployments run the same master and workers via the
``repro cluster-master`` / ``repro cluster-worker`` CLI entry points
instead (see docs/BACKENDS.md).

Everything a worker needs ships over the socket — config, app, and its
*partition* of the vertex table (never the whole graph; non-owned
vertices are fetched on demand through VertexRequest/VertexReply) — so
the worker entry function is trivially spawn-safe: it closes over
nothing but an address.
"""

from __future__ import annotations

import multiprocessing
import time

from ...core.miner import quasiclique_core
from ...core.options import DEFAULT_OPTIONS, ResultSink
from ...graph.adjacency import Graph
from ..app_quasiclique import QuasiCliqueApp
from ..chaos import FaultInjection
from ..config import EngineConfig
from ..engine import MiningRunResult
from ..tracing import NullTracer, Tracer
from .master import ClusterMaster
from .worker import ClusterWorker

__all__ = ["mine_cluster", "run_cluster_app"]


def _worker_entry(host: str, port: int, injection: FaultInjection | None) -> None:
    """Process target for launched workers (spawn-safe: address only).

    A connect that is refused, or reset while the master shuts its
    listener down, means the master already finished the job (it needed
    fewer workers than were launched). Once connected, every socket
    error surfaces as ChannelClosed instead, so nothing else is hidden.
    """
    try:
        ClusterWorker(host, port, fault_injection=injection).run()
    except (ConnectionRefusedError, ConnectionResetError):
        return


def run_cluster_app(
    graph: Graph,
    app,
    config: EngineConfig,
    tracer: Tracer | NullTracer | None = None,
    num_workers: int | None = None,
    start_method: str | None = None,
    fault_injection: FaultInjection | None = None,
    timeout: float | None = None,
    on_progress=None,
) -> MiningRunResult:
    """Run `app` on a localhost cluster: one master, N worker processes.

    `fault_injection` arms exactly one worker (by launch index) with the
    chaos-testing kill switch; the master's lease/retry machinery is
    expected to absorb the death. `timeout` bounds the whole job in
    wall-clock seconds (RuntimeError past it) so a scheduling bug can
    never hang a test run forever.
    """
    num_workers = num_workers or config.resolved_num_procs
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in available else "spawn"
    elif start_method not in available:
        raise ValueError(
            f"start method {start_method!r} not available here "
            f"(have: {', '.join(available)})"
        )
    master = ClusterMaster(
        graph, app, config, tracer=tracer, host="127.0.0.1", port=0,
        num_workers=num_workers, on_progress=on_progress,
    )
    host, port = master.start()
    ctx = multiprocessing.get_context(start_method)
    procs = []
    for index in range(num_workers):
        injection = (
            fault_injection
            if fault_injection is not None and fault_injection.worker_id == index
            else None
        )
        proc = ctx.Process(
            target=_worker_entry,
            args=(host, port, injection),
            name=f"cluster-worker-{index}",
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    try:
        return master.run(timeout=timeout)
    finally:
        deadline = time.monotonic() + 5.0
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


def mine_cluster(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    options=None,
    tracer: Tracer | NullTracer | None = None,
    num_workers: int | None = None,
    start_method: str | None = None,
    fault_injection: FaultInjection | None = None,
    timeout: float | None = None,
    on_progress=None,
) -> MiningRunResult:
    """Convenience front-end: mine `graph` on a localhost TCP cluster.

    The master partitions and ships :func:`~repro.core.miner.quasiclique_core`
    of `graph`, so no worker ever holds a vertex Theorem 2 rules out.
    """
    config = config or EngineConfig(backend="cluster")
    options = options or DEFAULT_OPTIONS
    graph = quasiclique_core(graph, gamma, min_size, options)
    app = QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink(), options=options)
    return run_cluster_app(
        graph, app, config, tracer=tracer, num_workers=num_workers,
        start_method=start_method, fault_injection=fault_injection,
        timeout=timeout, on_progress=on_progress,
    )
