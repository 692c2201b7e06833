"""The localhost launcher behind both local distributed backends.

:func:`run_cluster_app` binds a master on an ephemeral port, forks or
spawns the workers as real OS processes that connect back over TCP,
supervises them, and returns the standard
:class:`~repro.gthinker.engine.MiningRunResult`.
:func:`~repro.gthinker.engine.mine_parallel` calls it for both
backends, which differ only in what a worker holds at launch:

* ``backend='cluster'`` starts *cold* workers. Config, app and the
  worker's partition of the vertex table ship over the socket (never
  the whole graph); non-owned vertices are fetched on demand through
  VertexRequest/VertexReply.
* ``backend='process'`` starts *warm* workers (``warm_start=True``):
  each holds the whole Theorem 2 core from launch, says so in its
  ``Hello`` (``needs_graph=False``), is shipped no partition and
  fetches no vertex. Under ``fork`` the core rides through the fork;
  under ``spawn`` it is pickled as a ``Process`` argument.

**Supervision.** When the master fails a worker (socket EOF, a failed
send, or ``heartbeat_timeout`` of silence — a worker stuck in
``compute`` sends no heartbeat, because its driver is single-threaded),
the launcher terminates that worker's process (found by ``Hello.pid``)
if it is still running and starts a fresh incarnation in its launch
slot. :class:`~repro.gthinker.chaos.FaultInjection` arms generation 0
of its slot only, and the master does not declare the job lost while
a replacement is starting. Multi-host deployments run the same master
and workers through the ``repro cluster-master`` / ``repro
cluster-worker`` CLI instead, without a supervisor (see
docs/BACKENDS.md).
"""

from __future__ import annotations

import multiprocessing
import time

from ...graph.adjacency import Graph
from ..chaos import FaultInjection
from ..config import EngineConfig, check_topology
from ..engine import MiningRunResult
from ..tracing import NullTracer, Tracer
from .master import ClusterMaster
from .worker import ClusterWorker

__all__ = ["run_cluster_app"]


def _worker_entry(
    host: str, port: int, injection: FaultInjection | None, graph: Graph | None
) -> None:
    """Process target for launched workers (an address, plus the graph
    of a warm start).

    A connect that is refused, or reset while the master shuts its
    listener down, means the master already finished the job (it needed
    fewer workers than were launched). Once connected, every socket
    error surfaces as ChannelClosed instead, so nothing else is hidden:
    the worker has printed the traceback of any other crash, and the
    process exits with status 1 without printing it twice.
    """
    try:
        ClusterWorker(host, port, graph=graph, fault_injection=injection).run()
    except (ConnectionRefusedError, ConnectionResetError):
        return
    except Exception:
        raise SystemExit(1) from None


class _Supervisor:
    """The worker processes of one localhost job, one per launch slot.

    The master reactor calls :meth:`worker_failed` for every worker it
    accounts dead and :meth:`starting` before it declares the job lost.
    """

    def __init__(self, ctx, address: tuple[str, int], graph: Graph | None,
                 injection: FaultInjection | None):
        self._ctx = ctx
        self._address = address
        self._graph = graph
        self._injection = injection
        #: (current process, generation) per launch slot.
        self._slots: list[tuple[multiprocessing.process.BaseProcess, int]] = []

    def launch(self, count: int) -> None:
        self._slots = [(self._start(index, 0), 0) for index in range(count)]

    def _start(self, index: int, generation: int):
        injection = (
            None if self._injection is None
            else self._injection.for_incarnation(index, generation)
        )
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(*self._address, injection, self._graph),
            name=f"cluster-worker-{index}",
            daemon=True,
        )
        proc.start()
        return proc

    def worker_failed(self, pid: int) -> None:
        """Replace the process `pid` (killing it if it still runs)."""
        for index, (proc, generation) in enumerate(self._slots):
            if proc.pid == pid:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5.0)
                self._slots[index] = (self._start(index, generation + 1),
                                      generation + 1)
                return

    def starting(self, registered: set[int]) -> bool:
        """True while a launched process runs without having registered."""
        return any(
            proc.is_alive() and proc.pid not in registered
            for proc, _ in self._slots
        )

    def reap(self) -> None:
        deadline = time.monotonic() + 5.0
        for proc, _ in self._slots:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc, _ in self._slots:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


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
    warm_start: bool = False,
    roots=None,
) -> MiningRunResult:
    """Run `app` on a localhost cluster: one master, N supervised workers.

    `warm_start` hands every worker the whole `graph` at launch instead
    of shipping partitions. `fault_injection` arms one launch slot's
    first incarnation with the chaos-testing kill switch; the master's
    lease/retry machinery and the supervisor's respawn absorb the death.
    `timeout` bounds the whole job in wall-clock seconds (RuntimeError
    past it) so a scheduling bug can never hang a test run forever.
    `roots` are the vertices offered to spawn (``None``: all of them).
    """
    check_topology(config)
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
        num_workers=num_workers, on_progress=on_progress, roots=roots,
    )
    supervisor = _Supervisor(
        multiprocessing.get_context(start_method), master.start(),
        graph if warm_start else None, fault_injection,
    )
    master.reactor.supervisor = supervisor
    supervisor.launch(num_workers)
    try:
        return master.run(timeout=timeout)
    finally:
        supervisor.reap()

