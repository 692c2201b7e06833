"""Cluster master: the TCP driver of the coordinator reactor.

The master owns no mining compute and no coordination logic.
Everything the paper says must be a global decision (the work ledger,
big-task steal coordination, failure recovery, result folding) lives in
the transport-free :class:`~.reactor.MasterReactor`, reachable as
``ClusterMaster.reactor``; this module supplies the parts only a real
deployment needs, behind two calls, :meth:`ClusterMaster.start` and
:meth:`ClusterMaster.run`:

* a listening socket plus an accept thread that wraps each connection
  in a :class:`~repro.gthinker.runtime.StreamChannel`;
* one reader thread per channel funnelling frames into a single inbox
  queue (the reactor is advanced from exactly one thread);
* the run loop: pop the inbox, feed :meth:`MasterReactor.on_message`,
  call :meth:`MasterReactor.on_tick` with ``time.monotonic()``, and
  run the Shutdown → Goodbye-collection handshake when the reactor
  reports :attr:`~.reactor.MasterReactor.done`.

The deterministic simulator (:mod:`repro.gthinker.sim`) drives the
same reactor over in-memory channels on a virtual clock — a seed that
fails there is a schedule this driver could really execute.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
import warnings

from ..config import EngineConfig
from ..engine import MiningRunResult
from ..runtime import ChannelClosed, StreamChannel
from ..tracing import NullTracer, Tracer
from .protocol import MessageStream
from .reactor import MasterReactor

__all__ = ["ClusterMaster"]

#: How long the shutdown handshake waits for Goodbyes (seconds).
_GOODBYE_GRACE = 10.0


class _ExpectedFleet:
    """The supervisor of a master whose workers someone else starts
    (``repro cluster-master``): it respawns nothing, but holds leases
    back until `expected` workers have registered, so the first worker
    in cannot finish a short job while the others are connecting."""

    def __init__(self, registry, expected: int):
        self._registry = registry
        self._expected = expected

    def starting(self, registered: set[int]) -> bool:
        # Counted by registration, not by pid: workers on different
        # hosts may share one.
        return len(self._registry) < self._expected

    def worker_failed(self, pid: int) -> None:
        pass


class ClusterMaster:
    """Coordinator of one distributed mining job.

    `run()` drives the job to completion and returns the same
    :class:`MiningRunResult` as every other executor. `start()` may be
    called first to learn the bound address (ephemeral-port launchers).
    """

    def __init__(
        self,
        graph,
        app,
        config: EngineConfig,
        tracer: Tracer | NullTracer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        num_workers: int | None = None,
        on_progress=None,
        roots=None,
    ):
        #: Live-progress callback, called with a ProgressSnapshot as
        #: often as workers report progress (every few heartbeats: 1s
        #: at the default heartbeat_period); StatusRequest peers get
        #: the same snapshot on demand.
        self.reactor = MasterReactor(
            graph, app, config,
            tracer=tracer, num_workers=num_workers, on_progress=on_progress, roots=roots,
        )
        # The localhost launcher replaces this with its own supervisor.
        self.reactor.supervisor = _ExpectedFleet(
            self.reactor.registry, self.reactor.num_workers
        )
        self.config = config
        self._host = host
        self._port = port
        # -- wiring --------------------------------------------------------
        self._inbox: queue.Queue = queue.Queue()
        self._lsock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: Every accepted channel with its reader thread, registered or
        #: not: a worker that connects after the job ended is closed
        #: with the rest instead of waiting for a Welcome.
        self._accepted: list[tuple[StreamChannel, threading.Thread]] = []
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._lsock is None:
            raise RuntimeError("master not started; call start() first")
        host, port = self._lsock.getsockname()[:2]
        return host, port

    def start(self) -> tuple[str, int]:
        """Bind + listen + start accepting registrations; returns (host, port)."""
        if self._lsock is not None:
            return self.address
        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind((self._host, self._port))
        lsock.listen(self.reactor.num_workers + 8)
        self._lsock = lsock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-master-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._lsock.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = StreamChannel(MessageStream(conn))
            reader = threading.Thread(
                target=self._read_loop, args=(channel,),
                name="cluster-master-reader", daemon=True,
            )
            self._accepted.append((channel, reader))
            reader.start()

    def _read_loop(self, channel: StreamChannel) -> None:
        while True:
            try:
                msg = channel.recv()
            except ChannelClosed as exc:  # torn frame → treat as disconnect
                if not self._closing:  # else _close() closed it under us
                    warnings.warn(
                        f"dropping connection {channel.peer}: {exc}",
                        RuntimeWarning,
                    )
                msg = None
            self._inbox.put((channel, msg))
            if msg is None:
                return

    # -- the run loop ------------------------------------------------------

    def run(self, timeout: float | None = None) -> MiningRunResult:
        """Drive the job to completion; returns the standard run result."""
        start = time.perf_counter()
        reactor = self.reactor
        self.start()
        reactor.start_work(time.monotonic())
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while not reactor.done:
                try:
                    channel, msg = self._inbox.get(timeout=0.02)
                except queue.Empty:
                    channel = None
                now = time.monotonic()
                if channel is not None:
                    reactor.on_message(channel, msg, now)
                    # Drain whatever else is queued before housekeeping.
                    while True:
                        try:
                            channel, msg = self._inbox.get_nowait()
                        except queue.Empty:
                            break
                        reactor.on_message(channel, msg, now)
                reactor.on_tick(now)
                if deadline is not None and now > deadline:
                    raise RuntimeError(
                        f"cluster job exceeded its {timeout}s deadline "
                        f"({len(reactor._pending)} pending, "
                        f"{len(reactor.ledger)} leased)"
                    )
            self._shutdown_workers()
        finally:
            self._close()
        return reactor.finalize(time.perf_counter() - start)

    def _shutdown_workers(self) -> None:
        """Job done: Shutdown → collect Goodbyes (metrics) → close."""
        reactor = self.reactor
        reactor.begin_shutdown(time.monotonic())
        deadline = time.monotonic() + _GOODBYE_GRACE
        while reactor.awaiting_goodbye() and time.monotonic() < deadline:
            try:
                channel, msg = self._inbox.get(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except queue.Empty:
                continue
            reactor.on_message(channel, msg, time.monotonic())
        reactor.abandon_stragglers()

    def _close(self) -> None:
        self._closing = True
        if self._lsock is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, and refuses late connects even
            # through a listener fd that forked workers inherited.
            try:
                self._lsock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._lsock.close()
        if self._accept_thread is not None:
            self._accept_thread.join()
        for channel, _reader in self._accepted:
            channel.close()
        for _channel, reader in self._accepted:
            reader.join()
