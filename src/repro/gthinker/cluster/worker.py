"""Cluster worker: the TCP driver of the worker reactor.

A worker is the distributed twin of an `engine_mp` worker process, but
it owns a real local scheduler instead of receiving pre-picked batches.
All of that behaviour — handshake, leased work units, master-driven
spawning, big-remainder shipping, steal serving, incremental candidate
flushes — lives in the transport-free
:class:`~.reactor.WorkerReactor`; this module supplies what only a
real process needs:

* the TCP connection to the master (`Hello` → `Welcome` over a
  :class:`~repro.gthinker.runtime.StreamChannel`);
* a reader thread funnelling master frames into an inbox so the
  reactor is advanced from exactly one thread;
* the blocking policy: step the reactor again after every quantum,
  and block on the inbox (until the next heartbeat deadline) only
  after a step that found nothing to pick. That is the mine loop of
  :mod:`repro.gthinker.sim.harness`: the step that runs dry flushes
  the drained units' acknowledgements at once, so the master re-leases
  without waiting for a heartbeat, and a parked or stolen-away task
  can only be unblocked by an inbox message anyway;
* chaos wiring: :class:`~repro.gthinker.chaos.FaultInjection` arms the
  reactor's unit hook with :func:`~repro.gthinker.chaos.die_hard`.

Death needs no protocol: a SIGKILLed worker simply stops heartbeating
and its socket EOFs; the master reclaims every work unit it still
leased. Candidates are flushed incrementally and deduplicated
master-side, so at-least-once re-mining never changes the result set.
"""

from __future__ import annotations

import os
import queue
import socket
import sys
import threading
import time
import traceback

from ..chaos import FaultInjection, die_hard
from ..runtime import ChannelClosed, StreamChannel
from .protocol import MessageStream
from .reactor import WorkerReactor

__all__ = ["ClusterWorker"]


class ClusterWorker:
    """One socket-connected mining process of a cluster job."""

    def __init__(
        self,
        host: str,
        port: int,
        graph=None,
        fault_injection: FaultInjection | None = None,
        connect_timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.graph = graph
        self._injection = fault_injection
        self._connect_timeout = connect_timeout
        self.reactor: WorkerReactor | None = None

    @property
    def worker_id(self) -> int:
        return self.reactor.worker_id if self.reactor is not None else -1

    # -- wiring ------------------------------------------------------------

    def _connect(self) -> StreamChannel:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self._connect_timeout
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return StreamChannel(MessageStream(sock))

    def _unit_hook(self, completed_units: int) -> None:
        if (
            self._injection is not None
            and completed_units >= self._injection.after_batches
        ):
            die_hard()

    # -- the mining loop ---------------------------------------------------

    def run(self) -> None:
        channel = self._connect()
        try:
            self._run(channel)
        except BaseException:
            # A crash here is a worker death by definition; the master
            # sees the EOF and reclaims. Leave a trace for the operator.
            traceback.print_exc(file=sys.stderr)
            raise
        finally:
            channel.close()

    def _run(self, stream: StreamChannel) -> None:
        reactor = WorkerReactor(
            stream, self.graph,
            pid=os.getpid(), host=socket.gethostname(),
            unit_hook=self._unit_hook,
        )
        self.reactor = reactor
        try:
            reactor.hello()
        except ChannelClosed:
            # Reset before registering: the master's listener shut down
            # under a queued connect, so the job is already over.
            return

        inbox: queue.Queue = queue.Queue()

        def _read_loop() -> None:
            while True:
                try:
                    msg = stream.recv()
                except ChannelClosed:  # torn frame or socket teardown
                    inbox.put(None)
                    return
                inbox.put(msg)
                if msg is None:
                    return

        reader = threading.Thread(
            target=_read_loop, name="cluster-worker-reader", daemon=True
        )
        reader.start()

        try:
            dry = True
            while True:
                action = self._drain_inbox(inbox, reactor, block=dry)
                if action == "stop":
                    reactor.finish(time.monotonic())
                    return
                if action == "lost":
                    return
                reactor.on_tick(time.monotonic())
                dry = reactor.mine_step(time.monotonic()) is None
        finally:
            reactor.cleanup()

    def _drain_inbox(
        self, inbox: queue.Queue, reactor: WorkerReactor, block: bool
    ) -> str:
        """Apply every queued master message; returns 'ok'/'stop'/'lost'.

        With `block` (the last step found nothing to pick), waits for the
        first message until the next heartbeat deadline, so a dry worker
        costs no CPU yet still heartbeats on time.
        """
        while True:
            try:
                if block:
                    timeout = max(
                        0.005, reactor.next_heartbeat - time.monotonic()
                    ) if reactor.started else 0.05
                    msg = inbox.get(timeout=timeout)
                else:
                    msg = inbox.get_nowait()
            except queue.Empty:
                return "ok"
            block = False
            action = reactor.on_message(msg, time.monotonic())
            if action != "ok":
                return action
