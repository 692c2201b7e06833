"""SimNet: a deterministic in-memory network on a virtual clock.

One seeded RNG, one event heap, zero threads. :class:`SimChannel`
implements the :class:`repro.gthinker.runtime.Channel` protocol, so the
cluster reactors run over it unchanged; :class:`SimNet` owns virtual
time and decides — per frame, from the link's :class:`~.plan.
LinkFaults` — when (and whether, and how often) each frame arrives.

Semantics (see :mod:`.plan` for the rationale):

* **delivery** — each frame is scheduled at ``now + latency +
  U(0, jitter)``; unless the link enables ``reorder``, arrival times
  are clamped per direction so delivery order matches send order
  (TCP's in-order guarantee).
* **partitions** — a frame sent while the link is inside a partition
  window stalls until the window heals, then delivers (the retransmit
  model: TCP loses no data to a transient partition, only time).
* **drop** — a dropped frame *tears the link*: both endpoints get EOF
  after their already-scheduled frames. TCP never silently drops one
  frame mid-stream; a reset is the only honest spelling.
* **duplicate** — the frame is delivered a second time a little later
  (exempt frames — the handshake — are controlled by ``dup_exempt``).
* **close** — closing an endpoint schedules EOF (``None``) to its
  peer, exactly like a closed socket; sends on a closed or torn
  channel raise :class:`~repro.gthinker.runtime.ChannelClosed`.
* **wedge** — a wedged endpoint stops consuming: frames queue up
  (like an unread socket buffer) and are replayed in order on
  unwedge.

Every action appends one line to :attr:`SimNet.log`. The log is pure
virtual-time data — no wall clock, no object ids — so identical seed +
plan + driver behaviour reproduces it byte-for-byte; the fuzz CLI
leans on that for replay debugging, and a mismatch is itself a
determinism failure.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable

from ..runtime import ChannelClosed
from .plan import LinkFaults

__all__ = ["SimChannel", "SimLink", "SimNet"]


class SimChannel:
    """One endpoint of a simulated link (implements runtime.Channel)."""

    def __init__(self, net: "SimNet", link: "SimLink", name: str):
        self._net = net
        self.link = link
        self.name = name
        self._inbox: list[Any] = []
        self._closed = False
        #: Set once EOF (None) has been delivered: the reader thread of
        #: the real transport would have exited, so later frames are
        #: dead-dropped rather than delivered.
        self.eof_delivered = False
        #: Frames held while the endpoint is wedged, in arrival order.
        self.stalled: list[Any] = []
        self.wedged = False
        #: Delivery callback: ``handler(channel)`` is invoked after a
        #: frame lands in the inbox; it normally calls :meth:`recv`.
        self.handler: Callable[["SimChannel"], None] | None = None

    @property
    def peer_endpoint(self) -> "SimChannel":
        a, b = self.link.endpoints
        return b if self is a else a

    @property
    def peer(self) -> str:
        return self.peer_endpoint.name

    # -- Channel protocol --------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: Any) -> None:
        self._net.transmit(self, message)

    def recv(self) -> Any:
        """Pop the next delivered frame (virtual recv never blocks)."""
        if self._inbox:
            msg = self._inbox.pop(0)
            if msg is None:
                self.close()
            return msg
        if self._closed:
            raise ChannelClosed("channel already closed")
        raise RuntimeError(
            f"recv on {self.name} with nothing delivered: a virtual-time "
            f"recv cannot block; drive deliveries through SimNet.step()"
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._net.on_close(self)


class SimLink:
    """One bidirectional master↔worker connection."""

    def __init__(self, name: str, faults: LinkFaults,
                 partitions: tuple[tuple[float, float], ...] = ()):
        self.name = name
        self.faults = faults
        #: (start, end) windows during which frames stall (both ways).
        self.partitions = partitions
        self.cut = False
        self.endpoints: tuple[SimChannel, SimChannel] = ()  # set by SimNet
        #: Per-direction latest scheduled arrival, for the FIFO clamp.
        self.last_arrival: dict[str, float] = {}


class SimNet:
    """The virtual-time event loop and fault-injecting transport."""

    def __init__(
        self,
        seed: int,
        dup_exempt: Callable[[Any], bool] | None = None,
        fetch_frames: Callable[[Any], bool] | None = None,
    ):
        self.rng = random.Random(seed)
        self.now = 0.0
        self.events_fired = 0
        #: The deterministic run journal (one line per action).
        self.log: list[str] = []
        self._dup_exempt = dup_exempt or (lambda _msg: False)
        #: Frames the link's fetch_* fault knobs apply to (the vertex
        #: fetch traffic; see plan.LinkFaults).
        self._fetch_frames = fetch_frames or (lambda _msg: False)
        self._heap: list[tuple[float, int, tuple]] = []
        self._seq = itertools.count()

    # -- topology ----------------------------------------------------------

    def link(
        self,
        name: str,
        faults: LinkFaults | None = None,
        partitions: tuple[tuple[float, float], ...] = (),
    ) -> tuple[SimChannel, SimChannel]:
        """Create one connection; returns its (a, b) endpoints."""
        link = SimLink(name, faults or LinkFaults(), partitions)
        a = SimChannel(self, link, f"{name}.a")
        b = SimChannel(self, link, f"{name}.b")
        link.endpoints = (a, b)
        return a, b

    # -- scheduling --------------------------------------------------------

    def _push(self, at: float, entry: tuple) -> None:
        heapq.heappush(self._heap, (at, next(self._seq), entry))

    def call_at(self, at: float, label: str, fn: Callable[[], None]) -> None:
        """Schedule a timer: `fn` runs at virtual time `at`."""
        self._push(max(at, self.now), ("timer", label, fn))

    def pending(self) -> int:
        return len(self._heap)

    # -- transport ---------------------------------------------------------

    def _arrival(self, src: SimChannel, base_delay: float) -> float:
        """Earliest-arrival time for a frame sent now on src's link."""
        link, faults = src.link, src.link.faults
        at = self.now + base_delay
        if faults.jitter:
            at += self.rng.uniform(0.0, faults.jitter)
        for start, end in link.partitions:
            if start <= self.now < end:
                at = max(at, end + faults.latency)
        if not faults.reorder:
            direction = src.name
            at = max(at, link.last_arrival.get(direction, 0.0))
            link.last_arrival[direction] = at
        return at

    def transmit(self, src: SimChannel, message: Any) -> None:
        if src.closed:
            raise ChannelClosed("channel already closed")
        link = src.link
        dst = src.peer_endpoint
        if link.cut or dst.closed:
            raise ChannelClosed(f"peer gone on {link.name}")
        faults = link.faults
        fetch = self._fetch_frames(message)
        drop_rate = faults.drop_rate + (faults.fetch_drop_rate if fetch else 0.0)
        if drop_rate and self.rng.random() < drop_rate:
            # A dropped frame is a torn connection: EOF both ways, after
            # whatever was already in flight (FIFO clamp applies).
            link.cut = True
            self.log.append(
                f"{self.now:.6f} tear {link.name} "
                f"(dropped {_frame_name(message)} from {src.name})"
            )
            self._push(self._arrival(src, faults.latency), ("deliver", dst, None, "eof"))
            self._push(self._arrival(dst, faults.latency), ("deliver", src, None, "eof"))
            return
        latency = faults.latency + (faults.fetch_latency if fetch else 0.0)
        at = self._arrival(src, latency)
        self._push(at, ("deliver", dst, message, ""))
        dup_rate = faults.dup_rate + (faults.fetch_dup_rate if fetch else 0.0)
        if (
            dup_rate
            and message is not None
            and not self._dup_exempt(message)
            and self.rng.random() < dup_rate
        ):
            self._push(
                self._arrival(src, 2 * latency),
                ("deliver", dst, message, "dup"),
            )

    def on_close(self, endpoint: SimChannel) -> None:
        """Endpoint closed: its peer sees EOF, like a closed socket."""
        peer = endpoint.peer_endpoint
        if peer.closed or endpoint.link.cut:
            return
        faults = endpoint.link.faults
        self._push(
            self._arrival(endpoint, faults.latency),
            ("deliver", peer, None, "eof"),
        )

    # -- wedging -----------------------------------------------------------

    def wedge(self, endpoint: SimChannel) -> None:
        endpoint.wedged = True
        self.log.append(f"{self.now:.6f} wedge {endpoint.name}")

    def unwedge(self, endpoint: SimChannel) -> None:
        if not endpoint.wedged:
            return
        endpoint.wedged = False
        self.log.append(
            f"{self.now:.6f} unwedge {endpoint.name} "
            f"(replaying {len(endpoint.stalled)})"
        )
        stalled, endpoint.stalled = endpoint.stalled, []
        for i, msg in enumerate(stalled):
            # Replay in order, just after now (an unfrozen process reads
            # its whole socket buffer at once).
            self._push(self.now + (i + 1) * 1e-6, ("deliver", endpoint, msg, "replay"))

    # -- the event loop ----------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; False when the heap is empty."""
        if not self._heap:
            return False
        at, _seq, entry = heapq.heappop(self._heap)
        self.now = max(self.now, at)
        self.events_fired += 1
        kind = entry[0]
        if kind == "timer":
            _, label, fn = entry
            self.log.append(f"{self.now:.6f} timer {label}")
            fn()
            return True
        _, dst, msg, note = entry
        tag = f" {note}" if note else ""
        if dst.closed or dst.eof_delivered:
            self.log.append(
                f"{self.now:.6f} dead_drop {dst.name} {_frame_name(msg)}{tag}"
            )
            return True
        if dst.wedged:
            dst.stalled.append(msg)
            self.log.append(
                f"{self.now:.6f} stall {dst.name} {_frame_name(msg)}{tag}"
            )
            return True
        if msg is None:
            dst.eof_delivered = True
        dst._inbox.append(msg)
        self.log.append(
            f"{self.now:.6f} deliver {dst.name} {_frame_name(msg)}{tag}"
        )
        if dst.handler is not None:
            dst.handler(dst)
        return True


def _frame_name(msg: Any) -> str:
    return "EOF" if msg is None else type(msg).__name__
