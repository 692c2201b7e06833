"""Transport abstraction for the coordination control plane.

The control plane (:mod:`repro.gthinker.runtime`) never talks to a
transport directly — it sees a :class:`Channel`: something that can
``send`` a message, ``recv`` one, and die. Two implementations exist:

* :class:`StreamChannel` — the framed-pickle TCP stream
  (:class:`repro.gthinker.cluster.protocol.MessageStream`) the process
  and cluster backends run over, locally and across hosts;
* :class:`~repro.gthinker.sim.net.SimChannel` — the deterministic
  simulator's in-memory link, with the same failure contract.

The shared contract: one writer per channel, so a dead peer can
corrupt its own channel and nothing else. Every failure mode a peer
can inflict — clean EOF, torn frame, reset socket — surfaces as the
single :class:`ChannelClosed` exception, and the channel marks itself
closed, so supervision code has exactly one "this peer is gone" signal
to handle regardless of transport.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["Channel", "ChannelClosed", "StreamChannel"]


class ChannelClosed(Exception):
    """The peer is unreachable: EOF, torn frame, or reset transport."""


@runtime_checkable
class Channel(Protocol):
    """One coordination link to a single worker (one writer per side)."""

    def send(self, message: Any) -> None:
        """Ship a message to the peer; raises ChannelClosed if it is gone."""
        ...

    def recv(self) -> Any:
        """Block for the peer's next message; raises ChannelClosed on
        EOF or a torn frame (the channel is closed as a side effect)."""
        ...

    def close(self) -> None:
        """Tear down this side of the transport (idempotent)."""
        ...

    @property
    def closed(self) -> bool: ...


class StreamChannel:
    """Channel over one framed-pickle TCP stream."""

    def __init__(self, stream: Any):
        self._stream = stream
        self._closed = False

    @property
    def peer(self) -> str:
        return str(getattr(self._stream, "peer", "<unknown>"))

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: Any) -> None:
        if self._closed:
            raise ChannelClosed("channel already closed")
        try:
            self._stream.send(message)
        except OSError as exc:
            self.close()
            raise ChannelClosed(str(exc) or type(exc).__name__) from exc

    def recv(self) -> Any:
        """One framed message; None (clean shutdown) stays None, while a
        truncated or invalid frame raises ChannelClosed — both mean the
        peer's era is over, but only the latter is abnormal."""
        if self._closed:
            raise ChannelClosed("channel already closed")
        try:
            msg = self._stream.recv()
        except Exception as exc:  # ProtocolError or socket teardown
            self.close()
            raise ChannelClosed(str(exc) or type(exc).__name__) from exc
        if msg is None:
            self.close()
        return msg

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stream.close()
