"""Wire-protocol tests: framing round-trips and truncation tolerance.

The framing discipline mirrors `SpillFileList`: a peer that died
mid-write must read as a *disconnect* (None + warning), never as an
unpickling attempt on a partial stream; a complete-but-invalid frame
must raise `ProtocolError` loudly.
"""

import pickle
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.gthinker.cluster.protocol import (
    MAGIC,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    VERSION,
    _HEADER,
    Goodbye,
    Heartbeat,
    Hello,
    MessageStream,
    ProgressReport,
    ProtocolError,
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
    decode_payload,
    encode_frame,
)
from repro.gthinker.config import EngineConfig
from repro.gthinker.metrics import EngineMetrics


def stream_pair():
    a, b = socket.socketpair()
    return MessageStream(a), MessageStream(b)


SAMPLE_MESSAGES = [
    Hello(pid=123, host="node-a", needs_graph=True),
    Welcome(
        worker_id=2,
        config=EngineConfig(backend="cluster"),
        app_blob=pickle.dumps({"app": True}),
        table_blob=pickle.dumps({0: (2, 4), 2: (0,)}),
        partition_id=2,
        num_partitions=4,
        partition_strategy="hash",
        trace=True,
    ),
    SpawnRange(work_id=7, vertices=(1, 2, 3)),
    VertexRequest(worker_id=1, request_id=3, vertices=(5, 9, 13)),
    VertexReply(request_id=3, entries=((5, (1, 9)), (9, (5,)), (13, ()))),
    ResultBatch(
        worker_id=1,
        completed=(7,),
        candidates=(frozenset({1, 2, 3}),),
        remainders=(b"blob",),
        events=(("spawn", 4, 0, "root=1"),),
    ),
    StealRequest(request_id=9, count=4),
    StealGrant(request_id=9, worker_id=0, tasks=(b"t1", b"t2")),
    Heartbeat(worker_id=0, pending_big=11),
    TaskBatch(work_id=8, tasks=(b"t3",), origin="remainder"),
    ProgressReport(worker_id=1, tasks_executed=5),
    StatusRequest(),
    StatusReply(
        wall_seconds=1.5, tasks_pending=4, tasks_leased=2, tasks_done=9,
        candidates=3, workers_alive=2, workers_died=1,
    ),
    Shutdown(reason="job complete"),
    Goodbye(worker_id=0, metrics=EngineMetrics()),
]

# The sample set exercises the whole vocabulary, so a new message type
# must be added here too.
assert {type(m) for m in SAMPLE_MESSAGES} == set(MESSAGE_TYPES)


class TestFraming:
    @pytest.mark.parametrize(
        "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message):
        left, right = stream_pair()
        try:
            left.send(message)
            assert right.recv() == message
        finally:
            left.close()
            right.close()

    def test_many_messages_one_stream(self):
        left, right = stream_pair()
        try:
            for message in SAMPLE_MESSAGES:
                left.send(message)
            for message in SAMPLE_MESSAGES:
                assert right.recv() == message
        finally:
            left.close()
            right.close()

    def test_non_message_refused_at_send(self):
        with pytest.raises(ProtocolError, match="not a protocol message"):
            encode_frame({"not": "a message"})


class TestTruncationTolerance:
    """A dying peer reads as a disconnect, exactly like a torn spill file."""

    def test_clean_eof_is_none(self):
        left, right = stream_pair()
        left.close()
        assert right.recv() is None
        right.close()

    def test_truncated_header_warns_and_disconnects(self):
        left, right = stream_pair()
        left._sock.sendall(MAGIC[:2])  # half a magic, then death
        left.close()
        with pytest.warns(RuntimeWarning, match="truncated header"):
            assert right.recv() is None
        right.close()

    def test_truncated_payload_warns_and_disconnects(self):
        left, right = stream_pair()
        frame = encode_frame(Heartbeat(worker_id=0, pending_big=5))
        left._sock.sendall(frame[:-3])  # all but the last 3 payload bytes
        left.close()
        with pytest.warns(RuntimeWarning, match="truncated payload"):
            assert right.recv() is None
        right.close()

    def test_own_close_mid_frame_is_quiet(self):
        """A master closing a channel at job end wakes its reader mid-frame;
        that is a local teardown, not a dying peer, so no warning."""
        left, right = stream_pair()
        frame = encode_frame(Heartbeat(worker_id=0, pending_big=5))
        left._sock.sendall(frame[:-3])  # the peer is alive, mid-write
        got: dict = {}

        def read():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got["msg"] = right.recv()
            got["warnings"] = [str(w.message) for w in caught]

        reader = threading.Thread(target=read)
        reader.start()
        time.sleep(0.05)  # let the reader block on the missing bytes
        right.close()
        reader.join(5.0)
        assert not reader.is_alive()
        assert got == {"msg": None, "warnings": []}
        left.close()


class TestInvalidFrames:
    """Complete frames that lie must raise, not limp along."""

    def send_raw(self, raw: bytes):
        left, right = stream_pair()
        left._sock.sendall(raw)
        left.close()
        return right

    def test_bad_magic(self):
        payload = pickle.dumps(Heartbeat(worker_id=0, pending_big=0))
        right = self.send_raw(_HEADER.pack(b"NOPE", VERSION, len(payload)) + payload)
        with pytest.raises(ProtocolError, match="bad frame magic"):
            right.recv()
        right.close()

    def test_version_mismatch(self):
        payload = pickle.dumps(Heartbeat(worker_id=0, pending_big=0))
        right = self.send_raw(
            _HEADER.pack(MAGIC, VERSION + 1, len(payload)) + payload
        )
        with pytest.raises(ProtocolError, match="protocol version"):
            right.recv()
        right.close()

    def test_oversized_length(self):
        right = self.send_raw(_HEADER.pack(MAGIC, VERSION, MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="refusing"):
            right.recv()
        right.close()

    def test_well_framed_garbage_payload(self):
        payload = pickle.dumps({"valid": "pickle, wrong type"})
        right = self.send_raw(_HEADER.pack(MAGIC, VERSION, len(payload)) + payload)
        with pytest.raises(ProtocolError, match="not a protocol message"):
            right.recv()
        right.close()

    def test_undecodable_payload(self):
        right = self.send_raw(_HEADER.pack(MAGIC, VERSION, 4) + b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="undecodable"):
            right.recv()
        right.close()

    def test_decode_payload_direct(self):
        message = Hello(pid=1, host="x")
        assert decode_payload(pickle.dumps(message)) == message
        with pytest.raises(ProtocolError):
            decode_payload(pickle.dumps([1, 2, 3]))


def test_header_layout_is_stable():
    """The on-wire header is part of the compatibility contract."""
    assert _HEADER.size == 4 + 2 + 8
    frame = encode_frame(Heartbeat(worker_id=1, pending_big=2))
    magic, version, length = struct.unpack_from("<4sHQ", frame)
    assert magic == MAGIC
    assert version == VERSION
    assert length == len(frame) - _HEADER.size
