"""Wire protocol of the distributed cluster runtime.

Every message between the master and a worker travels as one
length-framed frame on a TCP stream::

    +---------+---------+------------------+-----------------+
    | magic   | version | payload length   | pickled message |
    | 4 bytes | <H      | <Q               | length bytes    |
    +---------+---------+------------------+-----------------+

The framing discipline is the same truncation-tolerant one as
:class:`repro.gthinker.spill.SpillFileList`: a peer that died mid-write
leaves a short read, which :meth:`MessageStream.recv` reports as a dead
connection (``None``) with a warning — never as an attempt to unpickle
a partial stream. A *complete* frame that fails validation (bad magic,
unknown version, payload that is not a known message type) raises
:class:`ProtocolError`, because silently dropping well-framed garbage
would hide a real incompatibility.

Messages are plain frozen dataclasses, picklable by construction. Tasks
ride inside them pre-encoded (``Task.encode()`` blobs) so the cluster
reuses exactly the spill/steal serialization format, and a batch can be
forwarded by the master without a decode/re-encode round trip.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import warnings
from dataclasses import dataclass

from ..config import EngineConfig
from ..metrics import EngineMetrics

#: Frame magic: G-Thinker CLuster.
MAGIC = b"GTCL"
#: Protocol version; bump on any incompatible message change.
#: v2: StatusRequest/StatusReply (live-progress query, repro.gthinker.obs).
#: v3: distributed vertex store — Welcome ships one partition
#:     (table_blob/partition_id/num_partitions/partition_strategy, the
#:     full-graph graph_blob is gone) and workers pull non-owned
#:     adjacency on demand via VertexRequest/VertexReply.
#: v4: the fields no reader used are gone — Heartbeat.active,
#:     ResultBatch.active and Goodbye.stats_blob (Goodbye.metrics
#:     already carries the worker's mining stats).
#: v5: ProgressReport carries only tasks_executed, the one field the
#:     master's status snapshot reads.
VERSION = 5
_HEADER = struct.Struct("<4sHQ")

#: Refuse frames larger than this (64 GiB): a corrupt length header must
#: not turn into an attempted multi-terabyte allocation.
MAX_FRAME_BYTES = 64 << 30


class ProtocolError(RuntimeError):
    """A complete but invalid frame (bad magic/version/message type)."""


# -- message vocabulary -----------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Worker → master: registration."""

    pid: int
    host: str
    #: True when the worker holds no graph data and needs the master to
    #: ship its partition's vertex table in the Welcome (the normal
    #: mode). False is the warm start: the worker pre-loaded the whole
    #: graph locally (``cluster-worker --graph``) and serves every read
    #: from it, so no table is shipped and no vertex fetches happen.
    needs_graph: bool = True


@dataclass(frozen=True)
class Welcome:
    """Master → worker: registration accepted; the job's parameters.

    v3: the master never ships the whole graph. A cold-start worker
    receives exactly its partition of the distributed vertex store and
    resolves non-owned vertices on demand (VertexRequest/VertexReply)
    into its bounded remote vertex cache.
    """

    worker_id: int
    config: EngineConfig
    #: Pickled application instance (checked picklable by the master
    #: before any worker starts).
    app_blob: bytes
    #: Pickled ``{vertex: (neighbor, ...)}`` dict — the adjacency
    #: entries of this worker's partition — or None when the worker
    #: said needs_graph=False (warm start from a local graph copy).
    table_blob: bytes | None
    #: Which partition this worker owns and how many exist in total
    #: (fixed at job start; rejoining workers reuse partition ids).
    partition_id: int = 0
    num_partitions: int = 1
    #: Partitioning strategy name (EngineConfig.partition). Under
    #: 'hash' a worker can prove a vertex it owns-but-lacks does not
    #: exist and skip the fetch round trip.
    partition_strategy: str = "hash"
    #: Whether the worker should record + forward scheduler trace events.
    trace: bool = False


@dataclass(frozen=True)
class SpawnRange:
    """Master → worker: one leased chunk of the spawn-vertex range."""

    work_id: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class TaskBatch:
    """Master → worker: one leased batch of encoded tasks.

    `origin` records why the batch exists ('steal' for a forwarded
    steal grant, 'remainder' for re-leased decomposition remainders) —
    observability only, the worker treats both identically.
    """

    work_id: int
    tasks: tuple[bytes, ...]
    origin: str = "steal"


@dataclass(frozen=True)
class ResultBatch:
    """Worker → master: mined output plus work-unit acknowledgements.

    `completed` lists the work ids the worker has fully drained (its
    local scheduler went idle with those units open). `remainders` are
    encoded big decomposition remainders handed back for
    master-coordinated redistribution. `events` are forwarded trace
    tuples ``(kind, task_id, thread, detail)``.
    """

    worker_id: int
    completed: tuple[int, ...] = ()
    candidates: tuple[frozenset[int], ...] = ()
    remainders: tuple[bytes, ...] = ()
    events: tuple[tuple[str, int, int, str], ...] = ()


@dataclass(frozen=True)
class StealRequest:
    """Master → donor worker: give up to `count` big tasks."""

    request_id: int
    count: int


@dataclass(frozen=True)
class StealGrant:
    """Donor worker → master: the granted big tasks (possibly none)."""

    request_id: int
    worker_id: int
    tasks: tuple[bytes, ...]


@dataclass(frozen=True)
class VertexRequest:
    """Worker → master: fetch adjacency lists the worker does not own.

    Sent when a task's pull set (or a spawn vertex) is outside the
    worker's partition and missing from its remote vertex cache. The
    master owns the full graph and answers from it; requests are
    stateless on the master side, so a duplicated frame is harmlessly
    re-served and the worker drops the duplicate reply by request_id.
    """

    worker_id: int
    request_id: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class VertexReply:
    """Master → worker: the requested adjacency entries.

    One ``(vertex, (neighbor, ...))`` pair per requested vertex, in
    request order; a vertex absent from the graph resolves to an empty
    neighbor tuple.
    """

    request_id: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Heartbeat:
    """Worker → master: liveness + the stealing planner's input."""

    worker_id: int
    pending_big: int


@dataclass(frozen=True)
class ProgressReport:
    """Worker → master: periodic progress (tasks executed so far)."""

    worker_id: int
    tasks_executed: int


@dataclass(frozen=True)
class StatusRequest:
    """Any peer → master: ask for one live-progress snapshot.

    Served before registration, so an observer (``repro cluster-status``,
    the launcher's ``--progress`` poller) can connect, send this one
    message, read the :class:`StatusReply`, and disconnect without ever
    becoming a worker.
    """


@dataclass(frozen=True)
class StatusReply:
    """Master → requester: the job's progress counters right now.

    Plain fields mirroring ``repro.gthinker.obs.ProgressSnapshot``
    (the protocol module stays import-light; obs converts the reply
    back into a snapshot). ``tasks_pending``/``tasks_leased`` count
    master-side work units; ``tasks_done`` counts executed tasks as
    reported by workers.
    """

    wall_seconds: float
    tasks_pending: int
    tasks_leased: int
    tasks_done: int
    candidates: int
    workers_alive: int
    workers_died: int = 0


@dataclass(frozen=True)
class Shutdown:
    """Master → worker: the job is complete; flush and say Goodbye."""

    reason: str = "job complete"


@dataclass(frozen=True)
class Goodbye:
    """Worker → master: final metrics (mining stats included), then
    disconnect."""

    worker_id: int
    metrics: EngineMetrics


MESSAGE_TYPES = (
    Hello,
    Welcome,
    SpawnRange,
    TaskBatch,
    ResultBatch,
    StealRequest,
    StealGrant,
    VertexRequest,
    VertexReply,
    Heartbeat,
    ProgressReport,
    StatusRequest,
    StatusReply,
    Shutdown,
    Goodbye,
)


# -- framing ----------------------------------------------------------------


def encode_frame(message) -> bytes:
    """Serialize one message into a self-delimiting frame."""
    if not isinstance(message, MESSAGE_TYPES):
        raise ProtocolError(
            f"cannot send {type(message).__name__}: not a protocol message"
        )
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, VERSION, len(payload)) + payload


def decode_payload(payload: bytes):
    """Unpickle + validate one frame payload."""
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, MESSAGE_TYPES):
        raise ProtocolError(
            f"frame decoded to {type(message).__name__}, not a protocol message"
        )
    return message


class MessageStream:
    """One framed, bidirectional message channel over a connected socket.

    `send` is lock-guarded so a mining loop and a heartbeat timer may
    share the stream; `recv` must only ever be called from one thread
    (each side dedicates a reader thread or loop to it).
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_buf = b""
        self._closed = False

    @property
    def peer(self) -> str:
        try:
            name = self._sock.getpeername()
        except OSError:
            return "<disconnected>"
        if isinstance(name, tuple) and len(name) >= 2:
            return f"{name[0]}:{name[1]}"
        return str(name) or "<unnamed>"  # AF_UNIX socketpairs are nameless

    def send(self, message) -> None:
        frame = encode_frame(message)
        with self._send_lock:
            self._sock.sendall(frame)

    def _read_exact(self, n: int) -> bytes | None:
        """Read exactly n bytes; None on clean EOF at a frame boundary,
        a short buffer on mid-frame EOF."""
        while len(self._recv_buf) < n:
            try:
                chunk = self._sock.recv(min(1 << 20, n - len(self._recv_buf)))
            except OSError:
                chunk = b""
            if not chunk:
                if not self._recv_buf:
                    return None
                short, self._recv_buf = self._recv_buf, b""
                return short
            self._recv_buf += chunk
        out, self._recv_buf = self._recv_buf[:n], self._recv_buf[n:]
        return out

    def recv(self):
        """Receive one message; None when the peer is gone.

        Mirrors `SpillFileList.load_batch`: a frame truncated by a dying
        peer (short header or short payload) is reported as a dead
        connection with a warning, while a complete frame that fails
        validation raises ProtocolError. A frame cut short by this side's
        own close() (another thread tearing the stream down) is no peer's
        death and returns None quietly.
        """
        header = self._read_exact(_HEADER.size)
        if header is None:
            return None
        if len(header) < _HEADER.size:
            if not self._closed:
                warnings.warn(
                    f"peer {self.peer} died mid-frame (truncated header, "
                    f"{len(header)}/{_HEADER.size} bytes); treating as "
                    f"disconnect",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        magic, version, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ProtocolError(f"bad frame magic {magic!r} from {self.peer}")
        if version != VERSION:
            raise ProtocolError(
                f"peer {self.peer} speaks protocol version {version}, "
                f"this runtime speaks {VERSION}"
            )
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame from {self.peer} claims {length} bytes "
                f"(> {MAX_FRAME_BYTES}); refusing"
            )
        payload = self._read_exact(length)
        if payload is None or len(payload) < length:
            if not self._closed:
                got = 0 if payload is None else len(payload)
                warnings.warn(
                    f"peer {self.peer} died mid-frame (truncated payload, "
                    f"{got}/{length} bytes); treating as disconnect",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        return decode_payload(payload)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
