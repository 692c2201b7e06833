"""Disk spilling of task batches (paper Section 5, L_small / L_big).

When a bounded task queue overflows, a batch of C tasks from its tail
is serialized to one file on local disk; files are tracked in a list
(L_small per thread-set, L_big for the global queue) and reloaded in
LIFO file order when queues run low — batched both ways to stay
IO-efficient, exactly as the paper describes.
"""

from __future__ import annotations

import os
import struct
import tempfile
import pickle
import warnings

from .task import Task

#: Spill-file framing: an 8-byte payload-length header precedes the
#: pickled batch, so a file truncated by a writer that died mid-write
#: (worker process killed, disk full) is detectable without attempting
#: to unpickle a partial stream.
_HEADER = struct.Struct("<Q")


class SpillFileList:
    """A list of spill files plus byte accounting (one L_small / L_big)."""

    def __init__(self, spill_dir: str | None, name: str):
        self._dir = spill_dir or tempfile.mkdtemp(prefix=f"gthinker-{name}-")
        os.makedirs(self._dir, exist_ok=True)
        self._name = name
        self._files: list[str] = []
        self._counter = 0
        self.bytes_written = 0
        self.bytes_peak = 0
        self.batches_spilled = 0
        self.batches_loaded = 0
        self.batches_skipped = 0

    def __len__(self) -> int:
        return len(self._files)

    @property
    def live_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self._files if os.path.exists(p))

    def spill(self, tasks: list[Task]) -> str:
        """Write one batch to a new file; returns the path."""
        blob = pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL)
        self._counter += 1
        path = os.path.join(self._dir, f"{self._name}-{self._counter:08d}.tasks")
        with open(path, "wb") as f:
            f.write(_HEADER.pack(len(blob)))
            f.write(blob)
        self._files.append(path)
        self.bytes_written += len(blob)
        self.batches_spilled += 1
        self.bytes_peak = max(self.bytes_peak, self.bytes_written)
        return path

    def load_batch(self) -> list[Task]:
        """Pop the most recent readable spill file and return its tasks.

        Returns [] once no file is left. A *truncated* file — a writer
        (e.g. a worker process) died mid-write, so the payload is shorter
        than its length header claims, or the file vanished — is skipped
        with a warning and the next file is tried; a complete-but-corrupt
        payload still raises a RuntimeError naming the file, because
        losing queued tasks silently would silently lose mining results.
        """
        while self._files:
            path = self._files.pop()
            try:
                with open(path, "rb") as f:
                    raw = f.read()
            except OSError as exc:
                self._skip(path, f"unreadable ({exc})")
                continue
            if len(raw) < _HEADER.size:
                self._skip(path, f"truncated header ({len(raw)} bytes)")
                continue
            (length,) = _HEADER.unpack_from(raw)
            blob = raw[_HEADER.size :]
            if len(blob) != length:
                self._skip(path, f"truncated payload ({len(blob)}/{length} bytes)")
                continue
            try:
                tasks = pickle.loads(blob)
            except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
                raise RuntimeError(
                    f"spill file {path!r} is corrupted: {exc}"
                ) from exc
            if not isinstance(tasks, list) or not all(isinstance(t, Task) for t in tasks):
                raise RuntimeError(f"spill file {path!r} did not decode to a task batch")
            self.batches_loaded += 1
            os.remove(path)
            return tasks
        return []

    def _skip(self, path: str, reason: str) -> None:
        """Drop one unloadable spill file, loudly."""
        warnings.warn(
            f"skipping spill file {path!r} (frame {self._frame_index(path)} "
            f"of list {self._name!r}): {reason}; its task batch is lost "
            "(was the writer killed mid-write?)",
            RuntimeWarning,
            stacklevel=3,
        )
        self.batches_skipped += 1
        if os.path.exists(path):
            os.remove(path)

    def _frame_index(self, path: str) -> int:
        """Recover the 1-based spill frame number from a file's name.

        Filenames are ``{name}-{counter:08d}.tasks``; the counter makes
        a skip report actionable (which write, in order, was lost) even
        after the path itself is gone. Returns -1 for a foreign name.
        """
        stem, _, _ = os.path.basename(path).rpartition(".")
        _, _, counter = stem.rpartition("-")
        return int(counter) if counter.isdigit() else -1

    def pending_task_estimate(self, batch_size: int) -> int:
        """Rough count of on-disk tasks (files × batch size) for stealing plans."""
        return len(self) * batch_size

    def cleanup(self) -> None:
        files, self._files = self._files, []
        for path in files:
            if os.path.exists(path):
                os.remove(path)


class SpillableQueue:
    """Bounded FIFO task queue that spills tail batches to disk when full.

    push() appends at the back; when the queue holds `capacity` tasks,
    the back-most `batch_size` tasks are spilled first (newest work goes
    to disk, oldest stays hot — the paper's tail-spill rule). pop()
    takes from the front. refill() loads one spilled batch back when the
    queue is running low.
    """

    def __init__(
        self,
        capacity: int,
        batch_size: int,
        spill: SpillFileList,
    ):
        if batch_size < 1 or capacity < batch_size:
            raise ValueError("need capacity >= batch_size >= 1")
        self._items: list[Task] = []
        self._capacity = capacity
        self._batch = batch_size
        self._spill = spill

    def __len__(self) -> int:
        return len(self._items)

    @property
    def spill_list(self) -> SpillFileList:
        return self._spill

    @property
    def batch_size(self) -> int:
        return self._batch

    def push(self, task: Task) -> None:
        if len(self._items) >= self._capacity:
            batch = self._items[-self._batch :]
            del self._items[-self._batch :]
            self._spill.spill(batch)
        self._items.append(task)

    def pop(self) -> Task | None:
        return self._items.pop(0) if self._items else None

    def needs_refill(self) -> bool:
        return len(self._items) < self._batch

    def refill_from_spill(self) -> int:
        """Load one spilled batch back into the queue; returns #tasks."""
        batch = self._spill.load_batch()
        self._items[:0] = batch
        return len(batch)

    def pop_batch(self, count: int) -> list[Task]:
        """Remove up to `count` tasks from the back (stealing donor side)."""
        if count <= 0 or not self._items:
            return []
        taken = self._items[-count:]
        del self._items[-count:]
        return taken

    def push_batch(self, tasks: list[Task]) -> None:
        for t in tasks:
            self.push(t)

    def pending_estimate(self) -> int:
        """In-memory + on-disk task estimate (stealing planner input)."""
        return len(self._items) + self._spill.pending_task_estimate(self._batch)
