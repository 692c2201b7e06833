"""Result-file persistence and streaming postprocessing.

The paper's system appends candidate quasi-cliques to a *result file*
as tasks emit them, and runs maximality postprocessing as a separate
phase (their released code even ships without it). These helpers make
that workflow concrete: append-only writers usable from concurrent
sinks, a reader, and a file-to-file postprocess that deduplicates and
removes non-maximal candidates.

Format: one vertex set per line, space-separated sorted IDs; `#` lines
are comments. Stable across runs, diff-friendly, and identical to the
CLI's --output format.

Crash-safety contract (the checkpoint runner,
:func:`repro.service.runner.run_checkpointed`, relies on it):

* :func:`write_results` is atomic (:func:`write_text_atomic`, the one
  small-file writer) — it writes a temp file in the same directory,
  fsyncs, then ``os.replace``s it over the destination, so readers
  never observe a half-written file;
* :meth:`FileResultSink.flush` fsyncs, so flushed candidates survive a
  ``kill -9`` (or power loss) of the writing process;
* :func:`read_results` tolerates a crash-truncated *trailing* line
  (one cut mid-write, recognizable by the missing final newline) with
  a :class:`RuntimeWarning` instead of raising — the same policy the
  spill files apply to batches torn by a dying worker — and append
  mode drops such a torn tail before writing, so a resumed run never
  splices new candidates onto half of an old line.

A checkpoint directory pairs such a result file (``candidates.txt``)
with a journal of finished spawn roots (``roots.journal``, one ID per
line); :func:`load_checkpoint` reads both back.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

from .postprocess import remove_non_maximal


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace the file at `path` with `text`, atomically and durably.

    The text lands in ``<path>.tmp.<pid>`` first and is fsynced before
    an ``os.replace`` over ``path``, so a crash leaves either the old
    file or the complete new one, never a torn mix. A write that raises
    removes its temp file and leaves the old file as it was.
    """
    dest = os.fspath(path)
    tmp = f"{dest}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_results(
    results: Iterable[frozenset[int]],
    path: str | os.PathLike,
    header: str | None = None,
) -> int:
    """Write vertex sets one per line (size-descending), atomically;
    returns the count."""
    ordered = sorted(set(results), key=lambda s: (-len(s), sorted(s)))
    lines = [f"# {line}\n" for line in (header or "").splitlines()]
    lines += [" ".join(str(v) for v in sorted(s)) + "\n" for s in ordered]
    write_text_atomic(path, "".join(lines))
    return len(ordered)


def read_results(path: str | os.PathLike) -> set[frozenset[int]]:
    """Read a result file back into a set of frozensets.

    A trailing line without a final newline is a crash-truncated write
    (every writer here terminates lines atomically-in-order); it is
    skipped with a :class:`RuntimeWarning` rather than parsed, since
    half a line can decode to a *different* valid vertex set.
    """
    with open(path) as f:
        text = f.read()
    lines = text.splitlines()
    torn_tail = bool(text) and not text.endswith("\n")
    out: set[frozenset[int]] = set()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if torn_tail and i == len(lines) - 1:
            warnings.warn(
                f"result file {os.fspath(path)}: ignoring crash-truncated "
                f"trailing line {line!r} (no final newline)",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        out.add(frozenset(int(tok) for tok in line.split()))
    return out


def postprocess_file(
    src: str | os.PathLike, dst: str | os.PathLike
) -> tuple[int, int]:
    """Maximality-filter a result file; returns (#read, #kept)."""
    candidates = read_results(src)
    kept = remove_non_maximal(candidates)
    write_results(kept, dst, header=f"postprocessed from {os.fspath(src)}")
    return len(candidates), len(kept)


@dataclass
class CheckpointState:
    """What a restart learns from disk."""

    completed_roots: set[int] = field(default_factory=set)
    candidates: set[frozenset[int]] = field(default_factory=set)


def load_checkpoint(results_path: str, journal_path: str) -> CheckpointState:
    """Read a checkpoint's journaled roots and persisted candidates.

    Missing files mean an empty checkpoint (a fresh run). A journal
    line torn by a kill mid-write (``12\\n3`` where ``3`` began ``37``)
    is truncated away first: it is not a finished root, and the
    runner's next append must not splice onto it.
    """
    state = CheckpointState()
    _drop_torn_tail(journal_path)
    if os.path.exists(journal_path):
        with open(journal_path) as f:
            for line in f:
                line = line.strip()
                if line:
                    state.completed_roots.add(int(line))
    if os.path.exists(results_path):
        state.candidates = read_results(results_path)
    return state


def _drop_torn_tail(path: str) -> None:
    """Truncate `path` back to its last complete line (no-op when clean).

    Append-mode writers call this before opening: a predecessor killed
    mid-write leaves half a line, and appending after it would splice
    two vertex sets into one bogus line.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size == 0:
        return
    with open(path, "rb+") as f:
        data = f.read()
        if data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line survives
        f.truncate(keep)


class FileResultSink:
    """Append-as-you-go sink writing candidates to a result file.

    The paper's "Append S to the result file" made literal: emissions
    are flushed immediately so a killed job keeps everything it found.
    Thread-safe; also deduplicates in memory like the standard sink.

    ``mode='a'`` re-opens an existing file for appending (repairing a
    crash-torn trailing line first); ``seen`` pre-seeds the in-memory
    dedup set, e.g. with candidates recovered from a checkpoint.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        mode: str = "w",
        seen: Iterable[frozenset[int]] | None = None,
    ):
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self._path = os.fspath(path)
        self._lock = threading.Lock()
        self._seen: set[frozenset[int]] = set(seen) if seen is not None else set()
        if mode == "a":
            _drop_torn_tail(self._path)
        self._file = open(self._path, mode)

    def emit(self, vertices: Iterable[int]) -> None:
        fs = frozenset(vertices)
        with self._lock:
            if fs in self._seen:
                return
            self._seen.add(fs)
            self._file.write(" ".join(str(v) for v in sorted(fs)) + "\n")
            self._file.flush()

    def flush(self) -> None:
        """Flush *and fsync*: everything emitted so far survives kill -9."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                os.fsync(self._file.fileno())

    def results(self) -> set[frozenset[int]]:
        with self._lock:
            return set(self._seen)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "FileResultSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
