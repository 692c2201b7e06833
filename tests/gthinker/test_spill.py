"""Tests for disk spilling and the bounded task queue."""

import os

import pytest

from repro.gthinker.spill import SpillableQueue, SpillFileList
from repro.gthinker.task import Task


def make_tasks(n, start=0):
    return [Task(task_id=i, root=i, iteration=3, s=[i], ext=[]) for i in range(start, start + n)]


class TestSpillFileList:
    def test_spill_and_load_round_trip(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        tasks = make_tasks(5)
        spill.spill(tasks)
        assert len(spill) == 1
        loaded = spill.load_batch()
        assert [t.task_id for t in loaded] == [0, 1, 2, 3, 4]
        assert len(spill) == 0

    def test_lifo_file_order(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        spill.spill(make_tasks(2, start=0))
        spill.spill(make_tasks(2, start=10))
        first = spill.load_batch()
        assert [t.task_id for t in first] == [10, 11]

    def test_files_deleted_after_load(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        path = spill.spill(make_tasks(3))
        assert os.path.exists(path)
        spill.load_batch()
        assert not os.path.exists(path)

    def test_empty_load(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        assert spill.load_batch() == []

    def test_byte_accounting(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        spill.spill(make_tasks(4))
        assert spill.bytes_written > 0
        assert spill.bytes_peak == spill.bytes_written
        assert spill.batches_spilled == 1

    def test_cleanup(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        p1 = spill.spill(make_tasks(2))
        p2 = spill.spill(make_tasks(2))
        spill.cleanup()
        assert not os.path.exists(p1) and not os.path.exists(p2)
        assert len(spill) == 0


class TestTruncatedSpillFiles:
    """A worker process killed mid-write leaves a short file behind; the
    refill path must skip it with a warning, not crash the engine."""

    def test_truncated_payload_skipped_next_file_loads(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        spill.spill(make_tasks(2, start=0))
        bad = spill.spill(make_tasks(2, start=10))
        with open(bad, "rb") as f:
            raw = f.read()
        with open(bad, "wb") as f:
            f.write(raw[:-5])  # header intact, payload short
        with pytest.warns(RuntimeWarning, match="truncated payload"):
            loaded = spill.load_batch()
        assert [t.task_id for t in loaded] == [0, 1]
        assert spill.batches_skipped == 1
        assert not os.path.exists(bad)

    def test_skip_warning_names_path_and_frame(self, tmp_path):
        """The skip warning must identify exactly which write was lost:
        the file path and its frame number in the spill list."""
        spill = SpillFileList(str(tmp_path), "test")
        spill.spill(make_tasks(2, start=0))
        bad = spill.spill(make_tasks(2, start=10))  # second write -> frame 2
        with open(bad, "wb") as f:
            f.write(b"\x00")
        with pytest.warns(RuntimeWarning) as caught:
            spill.load_batch()
        assert len(caught) == 1
        msg = str(caught[0].message)
        assert repr(bad) in msg
        assert "frame 2" in msg
        assert "'test'" in msg  # which spill list (L_big vs a thread's L_small)

    def test_frame_index_parsing(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        p1 = spill.spill(make_tasks(1))
        p2 = spill.spill(make_tasks(1))
        assert spill._frame_index(p1) == 1
        assert spill._frame_index(p2) == 2
        assert spill._frame_index("/elsewhere/not-a-spill-file") == -1

    def test_truncated_header_skipped(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        bad = spill.spill(make_tasks(2))
        with open(bad, "wb") as f:
            f.write(b"\x01\x02\x03")  # shorter than the length header
        with pytest.warns(RuntimeWarning, match="truncated header"):
            assert spill.load_batch() == []
        assert spill.batches_skipped == 1

    def test_vanished_file_skipped(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        bad = spill.spill(make_tasks(2))
        os.remove(bad)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert spill.load_batch() == []
        assert spill.batches_skipped == 1

    def test_all_truncated_returns_empty(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "test")
        for start in (0, 10, 20):
            bad = spill.spill(make_tasks(2, start=start))
            with open(bad, "wb") as f:
                f.write(b"")
        with pytest.warns(RuntimeWarning):
            assert spill.load_batch() == []
        assert spill.batches_skipped == 3
        assert len(spill) == 0

    def test_complete_but_corrupt_payload_raises(self, tmp_path):
        import struct

        spill = SpillFileList(str(tmp_path), "test")
        bad = spill.spill(make_tasks(2))
        garbage = b"\x80\x04definitely not a pickle stream"
        with open(bad, "wb") as f:
            f.write(struct.pack("<Q", len(garbage)))
            f.write(garbage)
        with pytest.raises(RuntimeError, match="corrupted"):
            spill.load_batch()

    def test_refill_from_spill_survives_truncation(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "q")
        q = SpillableQueue(4, 2, spill)
        for t in make_tasks(7):
            q.push(t)
        assert len(spill) == 2
        bad = spill._files[-1]  # newest batch, popped first by LIFO refill
        with open(bad, "wb") as f:
            f.write(b"\x00")
        while q.pop() is not None:
            pass
        with pytest.warns(RuntimeWarning):
            assert q.refill_from_spill() == 2
        assert spill.batches_skipped == 1


class TestSpillableQueue:
    def make_queue(self, tmp_path, capacity=4, batch=2):
        spill = SpillFileList(str(tmp_path), "q")
        return SpillableQueue(capacity, batch, spill), spill

    def test_fifo(self, tmp_path):
        q, _ = self.make_queue(tmp_path)
        for t in make_tasks(3):
            q.push(t)
        assert q.pop().task_id == 0
        assert q.pop().task_id == 1

    def test_overflow_spills_tail_batch(self, tmp_path):
        q, spill = self.make_queue(tmp_path, capacity=4, batch=2)
        for t in make_tasks(5):
            q.push(t)
        # Pushing the 5th spilled the tail batch {2, 3}; queue holds 0,1,4.
        assert len(q) == 3
        assert len(spill) == 1
        assert [q.pop().task_id for _ in range(3)] == [0, 1, 4]
        assert [t.task_id for t in spill.load_batch()] == [2, 3]

    def test_refill_from_spill(self, tmp_path):
        q, spill = self.make_queue(tmp_path, capacity=4, batch=2)
        for t in make_tasks(5):
            q.push(t)
        for _ in range(3):
            q.pop()
        assert q.needs_refill()
        assert q.refill_from_spill() == 2
        assert [q.pop().task_id for _ in range(2)] == [2, 3]

    def test_pop_batch_from_back(self, tmp_path):
        q, _ = self.make_queue(tmp_path, capacity=10, batch=2)
        for t in make_tasks(5):
            q.push(t)
        batch = q.pop_batch(2)
        assert [t.task_id for t in batch] == [3, 4]
        assert len(q) == 3

    def test_pending_estimate_counts_disk(self, tmp_path):
        q, spill = self.make_queue(tmp_path, capacity=4, batch=2)
        for t in make_tasks(6):
            q.push(t)
        # one spilled batch (2 tasks estimated) + in-memory tasks
        assert q.pending_estimate() == len(q) + 2

    def test_invalid_sizes(self, tmp_path):
        spill = SpillFileList(str(tmp_path), "bad")
        with pytest.raises(ValueError):
            SpillableQueue(1, 2, spill)
        with pytest.raises(ValueError):
            SpillableQueue(4, 0, spill)
