"""Tests for result-file persistence and streaming postprocessing."""

import os

import pytest

from repro.core.miner import mine_maximal_quasicliques, mine_root
from repro.core.options import MiningJob
from repro.core.resultsio import (
    FileResultSink,
    load_checkpoint,
    postprocess_file,
    read_results,
    write_results,
    write_text_atomic,
)

from conftest import make_random_graph


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        results = {frozenset({3, 1, 2}), frozenset({7})}
        path = tmp_path / "res.txt"
        count = write_results(results, path, header="demo run")
        assert count == 2
        assert read_results(path) == results
        assert path.read_text().startswith("# demo run\n")

    def test_size_descending_order(self, tmp_path):
        results = {frozenset({1}), frozenset({1, 2, 3}), frozenset({4, 5})}
        path = tmp_path / "res.txt"
        write_results(results, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["1 2 3", "4 5", "1"]

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        assert write_results(set(), path) == 0
        assert read_results(path) == set()


class TestCrashSafety:
    def test_write_results_is_atomic(self, tmp_path):
        path = tmp_path / "res.txt"
        write_results({frozenset({1, 2})}, path)
        write_results({frozenset({3, 4, 5})}, path, header="second run")
        # No temp droppings, and the content is the complete second write.
        assert os.listdir(tmp_path) == ["res.txt"]
        assert read_results(path) == {frozenset({3, 4, 5})}

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "res.txt"
        write_results({frozenset({1, 2})}, path)

        def fsync_fails(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fsync_fails)
        with pytest.raises(OSError, match="disk full"):
            write_text_atomic(path, "3 4 5\n")
        with pytest.raises(OSError, match="disk full"):
            write_results({frozenset({3, 4, 5})}, path)
        assert os.listdir(tmp_path) == ["res.txt"]
        assert read_results(path) == {frozenset({1, 2})}

    def test_read_skips_truncated_trailing_line(self, tmp_path):
        path = tmp_path / "torn.txt"
        # A kill -9 mid-write cuts "1 2 34\n" down to "1 2 3" — which
        # still parses, but as a *different* vertex set.
        path.write_text("7 8 9\n1 2 3")
        with pytest.warns(RuntimeWarning, match="crash-truncated"):
            got = read_results(path)
        assert got == {frozenset({7, 8, 9})}

    def test_read_complete_file_warns_nothing(self, tmp_path):
        import warnings

        path = tmp_path / "clean.txt"
        path.write_text("7 8 9\n1 2 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_results(path) == {
                frozenset({7, 8, 9}),
                frozenset({1, 2, 3}),
            }

    def test_torn_file_with_single_partial_line(self, tmp_path):
        path = tmp_path / "torn.txt"
        path.write_text("1 2")
        with pytest.warns(RuntimeWarning):
            assert read_results(path) == set()

    def test_append_mode_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "resume.txt"
        path.write_text("7 8 9\n1 2 3")  # torn tail from a dead writer
        with FileResultSink(path, mode="a", seen={frozenset({7, 8, 9})}) as sink:
            sink.emit([4, 5, 6])
            sink.emit([7, 8, 9])  # deduped via the seed
        # The torn line is gone; no line ever splices old+new tokens.
        assert path.read_text() == "7 8 9\n4 5 6\n"
        assert read_results(path) == {frozenset({7, 8, 9}), frozenset({4, 5, 6})}

    def test_flush_fsyncs(self, tmp_path):
        path = tmp_path / "sync.txt"
        with FileResultSink(path) as sink:
            sink.emit([1, 2])
            sink.flush()  # must not raise; content durable on disk
            assert read_results(path) == {frozenset({1, 2})}

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            FileResultSink(tmp_path / "x.txt", mode="r")


class TestCheckpoint:
    def test_checkpoint_loader(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        results, journal = str(ckpt / "candidates.txt"), str(ckpt / "roots.journal")
        fresh = load_checkpoint(results, journal)
        assert fresh.completed_roots == set() and fresh.candidates == set()
        (ckpt / "roots.journal").write_text("1\n5\n9\n")
        (ckpt / "candidates.txt").write_text("1 2 3\n")
        state = load_checkpoint(results, journal)
        assert state.completed_roots == {1, 5, 9}
        assert state.candidates == {frozenset({1, 2, 3})}

    def test_torn_journal_tail_is_not_a_root(self, tmp_path):
        # A kill mid-write left "3" of "37": root 3 was never finished.
        journal = tmp_path / "roots.journal"
        journal.write_text("12\n3")
        state = load_checkpoint(str(tmp_path / "candidates.txt"), str(journal))
        assert state.completed_roots == {12}
        # The next append starts on a fresh line, not after the fragment.
        assert journal.read_text() == "12\n"


class TestPostprocessFile:
    def test_removes_non_maximal(self, tmp_path):
        src = tmp_path / "raw.txt"
        dst = tmp_path / "max.txt"
        write_results({frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({9})}, src)
        read, kept = postprocess_file(src, dst)
        assert (read, kept) == (3, 2)
        assert read_results(dst) == {frozenset({1, 2, 3}), frozenset({9})}


class TestFileSink:
    def test_streaming_dedup_and_flush(self, tmp_path):
        path = tmp_path / "stream.txt"
        with FileResultSink(path) as sink:
            sink.emit([2, 1])
            sink.emit([1, 2])  # duplicate
            sink.emit([5])
            assert len(sink) == 2
            # Flushed immediately: visible before close.
            assert len(read_results(path)) == 2
        assert read_results(path) == {frozenset({1, 2}), frozenset({5})}

    def test_usable_as_mining_sink(self, tmp_path):
        g = make_random_graph(10, 0.6, seed=44)
        path = tmp_path / "mine.txt"
        with FileResultSink(path) as sink:
            job = MiningJob(graph=g, gamma=0.75, min_size=3, sink=sink)
            for root in sorted(g.vertices()):
                ext = sorted(v for v in g.vertices() if v > root)
                mine_root(job, root, ext)
        on_disk = read_results(path)
        assert on_disk == sink.results()
        # The persisted candidates postprocess to the exact answer.
        dst = tmp_path / "max.txt"
        postprocess_file(path, dst)
        want = mine_maximal_quasicliques(g, 0.75, 3).maximal
        assert read_results(dst) == want
