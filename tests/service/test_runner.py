"""run_checkpointed: oracle parity at every chunk size, resume, backends."""

import pytest

from repro.core.miner import mine_maximal_quasicliques
from repro.graph.adjacency import Graph
from repro.gthinker.config import EngineConfig
from repro.service.runner import run_checkpointed

from conftest import make_random_graph


class TestOracleParity:
    @pytest.mark.parametrize("chunk_roots", [1, 3, 100])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_serial_oracle(self, tmp_path, seed, chunk_roots):
        g = make_random_graph(12, 0.5, seed=seed)
        out = run_checkpointed(
            g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=chunk_roots
        )
        want = mine_maximal_quasicliques(g, 0.75, 3).maximal
        assert out.completed
        assert out.maximal == want
        assert out.roots_done == out.roots_total
        assert out.roots_recovered == 0

    def test_min_size_one_keeps_isolated_vertices(self, tmp_path):
        g = Graph.from_edges([(0, 1)], vertices=range(3))
        out = run_checkpointed(g, 1.0, 1, work_dir=str(tmp_path), chunk_roots=1)
        assert out.maximal == {frozenset({0, 1}), frozenset({2})}

    def test_threaded_backend(self, tmp_path):
        g = make_random_graph(14, 0.5, seed=4)
        config = EngineConfig.from_payload(
            {"backend": "threaded", "threads_per_machine": 2}
        )
        out = run_checkpointed(
            g, 0.75, 3, config, work_dir=str(tmp_path), chunk_roots=4
        )
        assert out.maximal == mine_maximal_quasicliques(g, 0.75, 3).maximal


    def test_simulated_backend(self, tmp_path):
        g = make_random_graph(14, 0.5, seed=5)
        config = EngineConfig(backend="simulated", num_machines=2, threads_per_machine=2)
        out = run_checkpointed(
            g, 0.75, 3, config, work_dir=str(tmp_path), chunk_roots=4
        )
        assert out.maximal == mine_maximal_quasicliques(g, 0.75, 3).maximal


class TestResume:
    def test_stop_then_resume(self, tmp_path):
        g = make_random_graph(16, 0.5, seed=3)
        calls = {"n": 0}

        def stop_after_two_chunks():
            calls["n"] += 1
            return calls["n"] > 2

        first = run_checkpointed(
            g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2,
            should_stop=stop_after_two_chunks,
        )
        assert not first.completed
        assert 0 < first.roots_done < first.roots_total
        assert first.maximal == set()  # partial runs never claim results

        second = run_checkpointed(
            g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2
        )
        assert second.completed
        assert second.roots_recovered == first.roots_done
        assert second.roots_done == second.roots_total
        assert second.maximal == mine_maximal_quasicliques(g, 0.75, 3).maximal

    def test_crash_mid_chunk_then_resume(self, tmp_path, monkeypatch):
        import repro.service.runner as runner_mod

        g = make_random_graph(14, 0.5, seed=10)

        class Boom(RuntimeError):
            pass

        real = runner_mod.spawn_subgraph
        calls = {"n": 0}

        def flaky(base, root, k):
            calls["n"] += 1
            if calls["n"] > 3:  # second root of the second chunk
                raise Boom()
            return real(base, root, k)

        monkeypatch.setattr(runner_mod, "spawn_subgraph", flaky)
        with pytest.raises(Boom):
            run_checkpointed(g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2)
        journaled = (tmp_path / "roots.journal").read_text().split()
        assert len(journaled) == 2  # the torn chunk was never journaled

        monkeypatch.setattr(runner_mod, "spawn_subgraph", real)
        resumed = run_checkpointed(g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2)
        assert resumed.completed
        assert resumed.roots_recovered == 2
        assert resumed.maximal == mine_maximal_quasicliques(g, 0.75, 3).maximal

    def test_rerun_after_completion_is_noop(self, tmp_path):
        g = make_random_graph(12, 0.5, seed=6)
        first = run_checkpointed(g, 0.75, 3, work_dir=str(tmp_path))
        again = run_checkpointed(g, 0.75, 3, work_dir=str(tmp_path))
        assert again.completed
        assert again.roots_recovered == again.roots_total == first.roots_total
        assert again.metrics.tasks_executed == 0  # nothing re-mined
        assert again.maximal == first.maximal

    def test_no_duplicate_candidates_across_resume(self, tmp_path):
        g = make_random_graph(14, 0.55, seed=7)
        run_checkpointed(
            g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2,
            should_stop=lambda c=iter([False, False, True, True, True]): next(c),
        )
        run_checkpointed(g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2)
        lines = (tmp_path / "candidates.txt").read_text().splitlines()
        assert len(lines) == len(set(lines))


class TestProgressAndValidation:
    def test_progress_snapshots(self, tmp_path):
        g = make_random_graph(12, 0.5, seed=2)
        snaps = []
        out = run_checkpointed(
            g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=2,
            on_progress=snaps.append,
        )
        assert snaps[0].tasks_done == 0
        assert snaps[-1].tasks_done == out.roots_total
        assert snaps[-1].tasks_pending == snaps[-1].tasks_leased == 0
        dones = [s.tasks_done for s in snaps]
        assert dones == sorted(dones)
        for s in snaps:
            assert s.tasks_done + s.tasks_pending + s.tasks_leased == out.roots_total

    def test_chunk_roots_validated(self, tmp_path):
        g = make_random_graph(6, 0.5, seed=1)
        with pytest.raises(ValueError, match="chunk_roots"):
            run_checkpointed(g, 0.75, 3, work_dir=str(tmp_path), chunk_roots=0)
