"""Checkpointed, resumable mining: root-by-root resume and kill -9 safety.

The CLI's ``--checkpoint-dir`` and the mining service both resume
through :func:`repro.service.runner.run_checkpointed`; its chunking,
backend and progress cases live in tests/service/test_runner.py. This
module keeps the root-by-root resume cases and the one case that needs
a real SIGKILL of a child process.
"""

import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.core.miner import mine_maximal_quasicliques
from repro.service.runner import run_checkpointed

from conftest import make_random_graph


class TestResumableMiner:
    """Checkpointed mining through run_checkpointed, one root per chunk."""

    def test_single_run_matches_plain_miner(self, tmp_path):
        g = make_random_graph(12, 0.55, seed=8)
        result = run_checkpointed(
            g, 0.75, 3, work_dir=str(tmp_path / "ckpt"), chunk_roots=1
        )
        want = mine_maximal_quasicliques(g, 0.75, 3).maximal
        assert result.maximal == want
        assert result.completed
        assert result.roots_done == result.roots_total

    def test_stop_and_resume(self, tmp_path):
        g = make_random_graph(14, 0.5, seed=9)
        ckpt = str(tmp_path / "ckpt")
        calls = {"n": 0}

        def stop_after_four_roots():
            calls["n"] += 1
            return calls["n"] > 4

        first = run_checkpointed(
            g, 0.75, 3, work_dir=ckpt, chunk_roots=1,
            should_stop=stop_after_four_roots,
        )
        assert not first.completed
        assert first.roots_done == 4 < first.roots_total
        # A second call on the same directory = process restart.
        result = run_checkpointed(g, 0.75, 3, work_dir=ckpt, chunk_roots=1)
        want = mine_maximal_quasicliques(g, 0.75, 3).maximal
        assert result.maximal == want
        assert result.roots_recovered == 4
        assert result.roots_done == result.roots_total

    def test_rerun_after_completion_is_noop(self, tmp_path):
        g = make_random_graph(10, 0.5, seed=11)
        ckpt = str(tmp_path / "ckpt")
        run_checkpointed(g, 0.75, 3, work_dir=ckpt)
        result = run_checkpointed(g, 0.75, 3, work_dir=ckpt)
        want = mine_maximal_quasicliques(g, 0.75, 3).maximal
        assert result.maximal == want
        assert result.roots_recovered == result.roots_total
        assert result.metrics.tasks_executed == 0

    def test_min_size_one_isolated_roots(self, tmp_path):
        from repro.graph.adjacency import Graph

        g = Graph.from_edges([(0, 1)], vertices=range(3))
        result = run_checkpointed(g, 1.0, 1, work_dir=str(tmp_path / "c"))
        assert result.maximal == {frozenset({0, 1}), frozenset({2})}


#: Graph parameters shared by the parent and the SIGKILLed child — both
#: sides rebuild the identical G(n, p) with conftest's construction.
_KILL_N, _KILL_P, _KILL_SEED = 18, 0.5, 21

_CHILD_SCRIPT = """
import itertools, random, sys, time
from repro.graph.adjacency import Graph
import repro.service.runner as runner

n, seed, ckpt = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
rng = random.Random(seed)
edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
         if rng.random() < {p}]
g = Graph.from_edges(edges, vertices=range(n))

# Throttle root processing so the parent's SIGKILL reliably lands
# mid-run, right around a checkpoint flush.
real = runner.mine_parallel
def slow(*args, roots, **kwargs):
    time.sleep(0.05 * len(roots))
    return real(*args, roots=roots, **kwargs)
runner.mine_parallel = slow

# One root per chunk: the journal advances root by root.
runner.run_checkpointed(g, 0.75, 3, work_dir=ckpt, chunk_roots=1)
print("COMPLETED", flush=True)
"""


class TestSigkillResume:
    """Regression: SIGKILL mid-flush must not double-count or lose results."""

    def test_sigkill_mid_run_then_resume_equals_oracle(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT.format(p=_KILL_P),
             str(_KILL_N), str(_KILL_SEED), str(ckpt)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        journal = ckpt / "roots.journal"
        try:
            # Wait until some roots are journaled, then kill without warning.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal.is_file() and len(journal.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("child never journaled any roots")
            os.kill(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == -signal.SIGKILL
        assert "COMPLETED" not in out, "child finished before the kill landed"

        g = make_random_graph(_KILL_N, _KILL_P, seed=_KILL_SEED)
        want = mine_maximal_quasicliques(g, 0.75, 3).maximal
        done = set(int(line) for line in journal.read_text().splitlines())
        assert 0 < len(done) < len(set(g.vertices()))

        # Harden the scenario: simulate a torn trailing flush, as if the
        # kill interrupted candidates.txt mid-line. The bogus vertices
        # must NOT surface as a candidate after resume.
        with open(ckpt / "candidates.txt", "ab") as f:
            f.write(b"999999 999998")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = run_checkpointed(g, 0.75, 3, work_dir=str(ckpt))
        assert resumed.completed
        assert resumed.roots_recovered == len(done)
        assert resumed.maximal == want
        assert frozenset({999999, 999998}) not in resumed.candidates

        # No duplicates in the persisted candidate stream (double-count
        # guard: resumed run must not re-emit recovered candidates).
        lines = (ckpt / "candidates.txt").read_text().splitlines()
        assert len(lines) == len(set(lines))
