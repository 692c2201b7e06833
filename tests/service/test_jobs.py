"""JobManager: admission, lifecycle, cancellation, crash recovery."""

import json
import os
import time

import pytest

from repro.core.resultsio import read_results
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    JobManager,
    JobSpec,
    ServiceError,
)

import svc_common


@pytest.fixture
def make_manager(tmp_path):
    managers = []

    def make(root=None, start=True, **kwargs):
        m = JobManager(str(root or tmp_path / "svc"), **kwargs)
        managers.append(m)
        if start:
            m.start()
        return m

    yield make
    for m in managers:
        m.shutdown(wait=True, timeout=5)


@pytest.fixture
def slow_roots(monkeypatch):
    """Throttle each chunk by 0.03 s per root so jobs stay observable
    mid-run."""
    import repro.service.runner as runner_mod

    real = runner_mod.mine_parallel

    def slow(*args, roots, **kwargs):
        time.sleep(0.03 * len(roots))
        return real(*args, roots=roots, **kwargs)

    monkeypatch.setattr(runner_mod, "mine_parallel", slow)


def wait_for(predicate, timeout=20.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition never became true")


class TestJobSpecValidation:
    BAD = [
        (["not", "a", "dict"], "JSON object"),
        ({"gamma": 0.9, "min_size": 3, "bogus": 1, "edges": [[0, 1]]}, "unknown job fields: bogus"),
        ({"min_size": 3, "edges": [[0, 1]]}, "missing required field 'gamma'"),
        ({"gamma": 0.9, "edges": [[0, 1]]}, "missing required field 'min_size'"),
        ({"gamma": 0.0, "min_size": 3, "edges": [[0, 1]]}, "gamma must be in"),
        ({"gamma": 1.5, "min_size": 3, "edges": [[0, 1]]}, "gamma must be in"),
        ({"gamma": 0.9, "min_size": 0, "edges": [[0, 1]]}, "min_size must be"),
        ({"gamma": 0.9, "min_size": 3}, "exactly one graph source"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]], "dataset": "gse"},
         "exactly one graph source"),
        ({"gamma": 0.9, "min_size": 3, "dataset": "no-such-set"}, "unknown dataset"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1, 2]]}, "integer pairs"),
        ({"gamma": 0.9, "min_size": 3, "edges": "0 1"}, "integer pairs"),
        ({"gamma": 0.9, "min_size": 3, "graph_path": "/g", "vertices": [0]},
         "only valid with inline edges"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"no_such_knob": 1}}, "bad engine config"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]], "chunk_roots": 0},
         "chunk_roots must be"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"batch_size": 0}}, "bad engine config"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"queue_capacity": 2, "batch_size": 4}}, "bad engine config"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"cache_capacity": 0}}, "bad engine config"),
        ({"gamma": 0.3, "min_size": 3, "edges": [[0, 1]]}, "gamma must be in"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]], "chunk_roots": "abc"},
         "chunk_roots must be"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]], "chunk_roots": [2]},
         "chunk_roots must be"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]], "chunk_roots": 2.7},
         "chunk_roots must be"),
        # A process or cluster worker runs one local scheduler: only the
        # serial backend takes M x T. Admitted, the job would fail in its
        # thread.
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"backend": "process", "num_machines": 2}}, "one machine x one thread"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"backend": "cluster", "threads_per_machine": 2}},
         "one machine x one thread"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"backend": "threaded"}}, "unknown backend"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"backend": "auto"}}, "unknown backend"),
        # Above 1 x 1 the serial backend runs on virtual time: wall-clock
        # decomposition budgets are a topology error.
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"time_unit": "wall", "num_machines": 2}}, "runs at 1x1 only"),
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"time_unit": "wall", "threads_per_machine": 2}}, "runs at 1x1 only"),
        # The lease deadline is gone; its knob is an unknown key.
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"lease_slack": 5.0}}, "unknown engine config keys: lease_slack"),
        # A remote client does not pick paths on the daemon's host.
        ({"gamma": 0.9, "min_size": 3, "edges": [[0, 1]],
          "engine": {"spill_dir": "/etc/anywhere"}}, "spill_dir is not accepted"),
    ]

    @pytest.mark.parametrize("payload,match", BAD)
    def test_rejected(self, payload, match):
        with pytest.raises(ServiceError, match=match) as err:
            JobSpec.parse(payload)
        assert err.value.status == 400

    def test_roundtrip(self):
        payload = {
            "gamma": 0.8, "min_size": 4, "edges": [[0, 1], [1, 2]],
            "vertices": [0, 1, 2, 3],
            "engine": {"num_machines": 2, "threads_per_machine": 2},
            "chunk_roots": 7, "label": "x",
        }
        spec = JobSpec.parse(payload)
        assert JobSpec.parse(spec.to_payload()) == spec
        g = spec.build_graph()
        assert set(g.vertices()) == {0, 1, 2, 3}


class TestExecution:
    def test_submit_completes_and_persists(self, make_manager):
        manager = make_manager()
        g, spec = svc_common.small_job(seed=5)
        doc = manager.submit(spec)
        assert doc["id"] == "job-000001"
        assert doc["state"] == PENDING
        doc = manager.wait(doc["id"])
        want = svc_common.oracle(g, 0.75, 3)
        assert doc["state"] == COMPLETED
        assert doc["results"] == len(want)
        assert doc["roots_done"] == doc["roots_total"]

        work_dir = os.path.join(manager.jobs_dir, doc["id"])
        assert read_results(os.path.join(work_dir, "result.txt")) == want
        with open(os.path.join(work_dir, "job.json")) as f:
            durable = json.load(f)
        assert durable["state"] == COMPLETED
        with open(os.path.join(work_dir, "metrics.json")) as f:
            metrics = json.load(f)
        assert metrics["results"] == len(want)
        assert "task_records" not in metrics

    def test_fifo_single_slot(self, make_manager, slow_roots):
        manager = make_manager(max_running=1, chunk_roots=4)
        ids = [manager.submit(svc_common.small_job(seed=s)[1])["id"]
               for s in (1, 2, 3)]
        docs = [manager.wait(j, timeout=60) for j in ids]
        assert all(d["state"] == COMPLETED for d in docs)
        # One slot: each job starts only after its predecessor finished.
        for prev, nxt in zip(docs, docs[1:]):
            assert nxt["started"] >= prev["finished"] - 1e-6

    def test_cancel_pending(self, make_manager, slow_roots):
        manager = make_manager(max_running=1, chunk_roots=1)
        blocker = manager.submit(svc_common.small_job(seed=1)[1])
        queued = manager.submit(svc_common.small_job(seed=2)[1])
        doc = manager.cancel(queued["id"])
        assert doc["state"] == CANCELLED
        assert manager.wait(blocker["id"], timeout=60)["state"] == COMPLETED
        assert manager.get(queued["id"])["state"] == CANCELLED

    def test_cancel_running_at_chunk_boundary(self, make_manager, slow_roots):
        manager = make_manager(max_running=1, chunk_roots=1)
        job_id = manager.submit(svc_common.small_job(seed=3, n=16)[1])["id"]
        wait_for(lambda: manager.get(job_id)["roots_done"] >= 1)
        assert manager.get(job_id)["state"] == RUNNING
        manager.cancel(job_id)
        doc = manager.wait(job_id, timeout=60)
        assert doc["state"] == CANCELLED
        assert doc["roots_done"] < doc["roots_total"]
        # The checkpoint survives a cancellation.
        work_dir = os.path.join(manager.jobs_dir, job_id)
        assert os.path.isfile(os.path.join(work_dir, "roots.journal"))

    def test_failed_job_captures_error(self, make_manager, tmp_path):
        manager = make_manager()
        doc = manager.submit({
            "gamma": 0.9, "min_size": 3,
            "graph_path": str(tmp_path / "does-not-exist.txt"),
        })
        doc = manager.wait(doc["id"])
        assert doc["state"] == FAILED
        assert "graph file not found" in doc["error"]

    def test_unknown_job(self, make_manager):
        manager = make_manager()
        with pytest.raises(ServiceError) as err:
            manager.get("job-999999")
        assert err.value.status == 404

    def test_merged_metrics_aggregates(self, make_manager):
        manager = make_manager()
        g, spec = svc_common.small_job(seed=8)
        manager.wait(manager.submit(spec)["id"])
        merged = manager.merged_metrics()
        assert merged["results"] == len(svc_common.oracle(g, 0.75, 3))
        assert "task_records" not in merged


class TestRecovery:
    def test_pending_job_requeued_on_restart(self, make_manager, tmp_path):
        root = tmp_path / "svc"
        first = make_manager(root=root, start=False)
        g, spec = svc_common.small_job(seed=9)
        job_id = first.submit(spec)["id"]
        # Daemon "dies" before any worker picks the job up.
        second = make_manager(root=root, start=False)
        assert second.recover() == [job_id]
        second.start()
        doc = second.wait(job_id, timeout=60)
        assert doc["state"] == COMPLETED
        work_dir = os.path.join(second.jobs_dir, job_id)
        assert read_results(os.path.join(work_dir, "result.txt")) == \
            svc_common.oracle(g, 0.75, 3)
        # IDs keep counting up after recovery — no reuse.
        assert second.submit(svc_common.small_job(seed=10)[1])["id"] == "job-000002"

    def test_interrupted_running_job_resumes(self, make_manager, slow_roots, tmp_path):
        root = tmp_path / "svc"
        first = make_manager(root=root, chunk_roots=1)
        g, spec = svc_common.small_job(seed=11, n=16)
        job_id = first.submit(spec)["id"]
        wait_for(lambda: first.get(job_id)["roots_done"] >= 2)
        # Simulated crash: stop the workers; the durable state stays
        # "running", exactly what a kill -9 leaves behind.
        first.shutdown(wait=True, timeout=30)
        with open(os.path.join(first.jobs_dir, job_id, "job.json")) as f:
            assert json.load(f)["state"] == RUNNING

        second = make_manager(root=root, chunk_roots=1)
        assert second.recover() == [job_id]
        doc = second.wait(job_id, timeout=60)
        assert doc["state"] == COMPLETED
        assert doc["resumed"] is True
        assert read_results(os.path.join(second.jobs_dir, job_id, "result.txt")) == \
            svc_common.oracle(g, 0.75, 3)

    def test_terminal_jobs_not_requeued(self, make_manager, tmp_path):
        root = tmp_path / "svc"
        first = make_manager(root=root)
        job_id = first.submit(svc_common.small_job(seed=12)[1])["id"]
        first.wait(job_id)
        first.shutdown(wait=True, timeout=5)
        second = make_manager(root=root, start=False)
        assert second.recover() == []
        assert second.get(job_id)["state"] == COMPLETED
