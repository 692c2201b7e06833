"""HTTP API round trips, error envelopes, and query parity."""

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.core.query import best_community, mine_containing
from repro.gthinker.config import EngineConfig, check_topology
from repro.service.client import ServiceError

import svc_common


@pytest.fixture
def live(tmp_path):
    with svc_common.live_service(tmp_path / "state") as (service, client):
        yield service, client


def submit_and_wait(client, spec, timeout=60.0):
    doc = client.submit(spec)
    return client.wait(doc["id"], timeout=timeout)


def raw_post_jobs(client, content_length: str):
    """POST /jobs headers over a bare socket; returns (status, envelope).

    No body follows the headers, so a server that tries to read one
    blocks; the socket's 10 s timeout then fails the test instead of
    hanging it.
    """
    url = urlsplit(client.base_url)
    with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


class TestJobEndpoints:
    def test_submit_poll_complete(self, live):
        _, client = live
        g, spec = svc_common.small_job(seed=5, label="round-trip")
        doc = client.submit(spec)
        assert doc["state"] in ("pending", "running")
        doc = client.wait(doc["id"])
        want = svc_common.oracle(g, 0.75, 3)
        assert doc["state"] == "completed"
        assert doc["results"] == len(want)
        assert doc["label"] == "round-trip"
        # The progress block follows the obs ProgressSnapshot contract.
        progress = doc["progress"]
        assert progress["tasks_done"] == doc["roots_total"]
        assert progress["tasks_pending"] == 0
        assert progress["workers_alive"] == 1

    def test_list_jobs(self, live):
        _, client = live
        ids = {submit_and_wait(client, svc_common.small_job(seed=s)[1])["id"]
               for s in (1, 2)}
        assert {d["id"] for d in client.jobs()} == ids

    def test_cancel_pending_job(self, live, monkeypatch):
        _, client = live
        import repro.service.runner as runner_mod
        real = runner_mod.mine_parallel

        def slow(*args, roots, **kwargs):
            time.sleep(0.03 * len(roots))
            return real(*args, roots=roots, **kwargs)

        monkeypatch.setattr(runner_mod, "mine_parallel", slow)
        # Fill both worker slots, then queue a third job and cancel it.
        blockers = [client.submit(svc_common.small_job(seed=s, n=16,
                                                       chunk_roots=1)[1])
                    for s in (1, 2)]
        queued = client.submit(svc_common.small_job(seed=3)[1])
        doc = client.cancel(queued["id"])
        assert doc["state"] == "cancelled"
        for b in blockers:
            client.cancel(b["id"])
            client.wait(b["id"])


class TestResultEndpoints:
    def test_communities_parity_with_query_module(self, live):
        _, client = live
        g, spec = svc_common.small_job(seed=6, n=12)
        job_id = submit_and_wait(client, spec)["id"]
        want_all = svc_common.oracle(g, 0.75, 3)

        doc = client.communities(job_id)
        assert svc_common.as_sets(doc["communities"]) == want_all
        assert doc["count"] == len(want_all)

        # Per-vertex parity with mine_containing / best_community.
        for v in sorted(g.vertices())[:6]:
            doc = client.communities(job_id, [v])
            want = {s for s in want_all if v in s}
            assert svc_common.as_sets(doc["communities"]) == want
            got_best = client.best(job_id, [v])
            if want:
                assert mine_containing(g, [v], 0.75, 3).maximal == want
                assert frozenset(got_best) == best_community(g, [v], 0.75, 3)
            else:
                assert got_best is None

    def test_top_k_is_size_ordered(self, live):
        _, client = live
        g, spec = svc_common.small_job(seed=7)
        job_id = submit_and_wait(client, spec)["id"]
        doc = client.communities(job_id, top=3)
        sizes = [len(c) for c in doc["communities"]]
        assert sizes == sorted(sizes, reverse=True)
        assert doc["count"] <= 3

    def test_cache_hit_on_repeat(self, live):
        _, client = live
        job_id = submit_and_wait(client, svc_common.small_job(seed=8)[1])["id"]
        first = client.communities(job_id, [0], top=2)
        second = client.communities(job_id, [0], top=2)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["communities"] == second["communities"]

    def test_query_before_completion_conflicts(self, live, monkeypatch):
        _, client = live
        import repro.service.runner as runner_mod
        real = runner_mod.mine_parallel

        def slow(*args, roots, **kwargs):
            time.sleep(0.03 * len(roots))
            return real(*args, roots=roots, **kwargs)

        monkeypatch.setattr(runner_mod, "mine_parallel", slow)
        doc = client.submit(svc_common.small_job(seed=9, n=16, chunk_roots=1)[1])
        with pytest.raises(ServiceError) as err:
            client.communities(doc["id"])
        assert err.value.status == 409
        client.cancel(doc["id"])
        client.wait(doc["id"])


class TestErrors:
    def test_unknown_job_404(self, live):
        _, client = live
        for call in (lambda: client.job("job-000404"),
                     lambda: client.cancel("job-000404"),
                     lambda: client.communities("job-000404")):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 404

    def test_unknown_route_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/no/such/route")
        assert err.value.status == 404
        assert "no route" in err.value.message

    def test_bad_submit_body_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client.submit({"gamma": 0.9})
        assert err.value.status == 400
        req = urllib.request.Request(
            client.base_url + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as http_err:
            urllib.request.urlopen(req, timeout=10)
        envelope = json.loads(http_err.value.read())
        assert envelope["error"]["status"] == 400
        assert "bad JSON body" in envelope["error"]["message"]

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", ""])
    def test_bad_content_length_400(self, live, length):
        _, client = live
        status, envelope = raw_post_jobs(client, length)
        assert status == 400
        assert "Content-Length" in envelope["error"]["message"]
        assert client.jobs() == []

    def test_oversized_body_413_without_reading_it(self, live):
        from repro.service.server import MAX_BODY_BYTES

        _, client = live
        status, envelope = raw_post_jobs(client, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert "graph_path" in envelope["error"]["message"]
        assert client.jobs() == []

    @pytest.mark.parametrize("engine", [
        {"batch_size": 0},
        {"queue_capacity": 2, "batch_size": 4},
        {"cache_capacity": 0},
        {"time_unit": "wall", "num_machines": 2},
        {"time_unit": "wall", "threads_per_machine": 2},
        {"backend": "threaded"},
        {"backend": "auto"},
        {"backend": "process", "num_machines": 2},
        {"backend": "cluster", "threads_per_machine": 2},
    ])
    def test_unrunnable_engine_knobs_400(self, live, engine):
        _, client = live
        _, spec = svc_common.small_job(seed=1)
        with pytest.raises(ServiceError) as err:
            client.submit({**spec, "engine": engine})
        assert err.value.status == 400
        assert "bad engine config" in err.value.message
        if "num_machines" in engine or "threads_per_machine" in engine:
            # A topology refusal carries check_topology's own message.
            with pytest.raises(ValueError) as topology:
                check_topology(EngineConfig.from_payload(engine))
            assert str(topology.value) in err.value.message
        assert client.jobs() == []  # refused at admission, never queued

    @pytest.mark.parametrize("fields", [
        {"chunk_roots": "abc"},
        {"chunk_roots": [2]},
        {"chunk_roots": 2.7},
        {"gamma": 0.3},
    ])
    def test_bad_chunk_roots_or_gamma_400(self, live, fields):
        _, client = live
        _, spec = svc_common.small_job(seed=1)
        with pytest.raises(ServiceError) as err:
            client.submit({**spec, **fields})
        assert err.value.status == 400
        assert client.jobs() == []  # refused at admission, never queued

    def test_bad_query_param_400(self, live):
        _, client = live
        job_id = submit_and_wait(client, svc_common.small_job(seed=4)[1])["id"]
        with pytest.raises(ServiceError) as err:
            client._request("GET", f"/results/{job_id}/communities?vertex=abc")
        assert err.value.status == 400

    def test_unreachable_server(self):
        from repro.service.client import ServiceClient
        client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.status == 0


class TestIntrospection:
    def test_kept_alive_requests_do_not_stall(self, live):
        # Two sends per response under Nagle cost a delayed ACK (~40 ms)
        # each; 20 requests on one connection must not pay it.
        _, client = live
        url = urlsplit(client.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.25, f"20 kept-alive requests took {elapsed:.3f}s"

    def test_healthz(self, live):
        _, client = live
        submit_and_wait(client, svc_common.small_job(seed=2)[1])
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["uptime_seconds"] >= 0
        assert doc["jobs"]["completed"] == 1
        assert set(doc["jobs"]) == {
            "pending", "running", "completed", "failed", "cancelled"
        }

    def test_metricsz(self, live):
        _, client = live
        g, spec = svc_common.small_job(seed=3)
        job_id = submit_and_wait(client, spec)["id"]
        client.communities(job_id)
        client.communities(job_id)
        doc = client.metricsz()
        assert doc["service"]["jobs"]["completed"] == 1
        assert doc["service"]["store"]["cache_hits"] == 1
        assert doc["service"]["requests_served"] > 0
        assert doc["engine"]["results"] == len(svc_common.oracle(g, 0.75, 3))
        assert "task_records" not in doc["engine"]
