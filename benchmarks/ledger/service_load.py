"""The service-mixed workload's client side: daemon, jobs and query mix."""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

from spec import JOB_TIMEOUT_S

#: Interval between GET /jobs/{id} polls: 1% of a job, and cheap enough
#: that polling does not slow the mining thread it shares a GIL with.
POLL_S = 0.01
#: Every Nth answer is compared with the oracle family.
CHECK_EVERY = 50


@dataclass(frozen=True)
class Query:
    path: str
    vertices: tuple[int, ...]
    top: int | None
    best: bool


def build_queries(
    seed: int, job_id: str, vertex_ids: list[int], family: list[frozenset[int]], count: int
) -> list[Query]:
    """The seeded mix: 60% one vertex top=5 (Zipf 1.1 over every id, so the
    working set outgrows the 1024-entry LRU), 20% two members of one
    community, 10% /best, 10% ids the graph does not have."""
    rng = random.Random(seed)
    ranked = list(vertex_ids)
    rng.shuffle(ranked)
    cumulative = list(itertools.accumulate(1.0 / (k ** 1.1) for k in range(1, len(ranked) + 1)))
    absent_base = max(vertex_ids) + 1

    def zipf_vertex() -> int:
        return ranked[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]

    def communities(vertices: tuple[int, ...], top: int | None) -> Query:
        params = "&".join(f"vertex={v}" for v in vertices)
        if top is not None:
            params += f"&top={top}"
        return Query(f"/results/{job_id}/communities?{params}", vertices, top, False)

    out: list[Query] = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.6:
            out.append(communities((zipf_vertex(),), 5))
        elif kind < 0.8:
            pair = tuple(rng.sample(sorted(rng.choice(family)), 2))
            out.append(communities(pair, None))
        elif kind < 0.9:
            v = zipf_vertex()
            out.append(Query(f"/results/{job_id}/best?vertex={v}", (v,), 1, True))
        else:
            out.append(communities((absent_base + rng.randrange(1000),), 5))
    return out


def expected_answer(query: Query, ordered_family: list[frozenset[int]]):
    """What the oracle family says; ``ordered_family`` is size-descending."""
    wanted = set(query.vertices)
    hits = [sorted(c) for c in ordered_family if wanted <= c]
    if query.best:
        return hits[0] if hits else None
    return hits if query.top is None else hits[: query.top]


def request(host: str, port: int, method: str, path: str, body: bytes | None = None):
    """One request on a connection of its own, as ``ServiceClient`` makes them.

    A kept-alive connection would measure the kernel instead: the server
    writes headers and body in two sends, and the client's delayed ACK
    holds the second for 40 ms.
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class QuerySender:
    """Sends queries one at a time; counts what it sent and got wrong."""

    def __init__(self, host: str, port: int, ordered_family: list[frozenset[int]]):
        self.host, self.port = host, port
        self.family = ordered_family
        self.sent = 0
        self.wrong: list[str] = []

    def __call__(self, query: Query) -> bool:
        status, body = request(self.host, self.port, "GET", query.path)
        self.sent += 1
        if status != 200:
            self.wrong.append(f"{query.path}: HTTP {status}")
            return False
        if self.sent % CHECK_EVERY == 0:
            doc = json.loads(body)
            got = doc["community"] if query.best else doc["communities"]
            if got != expected_answer(query, self.family):
                self.wrong.append(f"{query.path}: answer differs from the oracle")
                return False
        return True


def order_family(family) -> list[frozenset[int]]:
    return sorted(family, key=lambda s: (-len(s), sorted(s)))


class JobClient:
    """Submits jobs and polls them to completion."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def _json(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        status, payload = request(self.host, self.port, method, path, data)
        return status, json.loads(payload)

    def run_job(self, payload: dict) -> dict:
        """POST /jobs, poll to a terminal state; wall clock and submit latency."""
        start = time.perf_counter()
        status, doc = self._json("POST", "/jobs", payload)
        submitted = time.perf_counter()
        if status != 201:
            raise RuntimeError(f"POST /jobs: HTTP {status}: {doc}")
        job_id = doc["id"]
        while doc["state"] not in ("completed", "failed", "cancelled"):
            if time.perf_counter() - start > JOB_TIMEOUT_S:
                raise TimeoutError(f"{job_id} still {doc['state']} after {JOB_TIMEOUT_S}s")
            time.sleep(POLL_S)
            _, doc = self._json("GET", f"/jobs/{job_id}")
        return {
            "id": job_id, "state": doc["state"], "results": doc.get("results"),
            "wall_s": time.perf_counter() - start,
            "submit_ms": (submitted - start) * 1e3,
        }

    def metricsz(self) -> dict:
        return self._json("GET", "/metricsz")[1]


class Daemon:
    """``python -m repro.cli serve`` as a child process on a free port."""

    def __init__(self, root: str):
        self.root = root
        self.port_file = os.path.join(root, "port")
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> "Daemon":
        os.makedirs(self.root, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", self.root,
             "--port", "0", "--port-file", self.port_file],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                code = self.proc.poll()
                self.stop()
                raise RuntimeError(f"daemon did not start (exit code {code})")
            time.sleep(0.005)
        with open(self.port_file) as f:
            self.port = int(f.read())
        return self

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
