"""The HTTP API: stdlib ThreadingHTTPServer over JobManager + ResultStore.

Endpoints (full request/response schemas in docs/SERVICE.md):

=========  ================================  =================================
method     path                              meaning
=========  ================================  =================================
POST       /jobs                             submit a job (JSON body) → 201
GET        /jobs                             list all job documents
GET        /jobs/{id}                        one job document with progress
DELETE     /jobs/{id}                        cancel (cooperative when running)
GET        /results/{id}/communities         communities ⊇ query vertices
                                             (``?vertex=v&…&top=k``)
GET        /results/{id}/best                largest such community or null
GET        /healthz                          liveness + job-state counts
GET        /metricsz                         EngineMetrics aggregate + store
                                             and daemon counters, as JSON
=========  ================================  =================================

Every response body is JSON. Errors use one envelope::

    {"error": {"status": 404, "message": "no such job: job-000042"}}

Threading model: ``ThreadingHTTPServer`` serves each request on its
own thread; JobManager and ResultStore are internally locked, and job
execution happens on the manager's own bounded worker pool — a slow
mining job never blocks queries.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .jobs import COMPLETED, JobManager, ServiceError
from .runner import DEFAULT_CHUNK_ROOTS
from .store import ResultStore

__version__ = "1.0"

#: Largest request body the daemon reads (64 MiB). Not a knob: it only
#: bounds what one ``POST /jobs`` may make the daemon buffer. Inline
#: ``edges`` jobs travel in the body, so it fits a few million edges;
#: larger graphs go by ``graph_path``.
MAX_BODY_BYTES = 64 << 20


class MiningService:
    """One daemon's state: the job registry plus the query store."""

    def __init__(
        self,
        root_dir: str,
        *,
        max_running: int = 2,
        chunk_roots: int = DEFAULT_CHUNK_ROOTS,
        max_indexes: int = 8,
        cache_size: int = 1024,
    ):
        self.root_dir = root_dir
        self.manager = JobManager(
            root_dir, max_running=max_running, chunk_roots=chunk_roots
        )
        self.store = ResultStore(
            self.manager.jobs_dir, max_indexes=max_indexes, cache_size=cache_size
        )
        self.started_at = time.time()
        self.requests_served = 0

    def recover_and_start(self) -> list[str]:
        """Resume interrupted jobs, then open the worker pool."""
        requeued = self.manager.recover()
        self.manager.start()
        return requeued

    def shutdown(self) -> None:
        self.manager.shutdown()

    # -- request-level operations (HTTP-agnostic, used by the handler) -----

    def communities_doc(self, job_id: str, query: list[int], top: int | None) -> dict:
        job = self.manager.get(job_id)
        if job["state"] != COMPLETED:
            raise ServiceError(
                409,
                f"{job_id} is {job['state']}; results are queryable once "
                "the job completes",
            )
        try:
            found, cache_hit = self.store.communities(job_id, query, top)
        except KeyError:
            raise ServiceError(404, f"no result file for {job_id}") from None
        return {
            "job": job_id,
            "query": sorted(set(query)),
            "top": top,
            "count": len(found),
            "cache": "hit" if cache_hit else "miss",
            "communities": [sorted(c) for c in found],
        }

    def best_doc(self, job_id: str, query: list[int]) -> dict:
        doc = self.communities_doc(job_id, query, top=1)
        best = doc["communities"][0] if doc["communities"] else None
        return {"job": job_id, "query": doc["query"], "community": best}

    def health_doc(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.manager.counts(),
        }

    def metrics_doc(self) -> dict:
        return {
            "service": {
                "uptime_seconds": time.time() - self.started_at,
                "requests_served": self.requests_served,
                "jobs": self.manager.counts(),
                "store": self.store.counters(),
            },
            "engine": self.manager.merged_metrics(),
        }


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the :class:`MiningService` bound at class level."""

    service: MiningService  # set by build_server
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two sends; with Nagle on, the body of a
    # kept-alive response waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        self.service.requests_served += 1
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        params = parse_qs(split.query)
        try:
            doc, status = self._route(method, parts, params)
        except ServiceError as exc:
            self._send(
                {"error": {"status": exc.status, "message": exc.message}},
                exc.status,
            )
            return
        except Exception as exc:  # noqa: BLE001 — never crash the daemon
            self._send(
                {"error": {"status": 500, "message": f"{type(exc).__name__}: {exc}"}},
                500,
            )
            return
        self._send(doc, status)

    def _route(self, method: str, parts: list[str], params: dict) -> tuple[dict, int]:
        svc = self.service
        if method == "GET" and parts == ["healthz"]:
            return svc.health_doc(), 200
        if method == "GET" and parts == ["metricsz"]:
            return svc.metrics_doc(), 200
        if parts[:1] == ["jobs"]:
            if method == "POST" and len(parts) == 1:
                return svc.manager.submit(self._read_json()), 201
            if method == "GET" and len(parts) == 1:
                return {"jobs": svc.manager.list()}, 200
            if method == "GET" and len(parts) == 2:
                return svc.manager.get(parts[1]), 200
            if method == "DELETE" and len(parts) == 2:
                return svc.manager.cancel(parts[1]), 200
        if method == "GET" and parts[:1] == ["results"] and len(parts) == 3:
            job_id = parts[1]
            query = _int_params(params, "vertex")
            if parts[2] == "communities":
                top = _int_param(params, "top")
                return svc.communities_doc(job_id, query, top), 200
            if parts[2] == "best":
                return svc.best_doc(job_id, query), 200
        raise ServiceError(404, f"no route: {method} /{'/'.join(parts)}")

    # -- plumbing ----------------------------------------------------------

    def _read_json(self):
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            raise ServiceError(400, f"bad Content-Length: {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                413,
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}; "
                "submit large graphs by graph_path",
            )
        body = self.rfile.read(length) if length else b""
        if not body:
            raise ServiceError(400, "empty request body (JSON expected)")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise ServiceError(400, f"bad JSON body: {exc}") from exc

    def _send(self, doc: dict, status: int) -> None:
        payload = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Quiet by default; the serve CLI owns user-facing output.
        pass


def _int_params(params: dict, name: str) -> list[int]:
    try:
        return [int(v) for v in params.get(name, [])]
    except ValueError as exc:
        raise ServiceError(400, f"bad {name} parameter: {exc}") from exc


def _int_param(params: dict, name: str) -> int | None:
    values = _int_params(params, name)
    return values[-1] if values else None


def build_server(
    service: MiningService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a ThreadingHTTPServer serving `service` (port 0 = ephemeral).

    The caller owns the loop: ``server.serve_forever()`` to run,
    ``server.shutdown()`` + ``service.shutdown()`` to stop.
    """
    handler = type("BoundServiceHandler", (ServiceHandler,), {"service": service})
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    return httpd
