"""The mining service: a durable job daemon and result-query API.

The paper treats mining as a batch job; the service turns it into a
workload you can *operate*: submit jobs over HTTP, watch their
progress, kill the daemon mid-run and restart it without losing work,
and serve read-heavy community queries (top-k communities of a vertex,
à la "Enumerating Top-k Quasi-Cliques") from mined results without
re-mining. Stdlib only — ``http.server.ThreadingHTTPServer`` + JSON.

Modules
-------
``runner``   chunked resumable execution of one job over any backend
             (:func:`repro.gthinker.engine.mine_parallel` per chunk,
             fsync-ordered checkpoints between chunks); the CLI's
             ``--checkpoint-dir`` runs through it too;
``jobs``     :class:`JobManager` — the durable job registry: states
             ``pending → running → completed/failed/cancelled``,
             per-job working directories, FIFO admission under a
             bounded running-job limit, crash recovery on restart;
``store``    :class:`ResultStore` — vertex → containing-communities
             index over completed runs with an LRU query cache;
``server``   the HTTP API (``POST /jobs``, ``GET /jobs/{id}``,
             ``DELETE /jobs/{id}``, ``GET /results/{id}/communities``,
             ``/healthz``, ``/metricsz``);
``client``   typed stdlib client used by the CLI and the tests;
``cli``      ``serve`` / ``submit`` / ``jobs`` / ``communities``
             subcommands of the main CLI.

See docs/SERVICE.md for the full API reference and durability
semantics.
"""

from __future__ import annotations

from .client import ServiceClient, ServiceError
from .jobs import JobManager, JobSpec
from .runner import JobOutcome, run_checkpointed
from .server import MiningService, build_server
from .store import ResultStore

__all__ = [
    "JobManager",
    "JobOutcome",
    "JobSpec",
    "MiningService",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "build_server",
    "run_checkpointed",
]
