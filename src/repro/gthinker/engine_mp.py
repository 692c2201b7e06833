"""The process backend's front-end: warm-start workers on localhost.

``backend='process'`` is the cluster runtime
(:mod:`repro.gthinker.cluster`) on one host: the master's reactor
leases work, plans steals and recovers from failures, and every worker
is forked (or spawned) holding the whole Theorem 2 core, so no
partition is shipped and no vertex fetched. See
:func:`~repro.gthinker.cluster.launcher.run_cluster_app`.
"""

from __future__ import annotations

from ..core.miner import quasiclique_core
from ..core.options import DEFAULT_OPTIONS, ResultSink
from ..graph.adjacency import Graph
from .app_quasiclique import QuasiCliqueApp
from .chaos import FaultInjection
from .cluster.launcher import run_cluster_app
from .config import EngineConfig
from .engine import MiningRunResult
from .tracing import NullTracer, Tracer

__all__ = ["mine_multiprocess"]


def mine_multiprocess(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    options=None,
    tracer: Tracer | NullTracer | None = None,
    start_method: str | None = None,
    fault_injection: FaultInjection | None = None,
    on_progress=None,
) -> MiningRunResult:
    """Convenience front-end: mine `graph` on the process backend."""
    config = config or EngineConfig(backend="process")
    options = options or DEFAULT_OPTIONS
    graph = quasiclique_core(graph, gamma, min_size, options)
    app = QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink(), options=options)
    return run_cluster_app(
        graph, app, config, tracer=tracer, start_method=start_method,
        fault_injection=fault_injection, on_progress=on_progress,
        warm_start=True,
    )
