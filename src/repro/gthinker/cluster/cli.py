"""CLI entry points for the distributed runtime.

Invoked through the main console script as subcommands::

    quasiclique-mine cluster-master graph.txt --gamma 0.8 --min-size 10 \
        --workers 4 --host 0.0.0.0 --port 7464
    quasiclique-mine cluster-worker --host master-host --port 7464

The master takes the main CLI's job and engine flags
(:func:`repro.cli.add_engine_flags`) plus its own deployment flags,
binds (to 127.0.0.1 unless ``--host`` says otherwise), waits for
`--workers` registrations, drives the job, and reports it as the local
CLI does (:func:`repro.cli.report_run`). A worker needs nothing but
the master's address: the config, the app, and its
*partition* of the vertex table arrive in its Welcome message;
non-owned vertices are pulled from the master on demand into a bounded
cache, so no worker ever holds the full graph. ``--graph`` is an
optional warm start — a worker given a local edge-list copy mines
against that full replica instead (no partition shipping, no remote
fetches), trading memory for wire traffic.
"""

from __future__ import annotations

import argparse
import sys
import time

from ... import cli as engine_cli
from ...core.resultsio import write_text_atomic
from ...graph.io import read_edge_list
from ..engine import quasiclique_job
from .master import ClusterMaster
from .worker import ClusterWorker

__all__ = ["master_cli", "status_cli", "worker_cli"]

#: Default master port (arbitrary, unprivileged).
DEFAULT_PORT = 7464


def _master_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine cluster-master",
        description="Coordinate a distributed quasi-clique mining job.",
    )
    parser.add_argument("graph", help="edge-list file (SNAP format)")
    engine_cli.add_engine_flags(parser, params_required=True)
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1; pass "
                        "0.0.0.0 or an interface address for workers on "
                        "other hosts)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default: {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--port-file", metavar="FILE", default=None,
                        help="write the bound port here once listening "
                        "(lets scripts use --port 0 without collisions)")
    parser.add_argument("--workers", type=int, required=True, metavar="N",
                        help="expected worker count (sizes the work ledger)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="abort the job after this many seconds")
    parser.add_argument("--chunk-size", type=int, default=0,
                        help="spawn vertices per work unit (0 = auto)")
    parser.add_argument("--heartbeat-period", type=float, default=0.25)
    parser.add_argument("--heartbeat-timeout", type=float, default=10.0)
    return parser


def master_cli(argv: list[str] | None = None) -> int:
    return engine_cli.run_cli(_run_master, _master_parser().parse_args(argv))


def _run_master(args: argparse.Namespace) -> int:
    config = engine_cli.engine_config(
        args,
        backend="cluster",
        num_procs=args.workers,
        cluster_chunk_size=args.chunk_size,
        heartbeat_period=args.heartbeat_period,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    graph = read_edge_list(args.graph)
    with engine_cli.bad_input():
        core, app = quasiclique_job(graph, args.gamma, args.min_size)
    tracer, on_progress = engine_cli.observers(args)
    master = ClusterMaster(
        core, app, config, tracer=tracer,
        host=args.host, port=args.port, num_workers=args.workers,
        on_progress=on_progress,
    )
    host, port = master.start()
    if args.port_file:
        # Atomic, so a polling reader never sees a half-written number.
        write_text_atomic(args.port_file, str(port))
    print(f"cluster-master: listening on {host}:{port}, "
          f"waiting for {args.workers} worker(s)", file=sys.stderr)
    start = time.perf_counter()
    result = master.run(timeout=args.timeout)
    engine_cli.report_run(
        args, graph, args.gamma, args.min_size, result.maximal,
        time.perf_counter() - start,
        engine_cli.format_run_summary(result, "cluster", args.workers), tracer,
    )
    return 0


def _worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine cluster-worker",
        description="Join a distributed quasi-clique mining job.",
    )
    parser.add_argument("--host", required=True, help="master address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--graph", default=None,
                        help="optional warm start: mine against this full "
                        "local edge-list copy instead of receiving a "
                        "partition and fetching remote vertices on demand")
    parser.add_argument("--connect-timeout", type=float, default=30.0)
    return parser


def worker_cli(argv: list[str] | None = None) -> int:
    args = _worker_parser().parse_args(argv)
    graph = read_edge_list(args.graph) if args.graph else None
    worker = ClusterWorker(
        args.host, args.port, graph=graph,
        connect_timeout=args.connect_timeout,
    )
    worker.run()
    print(f"cluster-worker {worker.worker_id}: done", file=sys.stderr)
    return 0


def _status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine cluster-status",
        description="Ask a running master for one live-progress snapshot.",
    )
    parser.add_argument("--host", required=True, help="master address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="connect/read timeout in seconds")
    return parser


def status_cli(argv: list[str] | None = None) -> int:
    args = _status_parser().parse_args(argv)
    from ..obs import format_progress, query_master_status
    from .protocol import ProtocolError

    try:
        snapshot = query_master_status(args.host, args.port,
                                       timeout=args.timeout)
    except (OSError, ProtocolError) as exc:
        print(f"cluster-status: {exc}", file=sys.stderr)
        return 1
    print(format_progress(snapshot))
    return 0
