"""CLI entry points for the distributed runtime.

Invoked through the main console script as subcommands::

    quasiclique-mine cluster-master graph.txt --gamma 0.8 --min-size 10 \
        --workers 4 --port 7464
    quasiclique-mine cluster-worker --host master-host --port 7464

The master binds, waits for `--workers` registrations, drives the job,
and prints the same summary line as the local CLI. A worker needs
nothing but the master's address: the config, the app, and its
*partition* of the vertex table arrive in its Welcome message;
non-owned vertices are pulled from the master on demand into a bounded
cache, so no worker ever holds the full graph. ``--graph`` is an
optional warm start — a worker given a local edge-list copy mines
against that full replica instead (no partition shipping, no remote
fetches), trading memory for wire traffic.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ...core.miner import quasiclique_core
from ...core.options import DEFAULT_OPTIONS, ResultSink
from ...core.resultsio import write_results
from ...graph.io import read_edge_list
from ..app_quasiclique import QuasiCliqueApp
from ..config import EngineConfig
from ..tracing import Tracer
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
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--min-size", type=int, required=True)
    parser.add_argument("--host", default="0.0.0.0",
                        help="bind address (default: all interfaces)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default: {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--port-file", metavar="FILE", default=None,
                        help="write the bound port here once listening "
                        "(lets scripts use --port 0 without collisions)")
    parser.add_argument("--workers", type=int, required=True, metavar="N",
                        help="expected worker count (sizes the work ledger)")
    parser.add_argument("--tau-split", type=int, default=64)
    parser.add_argument("--tau-time", type=float, default=float("inf"))
    parser.add_argument("--wall-clock", action="store_true",
                        help="interpret --tau-time as seconds")
    parser.add_argument("--decompose", choices=["timed", "size", "none"],
                        default="timed")
    parser.add_argument("--chunk-size", type=int, default=0,
                        help="spawn vertices per work unit (0 = auto)")
    parser.add_argument("--heartbeat-period", type=float, default=0.25)
    parser.add_argument("--heartbeat-timeout", type=float, default=10.0)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=None,
                        help="abort the job after this many seconds")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write master-side scheduler events as JSON lines")
    parser.add_argument("--progress", action="store_true",
                        help="render live progress snapshots to stderr")
    parser.add_argument("--output", help="write results (one set per line)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    return parser


def master_cli(argv: list[str] | None = None) -> int:
    args = _master_parser().parse_args(argv)
    graph = quasiclique_core(read_edge_list(args.graph), args.gamma, args.min_size)
    config = EngineConfig(
        backend="cluster",
        num_procs=args.workers,
        tau_split=args.tau_split,
        tau_time=args.tau_time,
        time_unit="wall" if args.wall_clock else "ops",
        decompose=args.decompose,
        cluster_chunk_size=args.chunk_size,
        heartbeat_period=args.heartbeat_period,
        heartbeat_timeout=args.heartbeat_timeout,
        max_attempts=args.max_attempts,
    )
    app = QuasiCliqueApp(
        gamma=args.gamma, min_size=args.min_size,
        sink=ResultSink(), options=DEFAULT_OPTIONS,
    )
    tracer = Tracer() if args.trace else None
    on_progress = None
    if args.progress:
        from ..obs import format_progress

        on_progress = lambda s: print(format_progress(s), file=sys.stderr)  # noqa: E731
    master = ClusterMaster(
        graph, app, config, tracer=tracer,
        host=args.host, port=args.port, num_workers=args.workers,
        on_progress=on_progress,
    )
    host, port = master.start()
    if args.port_file:
        # Written atomically (rename) so a polling reader never sees a
        # half-written port number.
        tmp = args.port_file + ".tmp"
        with open(tmp, "w") as f:
            f.write(str(port))
        os.replace(tmp, args.port_file)
    print(f"cluster-master: listening on {host}:{port}, "
          f"waiting for {args.workers} worker(s)", file=sys.stderr)
    start = time.perf_counter()
    result = master.run(timeout=args.timeout)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        written = tracer.dump_jsonl(args.trace)
        print(f"cluster-master: wrote {written} trace events to {args.trace}",
              file=sys.stderr)
    from ...cli import format_run_summary

    extra = format_run_summary(result, "cluster", args.workers)
    print(
        f"|V|={graph.num_vertices} |E|={graph.num_edges} gamma={args.gamma} "
        f"min_size={args.min_size} results={len(result.maximal)} "
        f"time={elapsed:.2f}s{extra}"
    )
    if not args.quiet:
        for qc in sorted(result.maximal, key=lambda s: (-len(s), sorted(s))):
            print(" ".join(str(v) for v in sorted(qc)))
    if args.output:
        write_results(result.maximal, args.output)
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
