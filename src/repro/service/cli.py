"""Service subcommands of the main CLI.

::

    quasiclique-mine serve --root /var/lib/qc --port 7477
    quasiclique-mine submit --url http://host:7477 graph.txt \
        --gamma 0.9 --min-size 10 --wait
    quasiclique-mine jobs --url http://host:7477 [JOB_ID]
    quasiclique-mine communities --url http://host:7477 JOB_ID \
        --vertex 42 --top 5

``serve`` runs the daemon in the foreground; everything else is a thin
:class:`~repro.service.client.ServiceClient` wrapper. ``--port 0``
binds an ephemeral port, and ``--port-file`` publishes whichever port
was bound (the same rendezvous the cluster-master subcommand uses), so
scripts and CI never race on a fixed port.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..core.resultsio import write_text_atomic
from ..gthinker.config import BACKENDS
from .client import ServiceClient, ServiceError

EXIT_OK = 0
EXIT_ERROR = 1


def service_cli(command: str, argv: list[str]) -> int:
    handlers = {
        "serve": serve_cli,
        "submit": submit_cli,
        "jobs": jobs_cli,
        "communities": communities_cli,
    }
    try:
        return handlers[command](argv)
    except ServiceError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_ERROR


# -- serve -----------------------------------------------------------------


def serve_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine serve",
        description="Run the mining service daemon (jobs + result queries).",
    )
    parser.add_argument("--root", required=True,
                        help="service state directory (job working dirs live "
                        "under <root>/jobs/); reused across restarts")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7477,
                        help="listen port (0 = ephemeral; see --port-file)")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file once "
                        "listening (rendezvous for scripts using --port 0)")
    parser.add_argument("--max-running", type=int, default=2, metavar="N",
                        help="admission control: jobs mined concurrently; "
                        "the rest queue FIFO (default: 2)")
    parser.add_argument("--chunk-roots", type=int, default=None, metavar="N",
                        help="spawn roots per checkpointed chunk (default: "
                        "64; smaller = finer-grained crash recovery)")
    args = parser.parse_args(argv)

    from .runner import DEFAULT_CHUNK_ROOTS
    from .server import MiningService, build_server

    service = MiningService(
        args.root,
        max_running=args.max_running,
        chunk_roots=args.chunk_roots or DEFAULT_CHUNK_ROOTS,
    )
    requeued = service.recover_and_start()
    httpd = build_server(service, args.host, args.port)
    host, port = httpd.server_address[:2]
    if args.port_file:
        write_text_atomic(args.port_file, f"{port}\n")
    resumed = f" resumed={len(requeued)}" if requeued else ""
    print(
        f"service listening on http://{host}:{port} "
        f"root={args.root} max_running={args.max_running}{resumed}",
        flush=True,
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        service.shutdown()
    return EXIT_OK


# -- submit ----------------------------------------------------------------


def submit_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine submit",
        description="Submit a mining job to a running service.",
    )
    parser.add_argument("--url", required=True, help="service base URL")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("graph", nargs="?",
                     help="edge-list file (path as seen by the *server*)")
    src.add_argument("--dataset", help="built-in synthetic dataset analog")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--min-size", type=int, required=True)
    parser.add_argument("--backend", default=None, choices=BACKENDS,
                        help="executor for this job's chunks")
    parser.add_argument("--num-procs", type=int, default=None, metavar="N")
    parser.add_argument("--threads", type=int, default=None, metavar="N",
                        help="threads per machine of the M x T topology; "
                        "serial backend only (process and cluster jobs "
                        "with more than 1 are rejected with HTTP 400)")
    parser.add_argument("--chunk-roots", type=int, default=None, metavar="N",
                        help="override the service's checkpoint chunk size")
    parser.add_argument("--label", default="")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job finishes; exit nonzero on "
                        "failure/cancellation")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default: 600)")
    args = parser.parse_args(argv)

    engine: dict = {}
    if args.backend:
        engine["backend"] = args.backend
    if args.num_procs is not None:
        engine["num_procs"] = args.num_procs
    if args.threads is not None:
        engine["threads_per_machine"] = args.threads
    spec: dict = {"gamma": args.gamma, "min_size": args.min_size}
    if args.dataset:
        spec["dataset"] = args.dataset
    else:
        spec["graph_path"] = os.path.abspath(args.graph)
    if engine:
        spec["engine"] = engine
    if args.chunk_roots is not None:
        spec["chunk_roots"] = args.chunk_roots
    if args.label:
        spec["label"] = args.label

    client = ServiceClient(args.url)
    doc = client.submit(spec)
    print(f"submitted {doc['id']} state={doc['state']}")
    if not args.wait:
        return EXIT_OK
    doc = client.wait(doc["id"], timeout=args.timeout)
    print(_job_line(doc))
    return EXIT_OK if doc["state"] == "completed" else EXIT_ERROR


# -- jobs ------------------------------------------------------------------


def jobs_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine jobs",
        description="List service jobs, or show one job in detail.",
    )
    parser.add_argument("--url", required=True)
    parser.add_argument("job_id", nargs="?", default=None)
    args = parser.parse_args(argv)

    client = ServiceClient(args.url)
    if args.job_id:
        doc = client.job(args.job_id)
        print(_job_line(doc))
        if doc.get("progress"):
            p = doc["progress"]
            print(
                f"  progress: done={p['tasks_done']} "
                f"pending={p['tasks_pending']} leased={p['tasks_leased']} "
                f"candidates={p['candidates']} wall={p['wall_seconds']:.1f}s"
            )
        if doc.get("error"):
            print(f"  error: {doc['error']}")
        return EXIT_OK
    docs = client.jobs()
    if not docs:
        print("no jobs")
        return EXIT_OK
    for doc in docs:
        print(_job_line(doc))
    return EXIT_OK


def _job_line(doc: dict) -> str:
    line = f"{doc['id']} state={doc['state']}"
    if doc.get("roots_total") is not None:
        line += f" roots={doc['roots_done']}/{doc['roots_total']}"
    if doc.get("results") is not None:
        line += f" results={doc['results']}"
    if doc.get("resumed"):
        line += " resumed=1"
    if doc.get("label"):
        line += f" label={doc['label']}"
    return line


# -- communities -----------------------------------------------------------


def communities_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine communities",
        description="Query mined communities of a completed job.",
    )
    parser.add_argument("--url", required=True)
    parser.add_argument("job_id")
    parser.add_argument("--vertex", type=int, action="append", default=None,
                        metavar="V",
                        help="require the community to contain V (repeatable; "
                        "omit to list every community)")
    parser.add_argument("--top", type=int, default=None, metavar="K",
                        help="only the K largest")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)

    client = ServiceClient(args.url)
    doc = client.communities(args.job_id, args.vertex or (), args.top)
    print(
        f"{doc['job']} query={doc['query']} count={doc['count']} "
        f"cache={doc['cache']}"
    )
    if not args.quiet:
        for community in doc["communities"]:
            print(" ".join(str(v) for v in community))
    return EXIT_OK
