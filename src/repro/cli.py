"""Command-line front end: mine maximal quasi-cliques from an edge list.

Examples::

    quasiclique-mine graph.txt --gamma 0.9 --min-size 18
    quasiclique-mine graph.txt --gamma 0.8 --min-size 10 \
        --machines 2 --threads 4 --tau-split 64 --tau-time 5000
    quasiclique-mine graph.txt --gamma 0.8 --min-size 10 \
        --backend process --num-procs 4
    quasiclique-mine graph.txt --gamma 0.8 --min-size 10 \
        --backend cluster --num-procs 2
    quasiclique-mine --dataset hyves --machines 16 --threads 32
    quasiclique-mine cluster-master graph.txt --gamma 0.8 --min-size 10 \
        --workers 4 --port 7464
    quasiclique-mine cluster-worker --host master-host --port 7464
    quasiclique-mine cluster-status --host master-host --port 7464
    quasiclique-mine trace-report run.jsonl --top 10
    quasiclique-mine serve --root state/ --port 7477
    quasiclique-mine submit --url http://localhost:7477 graph.txt \
        --gamma 0.9 --min-size 10 --wait
    quasiclique-mine jobs --url http://localhost:7477
    quasiclique-mine communities --url http://localhost:7477 job-000001 \
        --vertex 42 --top 5
    quasiclique-mine graph.txt --gamma 0.9 --min-size 10 --query 42
    quasiclique-mine graph.txt --gamma 0.9 --min-size 10 \
        --backend process --num-procs 4 --checkpoint-dir ckpt/
    quasiclique-mine --postprocess raw.txt maximal.txt
    quasiclique-mine graph.txt --stats
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .core.miner import mine_maximal_quasicliques
from .core.quasiclique import check_params
from .core.query import mine_containing
from .core.resultsio import postprocess_file
from .datasets.registry import build_dataset, dataset_names, get_dataset
from .graph.io import read_edge_list
from .gthinker.config import BACKENDS, EngineConfig, check_topology
from .gthinker.engine import mine_parallel
from .gthinker.engine_mp import mine_multiprocess


def format_run_summary(out, backend: str | None = None,
                       workers: int | None = None) -> str:
    """The per-backend ``key=value`` tail of the one-line run summary.

    Every front end (the local CLI, the cluster-master subcommand)
    prints the same line, so the fields live here in exactly one place.
    The ``backend=process procs=N`` / ``backend=cluster workers=N``
    prefixes are load-bearing: the CI smoke jobs grep for them.
    """
    m = out.metrics
    parts: list[str] = []
    if m.virtual_makespan:
        parts += [f"virtual_makespan={m.virtual_makespan:.0f}",
                  f"utilization={m.utilization:.2f}"]
    if backend == "process":
        parts.append(f"backend=process procs={workers}")
    elif backend == "cluster":
        parts.append(f"backend=cluster workers={workers}")
    parts += [f"tasks={m.tasks_executed}", f"decomposed={m.tasks_decomposed}"]
    if backend == "cluster":
        parts += [f"steals={m.steals}", f"steals_sent={m.steals_sent}"]
    else:
        parts.append(f"spills={m.spill_batches}")
    if m.workers_died:
        parts += [
            f"workers_died={m.workers_died}",
            f"retried={m.tasks_retried}",
            f"quarantined={m.tasks_quarantined}",
        ]
        if m.stale_results_dropped:
            parts.append(f"stale_dropped={m.stale_results_dropped}")
    return " " + " ".join(parts)


def dump_metrics_json(metrics, path: str) -> None:
    """Write one run's EngineMetrics as a JSON document."""
    import dataclasses
    import json

    with open(path, "w") as f:
        json.dump(dataclasses.asdict(metrics), f, indent=2, sort_keys=True)
        f.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiclique-mine",
        description="Mine all maximal γ-quasi-cliques of an undirected graph "
        "(VLDB 2020 algorithm-system codesign reproduction).",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("graph", nargs="?", help="edge-list file (SNAP format)")
    src.add_argument(
        "--dataset",
        choices=dataset_names(),
        help="mine a built-in synthetic analog of a paper dataset",
    )
    src.add_argument(
        "--postprocess", nargs=2, metavar=("SRC", "DST"),
        help="maximality-filter a result file and exit",
    )
    parser.add_argument("--gamma", type=float, default=None,
                        help="degree threshold γ ∈ [0.5, 1]")
    parser.add_argument("--min-size", type=int, default=None,
                        help="minimum quasi-clique size τ_size")
    parser.add_argument("--machines", type=int, default=1,
                        help="machines M of the M x T topology the serial "
                        "backend schedules onto on virtual time (default: "
                        "1; process and cluster workers run one machine x "
                        "one thread each)")
    parser.add_argument("--threads", type=int, default=1,
                        help="mining threads T per machine of the M x T "
                        "topology; serial backend only (default: 1)")
    parser.add_argument("--tau-split", type=int, default=64,
                        help="big-task routing / split threshold")
    parser.add_argument("--tau-time", type=float, default=float("inf"),
                        help="time-delayed decomposition budget "
                        "(ops by default, seconds with --wall-clock)")
    parser.add_argument("--wall-clock", action="store_true",
                        help="interpret --tau-time as seconds")
    parser.add_argument("--decompose", choices=["timed", "size", "none"],
                        default="timed")
    parser.add_argument("--backend",
                        choices=BACKENDS,
                        default=None,
                        help="executor: 'serial' (default; the engine on "
                        "--machines x --threads in one thread, on virtual "
                        "time above 1 x 1), 'process' (the cluster "
                        "runtime on localhost with warm-start workers that "
                        "hold the whole graph; true multi-core), "
                        "'cluster' (localhost TCP master/worker runtime; "
                        "workers get a partition and fetch the rest; "
                        "multi-host via the cluster-master/cluster-worker "
                        "subcommands)")
    parser.add_argument("--num-procs", type=int, default=0, metavar="N",
                        help="process/cluster-backend worker count "
                        "(0 = cpu count)")
    parser.add_argument("--mp-start-method", default=None,
                        choices=["fork", "spawn", "forkserver"],
                        help="process/cluster-backend start method "
                        "(default: fork where available, else spawn)")
    parser.add_argument("--max-attempts", type=int, default=3, metavar="N",
                        help="process/cluster fault tolerance: dispatches "
                        "per work unit before it is quarantined as "
                        "poisoned (default: 3)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        metavar="SECONDS",
                        help="process/cluster fault tolerance: base delay "
                        "before redispatching a reclaimed work unit; "
                        "doubles per attempt (default: 0.05)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record scheduler events and write them as JSON "
                        "lines to FILE (engine modes)")
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write the run's engine metrics as JSON to FILE "
                        "(engine modes only)")
    parser.add_argument("--progress", action="store_true",
                        help="render live progress snapshots to stderr "
                        "(process/cluster backends)")
    parser.add_argument("--serial", action="store_true",
                        help="use the plain serial miner (no engine)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    parser.add_argument("--output", help="write results (one set per line)")
    parser.add_argument("--query", type=int, action="append", default=None,
                        metavar="V",
                        help="mine only quasi-cliques containing vertex V "
                        "(repeatable)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="run resumably on any --backend, checkpointing "
                        "each chunk of spawn roots into this directory; "
                        "rerun with the same directory to resume")
    parser.add_argument("--stats", action="store_true",
                        help="print graph statistics and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else argv
    if raw and raw[0] in ("cluster-master", "cluster-worker", "cluster-status"):
        from .gthinker.cluster.cli import master_cli, status_cli, worker_cli

        dispatch = {"cluster-master": master_cli,
                    "cluster-worker": worker_cli,
                    "cluster-status": status_cli}[raw[0]]
        return dispatch(raw[1:])
    if raw and raw[0] in ("serve", "submit", "jobs", "communities"):
        from .service.cli import service_cli

        return service_cli(raw[0], raw[1:])
    if raw and raw[0] == "trace-report":
        from .gthinker.obs.report import report_cli

        return report_cli(raw[1:])
    if raw and raw[0] == "sim-fuzz":
        from .gthinker.sim.cli import sim_fuzz_cli

        return sim_fuzz_cli(raw[1:])
    args = build_parser().parse_args(raw)

    if args.postprocess:
        read, kept = postprocess_file(args.postprocess[0], args.postprocess[1])
        print(f"postprocess: read={read} kept={kept} -> {args.postprocess[1]}")
        return 0

    if args.dataset:
        spec = get_dataset(args.dataset)
        graph = build_dataset(args.dataset).graph
        gamma = args.gamma if args.gamma is not None else spec.gamma
        min_size = args.min_size if args.min_size is not None else spec.min_size
    else:
        graph = read_edge_list(args.graph)
        if args.gamma is None or args.min_size is None:
            print("error: --gamma and --min-size are required with a graph file",
                  file=sys.stderr)
            return 2
        gamma, min_size = args.gamma, args.min_size

    if args.stats:
        from .graph.stats import graph_stats

        stats = graph_stats(graph)
        print(f"|V|={stats.num_vertices} |E|={stats.num_edges} "
              f"deg[min/mean/max]={stats.min_degree}/"
              f"{stats.mean_degree:.2f}/{stats.max_degree} "
              f"degeneracy={stats.degeneracy} "
              f"clustering={stats.global_clustering:.3f} "
              f"density={stats.density:.5f}")
        return 0

    try:
        check_params(gamma, min_size)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    backend = args.backend
    if backend is not None and (args.serial or args.query):
        print("error: --backend selects an engine executor; it cannot be "
              "combined with --serial or --query", file=sys.stderr)
        return 2
    if args.checkpoint_dir and (args.serial or args.query or args.mp_start_method):
        print("error: --checkpoint-dir runs the engine chunk by chunk; it "
              "cannot be combined with --serial, --query, or "
              "--mp-start-method", file=sys.stderr)
        return 2
    config = EngineConfig(
        num_machines=args.machines,
        threads_per_machine=args.threads,
        tau_split=args.tau_split,
        tau_time=args.tau_time,
        time_unit="wall" if args.wall_clock else "ops",
        decompose=args.decompose,
        backend=backend or "serial",
        num_procs=args.num_procs,
        max_attempts=args.max_attempts,
        retry_backoff=args.retry_backoff,
    )

    if not (args.serial or args.query):
        try:
            check_topology(config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.metrics_json and (args.serial or args.query):
        print("error: --metrics-json requires an engine mode "
              "(default, --backend or --checkpoint-dir)",
              file=sys.stderr)
        return 2

    on_progress = None
    if args.progress:
        if config.backend not in ("process", "cluster"):
            print("error: --progress requires --backend process or cluster "
                  "(the distributed coordinators emit the snapshots)",
                  file=sys.stderr)
            return 2
        from .gthinker.obs import format_progress

        on_progress = lambda s: print(format_progress(s), file=sys.stderr)  # noqa: E731

    tracer = None
    if args.trace:
        if args.serial or args.query or args.checkpoint_dir:
            print("error: --trace requires an engine mode "
                  "(default or --backend)", file=sys.stderr)
            return 2
        trace_dir = os.path.dirname(os.path.abspath(args.trace))
        if not os.path.isdir(trace_dir):
            print(f"error: --trace directory does not exist: {trace_dir}",
                  file=sys.stderr)
            return 2
        from .gthinker.tracing import Tracer

        tracer = Tracer()

    start = time.perf_counter()
    if args.query:
        try:
            result = mine_containing(graph, args.query, gamma, min_size)
        except ValueError as exc:  # a query vertex not in the graph
            print(f"error: {exc}", file=sys.stderr)
            return 2
        maximal = result.maximal
        extra = f" query={sorted(set(args.query))}"
    elif args.checkpoint_dir:
        from .service.runner import run_checkpointed

        out = run_checkpointed(graph, gamma, min_size, config,
                               work_dir=args.checkpoint_dir,
                               on_progress=on_progress)
        maximal = out.maximal
        extra = (f" checkpoint={args.checkpoint_dir} "
                 f"recovered={out.roots_recovered}/{out.roots_total}")
    elif args.serial:
        result = mine_maximal_quasicliques(graph, gamma, min_size)
        maximal = result.maximal
        extra = ""
    elif config.backend == "process":
        out = mine_multiprocess(graph, gamma, min_size, config, tracer=tracer,
                                start_method=args.mp_start_method,
                                on_progress=on_progress)
        maximal = out.maximal
        extra = format_run_summary(out, "process", config.resolved_num_procs)
    elif config.backend == "cluster":
        from .gthinker.cluster import mine_cluster

        out = mine_cluster(graph, gamma, min_size, config, tracer=tracer,
                           start_method=args.mp_start_method,
                           on_progress=on_progress)
        maximal = out.maximal
        extra = format_run_summary(out, "cluster", config.resolved_num_procs)
    else:
        out = mine_parallel(graph, gamma, min_size, config, tracer=tracer)
        maximal = out.maximal
        extra = format_run_summary(out)
    elapsed = time.perf_counter() - start

    if args.metrics_json:
        dump_metrics_json(out.metrics, args.metrics_json)
    if tracer is not None:
        written = tracer.dump_jsonl(args.trace)
        extra += f" trace_events={written}"

    print(
        f"|V|={graph.num_vertices} |E|={graph.num_edges} gamma={gamma} "
        f"min_size={min_size} results={len(maximal)} time={elapsed:.2f}s{extra}"
    )
    if not args.quiet:
        for qc in sorted(maximal, key=lambda s: (-len(s), sorted(s))):
            print(" ".join(str(v) for v in sorted(qc)))
    if args.output:
        with open(args.output, "w") as f:
            for qc in sorted(maximal, key=lambda s: (-len(s), sorted(s))):
                f.write(" ".join(str(v) for v in sorted(qc)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
