#!/usr/bin/env python3
"""The performance ledger: the repo's one benchmark.

    python benchmarks/ledger/run.py [--seed N] [--workload NAME] [--sets K]
                                    [--smoke] [--out DIR]

runs every workload (or one) in a fresh subprocess, timed and then
traced, prints every metric by name with its unit, checks every job
against the serial oracle and writes ``<out>/ledger.json``. It exits
non-zero when any operation failed.

The driver's form, named by the root ``BENCHMARK.json``,

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

makes one run of one workload and ends its output with one JSON line:
the gated end-to-end metrics with ``--trace 0``, the per-layer table
with ``--trace 1``. See README.md for the metric and workload tables.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path[:0] = [HERE, SRC]

import compare  # noqa: E402
import instances  # noqa: E402
from spec import (  # noqa: E402
    DRIVER_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS, Workload,
)

#: A run must end within the driver's 180 s; the child gets a little less.
CHILD_TIMEOUT_S = 170.0
SETUP_ROUNDS = 3
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fingerprint() -> dict:
    """What the numbers were taken on, so two ledgers can be compared."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i & 7
    spin = time.perf_counter() - t0
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mp_start_method": multiprocessing.get_start_method(),
        "git_commit": commit,
        # Pure-Python loop iterations per second: one number for "how fast
        # is this interpreter on this core right now".
        "spin_mops": 2.0 / spin,
    }


def run_workload(
    wl: Workload, seed: int, instance_seed: int, seconds: float, trace: int,
    smoke: bool, spans_path: str | None = None,
) -> dict:
    """Prepare the instance here, run the workload in a child, fold both."""
    work_dir = os.path.join(ROOT, ".bench_work", f"{os.getpid()}-{wl.name}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    rounds = 1 if (smoke or trace) else SETUP_ROUNDS
    try:
        prepared = [instances.prepare(wl, seed, instance_seed, work_dir) for _ in range(rounds)]
        result_path = os.path.join(work_dir, "result.json")
        command = [
            sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", wl.name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--setup-rounds", str(rounds),
            "--graph", os.path.join(work_dir, "graph.txt"),
            "--oracle", os.path.join(work_dir, "oracle.txt"),
            "--work-dir", work_dir, "--result", result_path,
        ]
        if smoke:
            command.append("--smoke")
        if spans_path:
            command += ["--spans", spans_path]
        env = dict(os.environ, TMPDIR=work_dir,
                   PYTHONPATH=os.pathsep.join(
                       [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        # Its own session, so a hung run's workers and daemon die with it.
        child = subprocess.Popen(command, env=env, cwd=ROOT, start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if code == 0 and os.path.exists(result_path):
            with open(result_path) as f:
                out = json.load(f)
        else:
            reason = "timed out" if code is None else f"exited {code}"
            out = {"attempted": 1, "failed": 1, "failures": [f"workload process {reason}"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return fold(wl, out, prepared, seed, instance_seed, trace)


def fold(wl: Workload, out: dict, prepared: list[dict], seed: int, instance_seed: int,
         trace: int) -> dict:
    """Turn a child's raw document into named metrics."""
    oracle = prepared[-1]
    failures = list(out.get("failures", ()))
    failed = out["failed"]
    if not seed and not instance_seed and (
        oracle["results"] != wl.pinned_results or oracle["sha256"] != wl.pinned_sha256
    ):
        failed += 1
        failures.append(
            f"oracle family ({oracle['results']} results, sha256 {oracle['sha256'][:12]}) "
            f"is not the pinned one ({wl.pinned_results}, {wl.pinned_sha256[:12]})")
    run = {
        "workload": wl.name, "seed": seed, "instance_seed": instance_seed, "trace": trace,
        "attempted": out["attempted"], "failed": failed, "failures": failures,
        "oracle": {"results": oracle["results"], "sha256": oracle["sha256"]},
        "end_to_end": {}, "per_layer": {},
    }
    e2e = run["end_to_end"]
    e2e["fail_frac"] = {"value": failed / out["attempted"]}
    if out.get("job_walls_s"):
        e2e["job_wall_s"] = compare.median_iqr(out["job_walls_s"])
        e2e["results_per_s"] = compare.median_iqr(
            [out["results"] / wall for wall in out["job_walls_s"]])
        e2e["setup_s"] = compare.median_iqr(
            [p["generate_s"] + p["oracle_s"] + s
             for p, s in zip(prepared, out["setup_rounds_s"])])
    if "peak_rss_mb" in out:
        e2e["peak_rss_mb"] = {"value": out["peak_rss_mb"]}
    for name in ("query_per_s", "query_p50_ms"):
        if name in out.get("queries", {}):
            e2e[name] = {"value": out["queries"][name]}
    if trace and out.get("per_layer"):
        layer = run["per_layer"]
        layer.update({k: {"value": v} for k, v in out["per_layer"].items()})
        layer["graph.generate_s"] = {"value": statistics.median(p["generate_s"] for p in prepared)}
        layer["graph.oracle_s"] = {"value": statistics.median(p["oracle_s"] for p in prepared)}
        layer.update({k: {"value": v} for k, v in out.get("queries", {}).items()})
        layer["fail_frac"] = e2e["fail_frac"]
    for name, cell in (*e2e.items(), *run["per_layer"].items()):
        cell["unit"] = UNITS.get(name, "s")
    return run


def print_run(run: dict) -> None:
    head = f"[{run['workload']} seed={run['seed']} trace={run['trace']}]"
    print(f"{head} attempted={run['attempted']} failed={run['failed']} "
          f"oracle_results={run['oracle']['results']}")
    for reason in run["failures"]:
        print(f"{head} FAILURE: {reason}")
    for section in ("end_to_end", "per_layer"):
        for name, cell in run[section].items():
            if name.startswith("_") or (section == "per_layer" and name in run["end_to_end"]):
                continue
            value = "null" if cell["value"] is None else f"{cell['value']:.6g}"
            extra = ""
            if "samples" in cell:
                extra = f"  (median of {len(cell['samples'])}"
                if "q1" in cell:
                    extra += f", IQR {cell['q1']:.6g}..{cell['q3']:.6g}"
                extra += ")"
            print(f"{head} {name} = {value} {cell['unit']}{extra}")


def driver_line(run: dict, trace: int, spec: dict) -> str:
    """The driver's last line: every metric of the section, as a number."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        cell = run[section].get(m["name"])
        # A layer the workload does not exercise, or a scaling cell taken
        # on too few cores, reads 0: the driver wants a number for each.
        value = cell["value"] if cell and cell["value"] is not None else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
    })


def full_run(args, spec: dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(args.out, exist_ok=True)
    ledger = {"fingerprint": fingerprint(), "seed": args.seed,
              "instance_seed": args.instance_seed, "seconds": args.seconds,
              "smoke": args.smoke, "sets": []}
    print("fingerprint: " + json.dumps(ledger["fingerprint"]))
    failed = 0
    for k in range(args.sets):
        # Alternate the order, so no workload always runs on a warm machine.
        order = names if k % 2 == 0 else names[::-1]
        runs = {}
        for name in order:
            wl = WORKLOADS[name]
            common = (wl, args.seed, args.instance_seed, args.seconds)
            # A smoke run takes its end-to-end cells from the traced run's
            # one untraced job; a real one from a separate untraced run.
            parts = [] if args.smoke else [run_workload(*common, 0, False)]
            parts.append(run_workload(
                *common, 1, args.smoke,
                spans_path=os.path.join(args.out, f"spans-{name}.jsonl")))
            run = dict(parts[0], trace=1, per_layer=parts[-1]["per_layer"],
                       attempted=sum(p["attempted"] for p in parts),
                       failed=sum(p["failed"] for p in parts),
                       failures=[f for p in parts for f in p["failures"]])
            run["end_to_end"]["fail_frac"]["value"] = run["failed"] / run["attempted"]
            run["per_layer"]["fail_frac"] = run["end_to_end"]["fail_frac"]
            print_run(run)
            failed += run["failed"]
            runs[name] = run
        ledger["sets"].append({name: runs[name] for name in names})
    if args.sets >= 2:
        ledger["aa"] = compare.rows(ledger, ledger, a_sets=[0], b_sets=[1])
        print("\nA/A: set 1 against set 2 of this run")
        print(compare.render(ledger["aa"]))
    path = os.path.join(args.out, "ledger.json")
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1)
    print(f"\nwrote {path}; failed operations: {failed}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    spec = manifest()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the edge list and draws the query mix; the work stays "
                        "the instance's (default 0: the registered analogs as generated)")
    parser.add_argument("--instance-seed", type=int, default=0,
                        help="added to the generator seed: another graph, other numbers")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of a run's timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: one run of --workload, then one JSON line")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the whole suite K times, alternating workload order")
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition per workload, no warm-up (for the tests)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for ledger.json and spans-<workload>.jsonl")
    args = parser.parse_args(argv)

    if args.trace is None:
        return full_run(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    run = run_workload(WORKLOADS[args.workload], args.seed, args.instance_seed,
                       args.seconds, args.trace, args.smoke)
    print_run(run)
    missing = [m.name for m in DRIVER_END_TO_END if m.name not in run["end_to_end"]]
    if missing:
        print(f"run.py: no result: {', '.join(missing)} not measured", file=sys.stderr)
        return 1
    print(driver_line(run, args.trace, spec))
    return 1 if run["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
