"""``repro sim-fuzz``: sweep the deterministic simulator over seeds.

One process, no sockets, virtual time only. Each seed is a complete
cluster job under a randomly drawn :class:`~.plan.FaultPlan`; a failing
seed prints a one-line replay command and dumps its virtual-time trace
as JSONL, which ``repro trace-report`` reads unchanged.

Usage::

    repro sim-fuzz --seeds 200            # sweep seeds 0..199
    repro sim-fuzz --seeds 200 --base 1700000000
    repro sim-fuzz --replay 1234          # re-run one seed, verbosely
    repro sim-fuzz --replay 1234 --trace fail.jsonl --log fail.log
"""

from __future__ import annotations

import argparse
import sys
import time

from .harness import SimReport, run_sim

__all__ = ["sim_fuzz_cli"]


def _dump_failure(report: SimReport, trace_path: str | None,
                  log_path: str | None) -> None:
    if trace_path:
        written = report.tracer.dump_jsonl(trace_path)
        print(f"  trace: {written} events -> {trace_path} "
              f"(inspect with: repro trace-report {trace_path})")
    if log_path:
        with open(log_path, "w") as fh:
            fh.write("\n".join(report.log) + "\n")
        print(f"  event log: {len(report.log)} lines -> {log_path}")


def sim_fuzz_cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro sim-fuzz",
        description=(
            "Deterministic simulation fuzzing of the cluster control "
            "plane: virtual time, seeded faults, serial-oracle checking."
        ),
    )
    parser.add_argument("--seeds", type=int, default=100,
                        help="number of consecutive seeds to sweep")
    parser.add_argument("--base", type=int, default=0,
                        help="first seed of the sweep (rotate in CI)")
    parser.add_argument("--replay", type=int, default=None, metavar="SEED",
                        help="re-run one seed and report it in detail")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="JSONL trace dump path for failures/replays")
    parser.add_argument("--log", default=None, metavar="FILE",
                        help="virtual-time event log path for failures/replays")
    args = parser.parse_args(argv)

    if args.replay is not None:
        report = run_sim(args.replay)
        status = "PASS" if report.ok else "FAIL"
        print(f"seed {report.seed}: {status} — {report.events} events, "
              f"virtual t={report.virtual_time:.3f}s, "
              f"{report.num_workers} "
              f"{'warm-start ' if report.warm_start else ''}workers")
        if not report.ok:
            print(f"  failure: {report.failure}")
        _dump_failure(report, args.trace, args.log)
        return 0 if report.ok else 1

    started = time.perf_counter()
    failures: list[SimReport] = []
    for i in range(args.seeds):
        seed = args.base + i
        report = run_sim(seed)
        if not report.ok:
            failures.append(report)
            print(f"seed {seed}: FAIL — {report.failure}", file=sys.stderr)
            print(f"  replay: repro sim-fuzz --replay {seed} "
                  f"--trace seed{seed}.jsonl --log seed{seed}.log",
                  file=sys.stderr)
            _dump_failure(
                report,
                args.trace or f"sim-fail-{seed}.jsonl",
                args.log or f"sim-fail-{seed}.log",
            )
    elapsed = time.perf_counter() - started
    print(f"sim-fuzz: {args.seeds - len(failures)}/{args.seeds} seeds passed "
          f"(base {args.base}) in {elapsed:.1f}s")
    return 1 if failures else 0
