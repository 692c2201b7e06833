"""Observability overhead — the same run with tracing off vs on.

Every span site in the hot path (`root_spawn`, `batch_mine`,
`spill_refill`, `steal_transfer`, `lease_reclaim`, `result_fold`)
guards its clock reads behind ``tracer.enabled``, so the `NullTracer`
run is the engine's true baseline. This benchmark mines the same
instance twice through `mine_parallel` — once untraced, once with a
real `Tracer` capturing the full event stream including spans — and
reports the relative wall-clock overhead of turning observability on.

The contract claimed in docs/OBSERVABILITY.md: tracing costs < 5 %.
Smoke mode (``REPRO_BENCH_SMOKE=1``, the CI perf-smoke job) checks a
relaxed 15 % bound on one small instance — shared CI runners are too
noisy for a tight single-digit-percent assertion, and a real
regression (an unguarded clock read or an emit on the pick fast path)
shows up as 2-10x, not single digits.

Artifacts: benchmarks/out/obs_overhead.txt and
benchmarks/out/obs_overhead.json (``instance``, ``cpu_count``, one
``rows`` entry per case, ``target_overhead``, ``target_met``).
"""

import json
import os
import time

from repro.bench import report
from repro.graph.generators import planted_quasicliques
from repro.gthinker import EngineConfig, mine_parallel
from repro.gthinker.tracing import Tracer

TARGET_OVERHEAD = 0.05
SMOKE_OVERHEAD = 0.15
REPEATS = 3

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _best_of(fn, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _cases():
    # Mining work must dominate: span cost is per scheduling event, so a
    # trivially easy instance measures the tracer, not the contract.
    if SMOKE:
        pg = planted_quasicliques(
            n=300, avg_degree=9, num_plants=2, plant_size=22, gamma=0.78,
            seed=11,
        )
        return [("smoke_serial", pg.graph, 0.78, 18, EngineConfig())]
    pg = planted_quasicliques(
        n=400, avg_degree=10, num_plants=3, plant_size=24, gamma=0.75,
        seed=11,
    )
    return [("serial", pg.graph, 0.75, 20, EngineConfig())]


def _compare(graph, gamma, min_size, config):
    # One untimed warm-up so cold-start costs (imports, allocator, JIT-y
    # dict sizing) don't bias whichever arm runs first.
    mine_parallel(graph, gamma, min_size, config)
    off_s, off_out = _best_of(
        lambda: mine_parallel(graph, gamma, min_size, config)
    )

    def traced():
        tracer = Tracer()
        out = mine_parallel(graph, gamma, min_size, config, tracer=tracer)
        return out, tracer

    on_s, (on_out, tracer) = _best_of(traced)
    assert on_out.maximal == off_out.maximal, (
        "tracing must not change the mined result set"
    )
    spans = sum(1 for e in tracer.events() if e.kind == "span_begin")
    return off_s, on_s, len(tracer.events()), spans


def test_obs_overhead(benchmark):
    cases = _cases()
    measurements = benchmark.pedantic(
        lambda: [
            (name, *_compare(graph, gamma, min_size, config))
            for name, graph, gamma, min_size, config in cases
        ],
        rounds=1, iterations=1,
    )

    bound = SMOKE_OVERHEAD if SMOKE else TARGET_OVERHEAD
    rows = []
    json_rows = []
    overheads = {}
    for name, off_s, on_s, events, spans in measurements:
        overhead = (on_s - off_s) / off_s if off_s > 0 else 0.0
        overheads[name] = overhead
        rows.append([
            name, f"{off_s:.3f}", f"{on_s:.3f}",
            f"{overhead * 100:+.1f}%", events, spans,
        ])
        json_rows.append({
            "dataset": name, "backend": "untraced", "workers": 1,
            "wall_seconds": off_s, "speedup_vs_serial": 1.0,
            "results": events,
        })
        json_rows.append({
            "dataset": name, "backend": "traced", "workers": 1,
            "wall_seconds": on_s,
            "speedup_vs_serial": off_s / on_s if on_s > 0 else float("inf"),
            "results": events,
        })

    report(
        "Observability overhead — identical run, tracing off vs on",
        ["case", "untraced s", "traced s", "overhead", "events", "spans"],
        rows,
        notes=(
            "Tracing on captures the full event stream (scheduling events "
            "+ retroactive span pairs); tracing off is the NullTracer "
            "fast path with zero clock reads. Contract: overhead "
            f"< {TARGET_OVERHEAD:.0%} (smoke bound {SMOKE_OVERHEAD:.0%})."
        ),
        out_name="obs_overhead",
    )

    out_dir = os.environ.get("REPRO_BENCH_OUT", "benchmarks/out")
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "instance": {
            "corpus": "smoke_planted" if SMOKE else "planted_500",
            "cases": [c[0] for c in cases],
            "repeats": REPEATS,
            "timing": "best_of",
        },
        "cpu_count": os.cpu_count(),
        "rows": json_rows,
        "target_overhead": bound,
        "target_met": all(o < bound for o in overheads.values()),
    }
    with open(os.path.join(out_dir, "obs_overhead.json"), "w") as f:
        json.dump(payload, f, indent=2)

    for name, o in overheads.items():
        assert o < bound, (
            f"tracing overhead on {name} is {o:.1%}, bound {bound:.0%}"
        )
