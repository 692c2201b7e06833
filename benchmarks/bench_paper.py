"""Section 7 of the paper — Tables 1–6, Figures 1–3, the ablations and
the Quick baseline — as one table of experiments.

Each ``EXPERIMENTS`` entry pairs its arms (data: a ``sim_run`` override,
``MinerOptions`` fields, or a dataset list) with one report function,
which renders the paper's rows to ``benchmarks/out/<out_name>.txt`` and
asserts the paper's shape stated in its docstring. One parametrised
test runs one experiment end to end::

    pytest benchmarks/bench_paper.py --benchmark-only             # all
    pytest benchmarks/bench_paper.py -k table3 --benchmark-only   # one

Absolute values are not comparable with the paper (synthetic analogs,
Python, a simulated cluster); the asserted shapes are the deliverable.
Every artifact except Table 2's wall-clock ``time`` column is
deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from repro.bench import report
from repro.core.miner import mine_maximal_quasicliques
from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.options import MinerOptions
from repro.core.quasiclique import kcore_threshold
from repro.core.quick import mine_quick, mine_quick_with_kcore
from repro.datasets import dataset_names
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.gthinker import EngineConfig, mine_parallel
from conftest import sim_run

INF = float("inf")

#: experiment id → (report function, {arm key: (dataset name | None, run)}).
#: ``run(spec, pg)`` mines one arm; a dataset-free arm is ``run()``.
EXPERIMENTS: dict[str, tuple] = {}


def experiment(arms):
    """Register the decorated report function, under its name, with its arms."""

    def register(render):
        EXPERIMENTS[render.__name__] = (render, arms)
        return render

    return register


def sim(**overrides):
    """Arm: one simulated-cluster run (``sim_run`` with these overrides)."""
    return lambda spec, pg: sim_run(pg.graph, spec, **overrides)


def mine(mode="ego", **options):
    """Arm: one serial mining run with these ``MinerOptions`` fields."""
    opts = MinerOptions(**options)
    return lambda spec, pg: mine_maximal_quasicliques(
        pg.graph, spec.gamma, spec.min_size, options=opts, mode=mode
    )


def axes(r):
    """The tau_time and tau_split values of a (tau_time, tau_split)-keyed sweep."""
    return [list(dict.fromkeys(axis)) for axis in zip(*r)]


def grid(r, cell):
    """Headers and rows (one per tau_time) of a (tau_time, tau_split) sweep."""
    times, splits = axes(r)
    headers = ["tau_time(ops) \\ tau_split"] + [str(t) for t in splits]
    return headers, [[f"{tt:,}"] + [cell(r[tt, ts]) for ts in splits] for tt in times]


def counts(out):
    """Table 3b/4b cell: raw candidates (maximal)."""
    return f"{len(out.candidates)} ({len(out.maximal)})"


# -- Figures 1–3: per-task cost on the youtube analog, no decomposition --

YOUTUBE_TASKS = {"run": ("youtube", sim(tau_time=INF, decompose="none"))}


@experiment(YOUTUBE_TASKS)
def fig1(r):
    """Figure 1 — distribution of per-task mining times (YouTube).

    Paper shape: across all tasks spawned by unpruned vertices, per-task
    time spans orders of magnitude with a tiny heavy tail — a handful of
    tasks dominate total mining time (the vertex-363 story).

    Measured analog: per-task mining ops on the youtube analog, bucketed
    on a log scale, plus tail-dominance statistics.
    """
    times = sorted((max(1, t.mining_ops) for t in r["run"].metrics.task_records), reverse=True)
    assert times, "no tasks executed"
    buckets = Counter(int(math.log10(t)) for t in times)
    rows = [
        [f"10^{b}..10^{b + 1}", count, "#" * min(60, count)]
        for b, count in sorted(buckets.items())
    ]
    total = sum(times)
    top1pct = times[: max(1, len(times) // 100)]
    rows += [
        ["-- tail stats --", "", ""],
        ["tasks", len(times), ""],
        ["max/median ratio", f"{times[0] / times[len(times) // 2]:,.0f}x", ""],
        ["top-1% share of work", f"{100 * sum(top1pct) / total:.0f}%", ""],
    ]
    report(
        "Figure 1 — per-task mining time distribution (youtube analog)",
        ["ops bucket", "tasks", ""],
        rows,
        notes=(
            "Paper shape: per-task times span orders of magnitude; a tiny tail\n"
            "dominates total work, so per-thread local queues alone head-of-line\n"
            "block (the motivation for the global big-task queue)."
        ),
        out_name="fig1_task_time_distribution",
    )
    assert times[0] / times[-1] >= 100, "expected orders-of-magnitude spread"
    assert sum(top1pct) / total > 0.2, "expected a dominant heavy tail"


@experiment(YOUTUBE_TASKS)
def fig2(r):
    """Figure 2 — mining time of the top-100 tasks (YouTube).

    Paper shape: sorting tasks by time shows a steep power-law-like
    decay; the single hottest task is far above the 100th.

    Measured analog: top-100 per-task mining ops on the youtube analog.
    """
    records = r["run"].metrics.task_records
    top = sorted(records, key=lambda t: t.mining_ops, reverse=True)[:100]
    scale = max(1, top[0].mining_ops // 60)
    rows = []
    for rank in (0, 1, 2, 3, 4, 9, 19, 49, len(top) - 1):
        if rank < len(top):
            t = top[rank]
            rows.append([
                rank + 1, t.root, t.subgraph_vertices,
                f"{t.mining_ops:,}", "#" * max(1, t.mining_ops // scale),
            ])
    report(
        "Figure 2 — top task mining times (youtube analog)",
        ["rank", "root", "|V(g)|", "mining ops", ""],
        rows,
        notes="Paper shape: steep decay; rank-1 far above rank-100.",
        out_name="fig2_top_tasks",
    )
    if len(top) >= 10:
        assert top[0].mining_ops >= 5 * top[min(99, len(top) - 1)].mining_ops, (
            "expected steep decay across the top ranks"
        )


def spearman_rank_correlation(xs, ys):
    def ranks(vals):
        rank_of = [0.0] * len(vals)
        for rank, i in enumerate(sorted(range(len(vals)), key=lambda i: vals[i])):
            rank_of[i] = float(rank)
        return rank_of

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(xs), sum(ry) / len(ys)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


@experiment(YOUTUBE_TASKS)
def fig3(r):
    """Figure 3 — task time vs subgraph size: time is unpredictable from size.

    Paper shape: tasks with subgraphs of comparable size differ in
    running time by orders of magnitude (two side-by-side tables,
    ~15k-vertex subgraphs at 5,000s vs 300,000s). This unpredictability
    is why regression models failed and why the paper resorts to the
    pay-as-you-go time-delayed decomposition.

    Measured analog: per-task (|V(g)|, mining ops) pairs on the youtube
    analog; within same-size bands we report the max/min time spread,
    plus a rank-correlation summary.
    """
    pairs = [
        (t.subgraph_vertices, max(1, t.mining_ops))
        for t in r["run"].metrics.task_records
        if t.subgraph_vertices > 0
    ]
    assert pairs
    bands: dict[int, list[int]] = {}
    for size, ops in pairs:
        bands.setdefault(size // 5, []).append(ops)
    rows, spreads = [], []
    for band, opses in sorted(bands.items()):
        if len(opses) < 2:
            continue
        spreads.append(max(opses) / min(opses))
        rows.append([
            f"{band * 5}..{band * 5 + 4}", len(opses),
            f"{min(opses):,}", f"{max(opses):,}", f"{spreads[-1]:,.1f}x",
        ])
    rho = spearman_rank_correlation([s for s, _ in pairs], [t for _, t in pairs])
    median_size = sorted(s for s, _ in pairs)[len(pairs) // 2]
    big = [(s, t) for s, t in pairs if s >= median_size]
    rho_big = spearman_rank_correlation([s for s, _ in big], [t for _, t in big])
    rows += [
        ["-- summary --", "", "", "", ""],
        ["rank corr (all tasks)", f"{rho:.2f}", "", "", ""],
        ["rank corr (big half)", f"{rho_big:.2f}", "", "", ""],
    ]
    report(
        "Figure 3 — task time vs subgraph size (youtube analog)",
        ["|V(g)| band", "tasks", "min ops", "max ops", "spread"],
        rows,
        notes=(
            "Paper shape: comparable-size subgraphs differ in mining time by\n"
            "orders of magnitude — size does not predict time, motivating\n"
            "time-delayed (pay-as-you-go) decomposition over size thresholds."
        ),
        out_name="fig3_time_vs_size",
    )
    assert max(spreads, default=1.0) >= 10, "expected same-size tasks with >=10x time spread"
    assert rho_big < 0.7, "size must be a weak predictor of time among the tasks that matter"


# -- Tables 1–6 -------------------------------------------------------------


@experiment({name: (name, lambda spec, pg: (spec, pg)) for name in dataset_names()})
def table1(r):
    """Table 1 — graph datasets: paper originals vs synthetic analogs."""
    rows = [
        [name, f"{spec.paper_vertices:,}", f"{spec.paper_edges:,}",
         f"{pg.graph.num_vertices:,}", f"{pg.graph.num_edges:,}", len(pg.planted)]
        for name, (spec, pg) in r.items()
    ]
    report(
        "Table 1 — datasets (paper original vs synthetic analog)",
        ["dataset", "paper |V|", "paper |E|", "analog |V|", "analog |E|", "plants"],
        rows,
        notes=(
            "Analogs are scaled down ~100-500x in |V| so Python-speed mining is\n"
            "tractable; they preserve heavy-tailed degrees plus planted dense\n"
            "modules (the mined quasi-cliques)."
        ),
        out_name="table1_datasets",
    )


def engine_run(spec, pg):
    """Arm: the in-process engine with the dataset's registered parameters."""
    config = EngineConfig(tau_split=spec.tau_split, tau_time=spec.tau_time_ops, time_unit="ops",
                          decompose="timed", queue_capacity=64, batch_size=8)
    return spec, mine_parallel(pg.graph, spec.gamma, spec.min_size, config)


@experiment({name: (name, engine_run) for name in dataset_names()})
def table2(r):
    """Table 2 — end-to-end results on all datasets.

    Paper columns: τ_size, γ, τ_split, τ_time, Time, RAM, Disk, Result #.
    Here: the analog is mined on the real (in-process) engine with the
    registered parameters; RAM is proxied by the peak count of pending
    tasks, disk by peak spilled bytes. Absolute times are not comparable
    (Python on 1 core vs C++ on 512 threads) — the shape that must hold
    is the *relative* dataset ordering: the coexpression/collaboration
    graphs are cheap, the overlapping-core social graphs dominate. The
    ordering is asserted on deterministic mining ops, not on wall time.
    """
    rows = [
        [name, spec.min_size, spec.gamma, spec.tau_split, f"{spec.tau_time_ops:g}",
         f"{out.metrics.wall_seconds:.2f}s", out.metrics.peak_pending_tasks,
         f"{out.metrics.spill_bytes_peak:,}B", len(out.maximal),
         spec.paper_result_count, f"{spec.paper_time_seconds:,.0f}s"]
        for name, (spec, out) in r.items()
    ]
    report(
        "Table 2 — results on all datasets (analog scale)",
        ["dataset", "tau_size", "gamma", "tau_split", "tau_time(ops)",
         "time", "peak tasks", "peak disk", "result #",
         "paper result #", "paper time"],
        rows,
        notes=(
            "Result counts differ from the paper (synthetic analogs at ~1/100\n"
            "scale); the preserved shape is the cost ordering — easy gene/\n"
            "collaboration graphs vs expensive overlapping-core social graphs."
        ),
        out_name="table2_all_datasets",
    )
    ops = {name: out.metrics.mining_stats.mining_ops for name, (_, out) in r.items()}
    social = ("youtube", "hyves", "enron")
    rest = max(v for name, v in ops.items() if name not in social)
    for name in social:
        assert ops[name] >= 10 * rest, f"{name} must cost >=10x any other analog"


@experiment({
    (tt, ts): ("cx_gse10158", sim(tau_time=tt, tau_split=ts))
    for tt in (100_000, 2_000, 200)  # analog of the paper's 20s … 0.01s sweep
    for ts in (500, 200, 50)
})
def table3(r):
    """Table 3 — effect of (τ_time, τ_split) on CX_GSE10158.

    Paper shape: on this *easy* dataset, shrinking τ_time only hurts —
    more tasks lose the Tfound-based non-maximal suppression (Alg. 10
    line 28), so (a) the raw result count grows and (b) total work
    rises from the extra candidate checks. The τ_split axis barely
    matters.

    Measured analog: total serial work (ops) and raw candidate count
    over a τ_time × τ_split grid on the simulated engine (1 thread, so
    "time" is total work — the serial-cost view the paper's Table 3
    takes).
    """
    report(
        "Table 3a — total work (ops) on cx_gse10158 analog",
        *grid(r, lambda o: f"{o.total_work:,.0f}"),
        notes="Paper shape: easy dataset → smaller tau_time only adds overhead.",
        out_name="table3a_gse_work",
    )
    report(
        "Table 3b — raw candidates (maximal) on cx_gse10158 analog",
        *grid(r, counts),
        notes=(
            "Paper shape: result count (pre-postprocessing) grows as tau_time\n"
            "shrinks — wrapped subtasks lose the non-maximal suppression of\n"
            "Algorithm 10 line 28. The maximal count (parenthesized) is stable."
        ),
        out_name="table3b_gse_counts",
    )
    times, splits = axes(r)
    for ts in splits:
        big, small = r[times[0], ts], r[times[-1], ts]
        assert len(small.candidates) >= len(big.candidates), "candidates must not shrink"
        assert len(small.maximal) == len(big.maximal), "maximal results must be invariant"


@experiment({
    (tt, ts): ("hyves", sim(machines=4, threads=4, tau_time=tt, tau_split=ts))
    for tt in (100_000, 20_000, 5_000)
    for ts in (50, 30, 20)
})
def table4(r):
    """Table 4 — effect of (τ_time, τ_split) on Hyves.

    Paper shape: on this *hard* dataset (expensive overlapping cores),
    decreasing τ_time is the major force bringing parallel time down —
    decomposition keeps all cores busy — while decreasing τ_split also
    helps; result counts stay essentially stable.

    Measured analog: virtual makespan on the simulated cluster (4
    machines × 4 threads, mirroring the cluster setting at reduced
    scale).
    """
    report(
        "Table 4a — virtual makespan on hyves analog (4x4 cluster)",
        *grid(r, lambda o: f"{o.makespan:,.0f}"),
        notes="Paper shape: hard dataset → smaller tau_time lowers parallel time.",
        out_name="table4a_hyves_makespan",
    )
    report(
        "Table 4b — raw candidates (maximal) on hyves analog",
        *grid(r, counts),
        notes=(
            "Paper shape: the raw result-file count grows as tau_time shrinks\n"
            "(wrapped subtasks lose Alg. 10 line 28's non-maximal suppression)\n"
            "while the postprocessed maximal count stays stable."
        ),
        out_name="table4b_hyves_counts",
    )
    times, splits = axes(r)
    assert len({len(o.maximal) for o in r.values()}) == 1, "maximal count must be stable"
    for ts in splits:
        big, small = r[times[0], ts], r[times[-1], ts]
        assert small.makespan <= big.makespan * 1.05, "smaller tau_time must not slow hyves down"
        assert len(small.candidates) >= len(big.candidates), "candidates must not shrink"


# The paper sweeps 16 machines x {4..32} threads and {2..16} machines x 32
# threads; the analog workload is ~1/100 scale, so the sweep is scaled
# down accordingly (saturation would otherwise hit at the first point).
SWEEP = [1, 2, 4, 8]


@experiment({
    "solo": ("enron", sim()),
    **{("vertical", t): ("enron", sim(machines=4, threads=t)) for t in SWEEP},
    **{("horizontal", m): ("enron", sim(machines=m, threads=4)) for m in SWEEP},
})
def table5(r):
    """Table 5 — vertical and horizontal scalability on Enron.

    Paper setting: (a) 16 machines, threads/machine ∈ {4, 8, 16, 32};
    (b) 32 threads/machine, machines ∈ {2, 4, 8, 16}. "The time keeps
    decreasing significantly as the count doubles."

    Measured analog: the same sweeps on the discrete-event simulated
    cluster over the enron analog — threads/machine at 4 machines, and
    machines at 4 threads. Virtual makespans are deterministic and the
    task set is identical across configurations, so the speedup curve
    is pure scheduling.
    """
    solo = r["solo"].makespan
    vertical = [r["vertical", t].makespan for t in SWEEP]
    horizontal = [r["horizontal", m] for m in SWEEP]
    report(
        "Table 5(a) — vertical scalability (4 machines, enron analog)",
        ["machines", "threads", "virtual makespan", "speedup vs 1x1"],
        [[4, t, f"{span:,.0f}", f"{solo / span:.1f}x"] for t, span in zip(SWEEP, vertical)],
        notes="Paper shape: time keeps decreasing as threads double (739→172s).",
        out_name="table5a_vertical",
    )
    report(
        "Table 5(b) — horizontal scalability (4 threads/machine, enron analog)",
        ["machines", "threads", "virtual makespan", "speedup vs 1x1", "steals"],
        [[m, 4, f"{o.makespan:,.0f}", f"{solo / o.makespan:.1f}x", o.metrics.steals]
         for m, o in zip(SWEEP, horizontal)],
        notes="Paper shape: time keeps decreasing as machines double (1035→172s).",
        out_name="table5b_horizontal",
    )
    for a, b in zip(vertical, vertical[1:]):
        assert b <= a * 1.02
    for a, b in zip(horizontal, horizontal[1:]):
        assert b.makespan <= a.makespan * 1.02
    assert solo / vertical[-1] > 4.0, "the codesign must show substantial parallel speedup"


@experiment({
    tt: ("hyves", sim(machines=4, threads=4, tau_time=tt))
    for tt in (200_000, 100_000, 50_000, 20_000, 5_000)
})
def table6(r):
    """Table 6 — mining vs subgraph-materialization time on Hyves.

    Paper columns: τ_time → job time, total task mining time, total
    subgraph materialization time, mining:materialization ratio. Shape:
    smaller τ_time → more decomposition → materialization share grows,
    yet even at the paper's smallest τ_time the ratio stays ~280:1 —
    the decomposition overhead is negligible next to the mining it
    unlocks.

    Measured analog: operation counts from the simulated cluster (4×4)
    on the hyves analog; ops are the deterministic cost model, so the
    ratio is exactly reproducible.
    """
    rows = []
    for tt, out in r.items():
        m = out.metrics
        ratio = m.mining_vs_materialization_ratio()
        rows.append([
            f"{tt:,}", f"{out.makespan:,.0f}", f"{m.total_mining_ops:,}",
            f"{m.total_materialize_ops:,}",
            "inf" if ratio == INF else f"{ratio:,.0f}x",
            m.tasks_decomposed, m.subtasks_created,
        ])
    report(
        "Table 6 — mining vs subgraph materialization (hyves analog, 4x4)",
        ["tau_time(ops)", "job makespan", "mining ops", "materialize ops",
         "mine:mat ratio", "decomposed", "subtasks"],
        rows,
        notes=(
            "Paper shape: smaller tau_time → more decomposition, materialization\n"
            "share grows but stays a small fraction of mining (paper: >=280x)."
        ),
        out_name="table6_materialization",
    )
    mats = [out.metrics.total_materialize_ops for out in r.values()]
    for a, b in zip(mats, mats[1:]):
        assert b >= a, "materialization ops must grow as tau_time shrinks"
    smallest = list(r.values())[-1].metrics.mining_vs_materialization_ratio()
    assert smallest > 5, "even at the smallest tau_time mining must dominate materialization"


# -- Ablations of the design choices the paper calls out ---------------------


@experiment({
    arm: ("hyves", sim(machines=4, threads=4, **overrides))
    for arm, overrides in {
        "none": dict(decompose="none", tau_time=INF),
        "size-threshold": dict(decompose="size", tau_split=20),
        "time-delayed": dict(decompose="timed"),
    }.items()
})
def ablation_decompose(r):
    """Ablation — decomposition strategy: none vs size-threshold vs time-delayed.

    The paper's Challenge 3: size-threshold splitting under-partitions
    some tasks and over-partitions others; time-delayed decomposition
    spends τ_time mining before splitting, so cheap tasks never pay
    overhead and expensive tasks split exactly where the time goes.

    Measured on the hyves analog (simulated 4×4): virtual makespan,
    total work, and materialization overhead per strategy.
    """
    rows = [
        [arm, f"{out.makespan:,.0f}", f"{out.total_work:,.0f}",
         f"{out.metrics.total_materialize_ops:,}", out.metrics.subtasks_created,
         len(out.maximal)]
        for arm, out in r.items()
    ]
    report(
        "Ablation — decomposition strategy (hyves analog, 4x4)",
        ["strategy", "virtual makespan", "total work", "materialize ops",
         "subtasks", "results"],
        rows,
        notes=(
            "Paper Challenge 3: time-delayed decomposition balances load\n"
            "without the over-partitioning cost of small size thresholds."
        ),
        out_name="ablation_decompose",
    )
    none, timed = r["none"], r["time-delayed"]
    assert timed.maximal == none.maximal
    assert timed.makespan <= none.makespan * 1.02, (
        "time-delayed decomposition must not lose to no decomposition"
    )


@experiment({
    arm: ("youtube", sim(threads=8, use_global_queue=on))
    for arm, on in (("on", True), ("off", False))
})
def ablation_global_queue(r):
    """Ablation — the reforge: global big-task queue on/off.

    The paper's Challenge 2: with only per-thread local queues, an
    expensive task causes head-of-line blocking and most cores idle.
    The reforged engine adds a per-machine global queue for big tasks
    that all threads drain with priority.

    Measured: virtual makespan on the youtube analog with the global
    queue enabled vs disabled (simulated 1×8; decomposition active in
    both arms, so the difference isolates queue routing).
    """
    on, off = r["on"], r["off"]
    report(
        "Ablation — global big-task queue (youtube analog, 1x8)",
        ["metric", "reforged (ON)", "original (OFF)"],
        [
            ["virtual makespan", f"{on.makespan:,.0f}", f"{off.makespan:,.0f}"],
            ["utilization", f"{on.utilization:.2f}", f"{off.utilization:.2f}"],
            ["results", len(on.maximal), len(off.maximal)],
        ],
        notes=(
            "Paper Challenge 2: without shared big-task scheduling, expensive\n"
            "tasks head-of-line block their local queue and cores idle."
        ),
        out_name="ablation_global_queue",
    )
    assert on.maximal == off.maximal
    assert on.makespan <= off.makespan * 1.02, "the reforged scheduler must not be slower"


def kcore_shrink(spec, pg):
    k = kcore_threshold(spec.gamma, spec.min_size)
    return k, pg.graph, k_core(pg.graph, k)


@experiment({
    "on": ("ca_grqc", mine(mode="global")),
    "off": ("ca_grqc", mine(mode="global", kcore_preprocess=False)),
    "shrink": ("ca_grqc", kcore_shrink),
})
def ablation_kcore(r):
    """Ablation — Theorem 2 k-core preprocessing (paper T1).

    The paper: Quick "somehow does not use this pruning rule, leading
    to a very poor scalability"; shrinking to the ceil(γ(τ_size−1))-core
    "is actually a dominating factor to scale beyond a small graph".

    Measured: serial mining work with and without the k-core shrink on
    the ca_grqc analog, plus how much of the graph the shrink removes.
    """
    on, off = r["on"], r["off"]
    k, graph, core = r["shrink"]
    report(
        f"Ablation — k-core preprocessing (ca_grqc analog, k={k})",
        ["metric", "k-core ON", "k-core OFF"],
        [
            ["graph |V| / k-core |V|", f"{graph.num_vertices:,}", f"{core.num_vertices:,}"],
            ["mining ops", f"{on.stats.mining_ops:,}", f"{off.stats.mining_ops:,}"],
            ["nodes expanded", f"{on.stats.nodes_expanded:,}", f"{off.stats.nodes_expanded:,}"],
            ["results", len(on.maximal), len(off.maximal)],
        ],
        notes="Paper (T1): the shrink is a dominating scalability factor.",
        out_name="ablation_kcore",
    )
    assert on.maximal == off.maximal, "preprocessing must not change results"
    assert on.stats.mining_ops < off.stats.mining_ops, (
        "k-core preprocessing must reduce mining work"
    )


@experiment({
    arm: ("enron", mine(**options))
    for arm, options in {
        "full": {},
        "no-lower-bound": {"use_lower_bound": False},
        "no-upper-bound": {"use_upper_bound": False},
        "no-degree": {"use_degree_prune": False},
        "no-cover-vertex": {"use_cover_vertex": False},
        "no-critical": {"use_critical_vertex": False},
        "no-lookahead": {"use_lookahead": False},
        "no-diameter": {"use_diameter_prune": False},
    }.items()
})
def ablation_pruning(r):
    """Ablation — pruning-rule families (P3–P7 plus lookahead).

    Quick's paper reports the lower-bound pruning alone is worth up to
    192×; this ablation measures each family's contribution on our
    analog by disabling one family at a time and comparing search-tree
    size and total mining work. Results must be identical in every arm.
    """
    full = r["full"]
    rows = [
        [arm, f"{res.stats.mining_ops:,}", f"{res.stats.nodes_expanded:,}",
         f"{res.stats.type1_pruned:,}", f"{res.stats.type2_pruned:,}",
         f"{res.stats.mining_ops / max(1, full.stats.mining_ops):.2f}x",
         len(res.maximal)]
        for arm, res in r.items()
    ]
    report(
        "Ablation — pruning families (enron analog)",
        ["arm", "mining ops", "nodes", "type-I prunes", "type-II prunes",
         "work vs full", "results"],
        rows,
        notes="Every arm must return identical results; only cost may differ.",
        out_name="ablation_pruning",
    )
    for arm, res in r.items():
        assert res.maximal == full.maximal, f"{arm} changed the result set"


# -- Baseline: the original Quick algorithm ---------------------------------


def quick_misses():
    """Quick's result misses are corner cases; count them over a random
    instance family (the paper proves existence; we measure frequency)."""
    rng = random.Random(2020)
    trials, missed = 150, 0
    for _ in range(trials):
        n = rng.randint(5, 9)
        p = rng.uniform(0.3, 0.8)
        edges = [
            (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
        ]
        g = Graph.from_edges(edges, vertices=range(n))
        gamma = rng.choice([0.5, 0.6, 0.75, 0.9])
        ms = rng.randint(2, 4)
        want = enumerate_maximal_quasicliques(g, gamma, ms)
        got = mine_quick(g, gamma, ms).maximal
        assert got <= want
        missed += got != want
    return trials, missed


QUICK_DATASETS = ["cx_gse1730", "cx_gse10158", "ca_grqc"]


@experiment({
    **{(name, "full"): (name, mine(mode="global")) for name in QUICK_DATASETS},
    # Quick's missing checks but WITH the k-core shrink, so the work
    # comparison isolates the output-check differences (the raw Quick
    # without k-core is measured by ablation_kcore).
    **{
        (name, "quick"): (
            name, lambda spec, pg: mine_quick_with_kcore(pg.graph, spec.gamma, spec.min_size)
        )
        for name in QUICK_DATASETS
    },
    "adversarial": (None, quick_misses),
})
def baseline_quick(r):
    """Baseline — original Quick vs the paper's corrected algorithm (Section 4).

    Two claims from the paper's algorithm half:

    * (T1) Quick skips the k-core preprocessing, "leading to a very
      poor scalability in our preliminary test";
    * Quick misses maximal results (the critical-vertex and empty-ext
      checks) — our corrected algorithm must find a superset.

    Measured on the coexpression and collaboration analogs (where both
    algorithms finish fast enough to compare), plus a random instance
    family checked against the brute-force oracle.
    """
    rows = []
    for name in QUICK_DATASETS:
        full, quick = r[name, "full"], r[name, "quick"]
        rows.append([
            name, f"{full.stats.mining_ops:,}", f"{quick.stats.mining_ops:,}",
            len(full.maximal), len(quick.maximal), len(full.maximal - quick.maximal),
        ])
        assert quick.maximal <= full.maximal, f"Quick invented results on {name}"
    trials, missed = r["adversarial"]
    assert missed > 0, "expected Quick to miss results on some instances"
    rows.append([f"random family ({trials} instances)", "-", "-", "-", "-", f"{missed} instances"])
    report(
        "Baseline — corrected algorithm vs original Quick (+k-core)",
        ["dataset", "full ops", "quick ops", "full results",
         "quick results", "missed by quick"],
        rows,
        notes=(
            "Paper Section 4: Quick's output checks miss results; the\n"
            "corrected algorithm never returns less. (Work is comparable\n"
            "once Quick is granted the k-core shrink it lacks — the shrink\n"
            "itself is the dominating factor, see ablation_kcore.)"
        ),
        out_name="baseline_quick",
    )


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_paper(benchmark, dataset, exp_id):
    """Run every arm of one experiment, then its report and shape checks."""
    render, arms = EXPERIMENTS[exp_id]

    def run():
        render({
            key: run_arm(*dataset(name)) if name else run_arm()
            for key, (name, run_arm) in arms.items()
        })

    benchmark.pedantic(run, rounds=1, iterations=1)
