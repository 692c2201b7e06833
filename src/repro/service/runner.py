"""Checkpointed job execution: the repo's one resume mechanism.

One job = one full mining run. Jobs of hours (the paper's YouTube run
computes for 3.12 hours) must survive ``kill -9`` without restarting
from scratch, and must be able to run on any existing executor
(serial, threaded, process pool, cluster) via
:func:`repro.gthinker.engine.mine_parallel`. The mining service and
the CLI's ``--checkpoint-dir`` both run through :func:`run_checkpointed`.
Those two requirements meet in *chunked* execution over the spawn-root
decomposition:

* Roots are the vertices of the (k-core of the) input graph in
  ascending ID order, so a finished run equals the serial oracle.
* A *chunk* of consecutive roots is mined in one ``mine_parallel``
  call over the induced subgraph on the union of the chunk roots'
  spawn subgraphs. This is exact: root ``r``'s spawn subgraph only
  ever reaches IDs ``> r`` (the set-enumeration dedup), a member of a
  quasi-clique ``S ∋ r`` keeps degree ≥ k inside the union (its ≥
  γ(|S|−1) neighbors in S are all there), and any two members of S
  are ≤ 2 apart *within S* (γ ≥ ½), so every maximal quasi-clique
  whose minimum vertex lies in the chunk survives the restriction.
  Extra candidates from truncated higher-ID roots are valid
  quasi-cliques of the full graph (induced subgraphs preserve
  internal edges) and fall to dedup + maximality postprocessing.
* Between chunks the runner flushes candidates (fsync) and *then*
  journals the chunk's roots into ``work_dir`` (``candidates.txt`` +
  ``roots.journal``, read back by
  :func:`repro.core.resultsio.load_checkpoint`). A crash at any point
  loses at most the in-flight chunk, which the restarted run re-mines
  (emissions are idempotent: the result file is deduplicated on load,
  and a torn trailing line is repaired by the sink).

Cancellation rides the same seam: ``should_stop`` is polled between
chunks, so a cancel lands at the next checkpoint boundary with the
checkpoint intact.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..core.options import DEFAULT_OPTIONS, MinerOptions
from ..core.postprocess import postprocess_results
from ..core.quasiclique import kcore_threshold
from ..core.resultsio import FileResultSink, load_checkpoint
from ..graph.adjacency import Graph
from ..graph.kcore import k_core
from ..graph.subgraph import spawn_subgraph
from ..gthinker.config import EngineConfig
from ..gthinker.engine import mine_parallel
from ..gthinker.metrics import EngineMetrics
from ..gthinker.obs.progress import ProgressSnapshot

#: Default roots per checkpointed chunk. Small enough that a killed
#: daemon loses little work, large enough to amortize per-chunk engine
#: setup (a process pool per chunk on backend='process').
DEFAULT_CHUNK_ROOTS = 64


@dataclass
class JobOutcome:
    """What one (possibly partial) checkpointed run produced."""

    #: True when every root is journaled; False on a should_stop exit.
    completed: bool
    #: Maximality-postprocessed results (empty unless ``completed``).
    maximal: set[frozenset[int]] = field(default_factory=set)
    #: All persisted candidates, including recovered ones.
    candidates: set[frozenset[int]] = field(default_factory=set)
    #: Engine metrics merged over every chunk this run executed.
    metrics: EngineMetrics = field(default_factory=EngineMetrics)
    #: Root accounting: total roots of the job, journaled-as-done count,
    #: and how many were already done when this run started (resume).
    roots_total: int = 0
    roots_done: int = 0
    roots_recovered: int = 0


def run_checkpointed(
    graph: Graph,
    gamma: float,
    min_size: int,
    config: EngineConfig | None = None,
    *,
    work_dir: str,
    chunk_roots: int = DEFAULT_CHUNK_ROOTS,
    options: MinerOptions = DEFAULT_OPTIONS,
    should_stop: Callable[[], bool] | None = None,
    on_progress: Callable[[ProgressSnapshot], None] | None = None,
) -> JobOutcome:
    """Mine `graph`, checkpointing into `work_dir`; resume if it has state.

    Returns a :class:`JobOutcome`. When ``should_stop()`` turns true the
    run exits at the next chunk boundary with ``completed=False`` and a
    consistent checkpoint; calling again continues where it left off.
    """
    if chunk_roots < 1:
        raise ValueError("chunk_roots must be >= 1")
    config = config or EngineConfig()
    os.makedirs(work_dir, exist_ok=True)
    results_path = os.path.join(work_dir, "candidates.txt")
    journal_path = os.path.join(work_dir, "roots.journal")

    state = load_checkpoint(results_path, journal_path)
    k = kcore_threshold(gamma, min_size)
    base = k_core(graph, k) if options.kcore_preprocess else graph
    all_roots = sorted(base.vertices())
    remaining = [v for v in all_roots if v not in state.completed_roots]
    recovered = len(all_roots) - len(remaining)

    outcome = JobOutcome(
        completed=True,
        roots_total=len(all_roots),
        roots_done=recovered,
        roots_recovered=recovered,
    )
    sink = FileResultSink(results_path, mode="a", seen=state.candidates)
    journal = open(journal_path, "a")
    start = time.monotonic()

    def snapshot(leased: int) -> ProgressSnapshot:
        return ProgressSnapshot(
            wall_seconds=time.monotonic() - start,
            tasks_pending=outcome.roots_total - outcome.roots_done - leased,
            tasks_leased=leased,
            tasks_done=outcome.roots_done,
            candidates=len(sink),
            workers_alive=1,
        )

    try:
        if on_progress is not None:
            on_progress(snapshot(0))
        for lo in range(0, len(remaining), chunk_roots):
            if should_stop is not None and should_stop():
                outcome.completed = False
                break
            chunk = remaining[lo : lo + chunk_roots]
            if on_progress is not None:
                on_progress(snapshot(len(chunk)))
            members: set[int] = set()
            for r in chunk:
                sub = spawn_subgraph(base, r, k)
                if r in sub:
                    members.update(sub.vertices())
                elif min_size <= 1:
                    sink.emit([r])
            if members:
                out = mine_parallel(
                    base.subgraph(members), gamma, min_size, config,
                    options=options,
                )
                for cand in out.candidates:
                    sink.emit(cand)
                outcome.metrics.merge(out.metrics)
            # Durability order: candidates fsynced before their roots
            # are journaled, so a crash in between re-mines the chunk
            # instead of losing its results.
            sink.flush()
            journal.write("".join(f"{r}\n" for r in chunk))
            journal.flush()
            os.fsync(journal.fileno())
            outcome.roots_done += len(chunk)
            if on_progress is not None:
                on_progress(snapshot(0))
    finally:
        journal.close()
        sink.close()

    outcome.candidates = sink.results()
    if outcome.completed:
        outcome.maximal = postprocess_results(outcome.candidates)
        outcome.metrics.results = len(outcome.maximal)
    outcome.metrics.wall_seconds = time.monotonic() - start
    return outcome
