"""Community detection on a social-network analog with the G-thinker engine.

Mirrors the paper's motivating use case: γ-quasi-cliques as tightly-knit
communities in a large online social network (Hyves / YouTube in the
paper). Runs the reforged G-thinker engine with time-delayed task
decomposition and reports both the communities and the system-side
metrics (task counts, decomposition activity, spills, cache behaviour).

Run:  python examples/community_detection.py
"""

import time

from repro.datasets import build_dataset, get_dataset
from repro.gthinker import EngineConfig, mine_parallel

DATASET = "hyves"


def main() -> None:
    spec = get_dataset(DATASET)
    pg = build_dataset(DATASET)
    graph = pg.graph
    print(f"{DATASET} analog: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"(paper original: |V|={spec.paper_vertices:,} |E|={spec.paper_edges:,})")

    config = EngineConfig(
        backend="serial",
        tau_split=spec.tau_split,
        tau_time=spec.tau_time_ops,
        time_unit="ops",
        decompose="timed",
    )
    start = time.perf_counter()
    out = mine_parallel(graph, spec.gamma, spec.min_size, config)
    elapsed = time.perf_counter() - start

    print(f"\n{len(out.maximal)} communities "
          f"(gamma={spec.gamma}, min_size={spec.min_size}) in {elapsed:.2f}s")
    for qc in sorted(out.maximal, key=len, reverse=True)[:10]:
        print(f"  size {len(qc):2d}: {sorted(qc)[:12]}{' ...' if len(qc) > 12 else ''}")
    if len(out.maximal) > 10:
        print(f"  ... and {len(out.maximal) - 10} more")

    m = out.metrics
    print("\nengine metrics:")
    print(f"  tasks spawned / executed : {m.tasks_spawned} / {m.tasks_executed}")
    print(f"  decomposed tasks         : {m.tasks_decomposed} "
          f"(created {m.subtasks_created} subtasks)")
    print(f"  mining vs materialization: {m.total_mining_ops} vs "
          f"{m.total_materialize_ops} ops "
          f"(ratio {m.mining_vs_materialization_ratio():.0f}x)")
    print(f"  remote messages / cache  : {m.remote_messages} msgs, "
          f"{m.remote_vertex_hits} hits / {m.remote_vertex_misses} misses")
    print(f"  disk spills              : {m.spill_batches} batches, "
          f"{m.spill_bytes} bytes")


if __name__ == "__main__":
    main()
