"""Tutorial: writing your own G-thinker application.

The engine is generic over applications with two UDFs — exactly the
programming model of the paper's Section 5:

* ``spawn(vertex, adjacency, task_id)`` → Task | None
* ``compute(task, frontier, ctx)`` → ComputeOutcome

This walkthrough defines a small triangle-counting app inline (the
paper's introduction workload): each task pulls the adjacency lists of
its root's larger neighbours, so it shows the pull round every app
uses to read beyond one vertex. It then runs the bundled max-clique app
(G-thinker's flagship) on the same dataset analog.

Run:  python examples/custom_engine_app.py
"""

import threading
import time

from repro.core.options import MiningStats, ResultSink
from repro.datasets import build_dataset
from repro.graph.stats import triangle_count
from repro.gthinker import ComputeOutcome, EngineConfig, GThinkerEngine, Task, gthinker_app
from repro.gthinker.app_maxclique import find_max_clique_parallel

DATASET = "amazon"


@gthinker_app
class TriangleCount:
    """Count each triangle {v < u < w} once, at its smallest vertex v."""

    def __init__(self):
        self.sink = ResultSink()  # no vertex-set results; the engine still collects it
        self.stats = MiningStats()  # merged into the run's EngineMetrics
        self.count = 0
        self._lock = threading.Lock()  # compute() may run on many threads

    def spawn(self, vertex, adjacency, task_id):
        larger = [u for u in adjacency if u > vertex]
        if len(larger) < 2:
            return None  # v is the smallest vertex of no triangle
        # task.pulls asks the engine for these vertices' adjacency lists;
        # compute() runs once they have arrived.
        return Task(task_id=task_id, root=vertex, ext=larger, pulls=larger)

    def compute(self, task, frontier, ctx):
        # frontier maps each pulled vertex u to its adjacency list Γ(u).
        larger = set(task.ext)
        found = sum(1 for u in task.ext for w in frontier[u] if w > u and w in larger)
        with self._lock:
            self.count += found
        # cost_ops feeds the simulated cluster's virtual clock.
        ops = sum(len(frontier[u]) for u in task.ext)
        return ComputeOutcome(finished=True, cost_ops=max(1, ops))


def main() -> None:
    graph = build_dataset(DATASET).graph
    print(f"{DATASET} analog: |V|={graph.num_vertices} |E|={graph.num_edges}\n")

    # App 1: the inline triangle counter — one cheap task per vertex,
    # one pull round, no decomposition.
    t0 = time.perf_counter()
    app = TriangleCount()
    metrics = GThinkerEngine(graph, app, EngineConfig()).run().metrics
    print(f"triangles        : {app.count:,} in {time.perf_counter() - t0:.2f}s "
          f"({metrics.tasks_spawned} tasks)")
    assert app.count == triangle_count(graph)  # serial cross-check

    # App 2: maximum clique — branch and bound with a shared incumbent
    # and size-threshold decomposition of big candidate sets.
    t0 = time.perf_counter()
    clique, metrics = find_max_clique_parallel(
        graph, EngineConfig(decompose="size", tau_split=32)
    )
    print(f"maximum clique   : size {len(clique)} in {time.perf_counter() - t0:.2f}s "
          f"({metrics.tasks_spawned} tasks) → {sorted(clique)}")

    print("""
anatomy of a longer app
-----------------------
compute() may also leave the task unfinished: set task.pulls for
another round and return ComputeOutcome(finished=False), or split the
work with ComputeOutcome(new_tasks=[...]) using ctx.next_task_id() for
the subtasks' IDs. The same app object runs unchanged on every
executor: GThinkerEngine (serial/threaded) and SimulatedClusterEngine.
""")


if __name__ == "__main__":
    main()
