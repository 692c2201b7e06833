"""Quasi-clique mining as a G-thinker application (paper Algorithms 4–10).

The engine is generic over an *application* exposing two UDFs, exactly
as G-thinker prescribes:

* ``spawn(vertex, adjacency)`` — create (or decline) a task for one
  vertex of the local vertex table;
* ``compute(task, frontier, ctx)`` — run one iteration of a task given
  the adjacency lists it pulled last round.

For quasi-cliques, iterations 1–2 assemble the k-core of the root's
2-hop, larger-ID ego subgraph (Algorithms 6–7); iteration 3 mines it,
decomposing per the configured strategy (Algorithms 8–10).
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from ..core.domain import TaskDomain
from ..core.iterative_bounding import check_and_emit_masked
from ..core.options import MinerOptions, MiningJob, MiningStats, ResultSink, DEFAULT_OPTIONS
from ..core.quasiclique import check_params, kcore_threshold
from ..graph.kcore import peel_adjacency
from .app_protocol import ComputeContext, gthinker_app
from .decompose import decomposition_budget, time_delayed_mine_masked
from .metrics import TaskRecord
from .task import ComputeOutcome, Task

__all__ = ["ComputeContext", "QuasiCliqueApp"]


@gthinker_app
@dataclass
class QuasiCliqueApp:
    """The paper's mining application, parameterized by (γ, τ_size)."""

    gamma: float
    min_size: int
    sink: ResultSink
    options: MinerOptions = DEFAULT_OPTIONS
    stats: MiningStats = field(default_factory=MiningStats)

    def __post_init__(self) -> None:
        check_params(self.gamma, self.min_size)
        self.k = kcore_threshold(self.gamma, self.min_size)

    # -- UDF 1: task spawning (Algorithm 4) -----------------------------

    def spawn(self, vertex: int, adjacency: list[int], task_id: int) -> Task | None:
        """Spawn the task mining quasi-cliques whose smallest vertex is `vertex`.

        The task keeps only IDs ≥ `vertex` (Algorithm 6), so a root with
        fewer than k larger-ID neighbours is peeled in iteration 1 and
        is never spawned.
        """
        if self.min_size <= 1:
            # A singleton is a valid quasi-clique for any γ; emit the
            # candidate here since Algorithm 2 only ever outputs S ⊋ {v}.
            self.sink.emit([vertex])
        # Served adjacency is ascending, so the larger IDs are one slice.
        pulls = list(adjacency[bisect_right(adjacency, vertex):])
        if len(pulls) < self.k:
            return None
        task = Task(
            task_id=task_id,
            root=vertex,
            iteration=1,
            s=[vertex],
            building={vertex: set(pulls)},
            pulls=pulls,
        )
        return task

    # -- UDF 2: compute (Algorithm 5 dispatch) ---------------------------

    def compute(
        self, task: Task, frontier: dict[int, list[int]], ctx: ComputeContext
    ) -> ComputeOutcome:
        if task.iteration == 1:
            return self._iteration_1(task, frontier)
        if task.iteration == 2:
            return self._iteration_2(task, frontier)
        return self._iteration_3(task, ctx)

    # -- Iteration 1 (Algorithm 6): 1-hop assembly ------------------------

    def _iteration_1(self, task: Task, frontier: dict[int, list[int]]) -> ComputeOutcome:
        v = task.root
        k = self.k
        cost = len(frontier) + sum(map(len, frontier.values()))
        low_degree = {u for u, adj in frontier.items() if len(adj) < k}
        building: dict[int, set[int]] = {v: task.building[v] - low_degree}
        for u, adj in frontier.items():
            if u in low_degree:
                continue
            # Keep destinations w ≥ v not known to be low-degree; 2-hop
            # destinations stay (their degree is unknown until pulled).
            nbrs = set(adj[bisect_left(adj, v):])
            nbrs -= low_degree
            building[u] = nbrs
        peel_adjacency(building, k)
        if v not in building:
            return ComputeOutcome(finished=True, cost_ops=cost)
        task.building = building
        # Every destination is ≥ v; the 2-hop ones are those never pulled.
        pulls = set().union(*building.values())
        pulls.difference_update(frontier)
        pulls.discard(v)
        task.pulls = sorted(pulls)
        task.iteration = 2
        return ComputeOutcome(finished=False, cost_ops=cost)

    # -- Iteration 2 (Algorithm 7): 2-hop assembly + closure ---------------

    def _iteration_2(self, task: Task, frontier: dict[int, list[int]]) -> ComputeOutcome:
        v = task.root
        k = self.k
        building = task.building
        assert building is not None
        cost = len(frontier) + sum(map(len, frontier.values()))
        # The closed vertex set: the 1-hop keys plus the pulled vertices.
        # All keys are ≥ v, so one intersection both filters w ≥ v and
        # drops destination-only vertices (2-hop vertices pruned or never
        # materialized).
        keys = set(building).union(frontier)
        for u, adj in frontier.items():
            nbrs = keys.intersection(adj)
            if len(nbrs) < k:
                # The peel's own first round, taken before the set is
                # stored: the k-core does not depend on peel order.
                keys.discard(u)
            else:
                building[u] = nbrs
        for nbrs in building.values():
            nbrs &= keys
        peel_adjacency(building, k)
        cost += sum(map(len, building.values()))
        if v not in building:
            return ComputeOutcome(finished=True, cost_ops=cost)
        # Compact bitmask domain: the pickled task ships two tuples of
        # ints instead of a dict-of-lists + dict-of-sets Graph.
        task.domain = TaskDomain.from_adjacency(building)
        task.building = None
        task.pulls = []
        task.s = [v]
        task.ext = sorted(u for u in building if u != v)
        task.iteration = 3
        return ComputeOutcome(finished=False, cost_ops=cost)

    # -- Iteration 3 (Algorithms 8–10): mining + decomposition --------------

    def _iteration_3(self, task: Task, ctx: ComputeContext) -> ComputeOutcome:
        config = ctx.config
        domain = task.domain
        assert domain is not None
        stats = MiningStats()
        job = MiningJob(
            graph=domain,
            gamma=self.gamma,
            min_size=self.min_size,
            sink=self.sink,
            options=self.options,
            stats=stats,
        )
        new_tasks: list[Task] = []
        materialize_seconds = 0.0
        materialize_ops = 0

        def spawn_subtask(s_mask: int, ext_mask: int) -> None:
            nonlocal materialize_seconds, materialize_ops
            t0 = time.perf_counter()
            sub = domain.restrict(s_mask | ext_mask)
            cost = sub.num_vertices + sub.num_edges
            materialize_seconds += time.perf_counter() - t0
            materialize_ops += cost
            stats.mining_ops += cost
            new_tasks.append(
                Task(
                    task_id=ctx.next_task_id(),
                    root=task.root,
                    iteration=3,
                    s=domain.globals_of(s_mask),
                    ext=domain.globals_of(ext_mask),
                    domain=sub,
                    generation=task.generation + 1,
                )
            )

        t_start = time.perf_counter()
        s_mask = domain.mask_of_globals(task.s)
        ext_mask = domain.mask_of_globals(task.ext)
        if not ext_mask:
            # Nothing to extend with; the subgraph collapsed to S.
            if len(task.s) > 1 or self.min_size <= 1:
                check_and_emit_masked(job, domain, s_mask)
        else:
            budget = decomposition_budget(config, stats, len(task.ext))
            time_delayed_mine_masked(job, domain, s_mask, ext_mask, budget, spawn_subtask)
        elapsed = time.perf_counter() - t_start

        self.stats.merge(stats)
        if ctx.record is not None:
            ctx.record(
                TaskRecord(
                    task_id=task.task_id,
                    root=task.root,
                    generation=task.generation,
                    subgraph_vertices=domain.num_vertices,
                    subgraph_edges=domain.num_edges,
                    mining_seconds=max(0.0, elapsed - materialize_seconds),
                    mining_ops=stats.mining_ops - materialize_ops,
                    materialize_seconds=materialize_seconds,
                    materialize_ops=materialize_ops,
                    subtasks_created=len(new_tasks),
                )
            )
        return ComputeOutcome(
            finished=True, new_tasks=new_tasks, cost_ops=max(1, stats.mining_ops)
        )
