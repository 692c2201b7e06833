"""Top-level serial mining API.

``mine_maximal_quasicliques`` is the reference entry point: it applies
the Theorem 2 k-core shrink (T1), spawns one set-enumeration task per
surviving vertex (quasi-cliques whose smallest vertex is that root),
mines each with the recursive algorithm, and postprocesses maximality.

:func:`quasiclique_core` is that shrink, and the only place it happens:
every front-end — this miner, the checkpointed runner and each engine
backend — peels its input through it before any task spawns.

Two task-construction modes exist, both result-equivalent:

* ``ego``   — per root v, materialize the k-core of v's 2-hop ego net
  restricted to IDs > v (what the G-thinker tasks do), then mine inside
  that subgraph. Default: tighter pruning, faithful to the system.
* ``global`` — mine directly on the (k-core-shrunk) input graph with
  ext = B_{>v}(v), the paper's plain serial formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.adjacency import Graph
from ..graph.kcore import k_core
from ..graph.subgraph import candidate_extension, spawn_subgraph
from ..graph.traversal import two_hop_neighbors
from .domain import TaskDomain
from .iterative_bounding import check_and_emit_masked
from .options import DEFAULT_OPTIONS, MinerOptions, MiningJob, MiningStats, ResultSink
from .postprocess import postprocess_results
from .quasiclique import check_params, kcore_threshold
from .recursive_mine import recursive_mine_masked


@dataclass
class MiningResult:
    """Outcome of a mining run: maximal results plus run statistics."""

    maximal: set[frozenset[int]]
    candidates: set[frozenset[int]]
    stats: MiningStats = field(default_factory=MiningStats)

    def __len__(self) -> int:
        return len(self.maximal)


def quasiclique_core(
    graph: Graph,
    gamma: float,
    min_size: int,
    options: MinerOptions = DEFAULT_OPTIONS,
) -> Graph:
    """The input a job mines: Theorem 2's k-core of `graph` (T1).

    No vertex of a valid quasi-clique (|S| ≥ τ_size, degree fraction γ)
    has global degree below k = ceil(γ·(τ_size−1)), so the k-core loses
    no result. Returns `graph` itself when ``options.kcore_preprocess``
    is off. The (γ, τ_size) pair is validated first, so an invalid one
    fails before any peeling work.
    """
    check_params(gamma, min_size)
    if not options.kcore_preprocess:
        return graph
    return k_core(graph, kcore_threshold(gamma, min_size))


def mine_root(
    job: MiningJob,
    root: int,
    ext: list[int],
) -> bool:
    """Mine all quasi-cliques whose smallest vertex is `root`.

    ``job.graph`` must already be the graph the task sees (global k-core
    or the root's spawned subgraph). Returns True iff some quasi-clique
    strictly containing {root} was emitted; the singleton itself is
    emitted when valid and nothing larger superseded it — relevant only
    for min_size ≤ 1, mirroring how Algorithm 2's caller owns S.

    The subtree is mined on a compact bitmask domain over
    {root} ∪ ext — sound because a task never looks outside S ∪ ext(S),
    and a 2-hop connection through a vertex outside the task's scope
    can never serve a quasi-clique confined to that scope.
    """
    domain = TaskDomain.from_graph(job.graph, [root, *ext])
    root_bit = 1 << domain.index[root]
    found = False
    if ext:
        found = recursive_mine_masked(job, domain, root_bit, domain.full_mask ^ root_bit)
    if not found and job.min_size <= 1:
        found = check_and_emit_masked(job, domain, root_bit)
    return found


def mine_maximal_quasicliques(
    graph: Graph,
    gamma: float,
    min_size: int,
    options: MinerOptions = DEFAULT_OPTIONS,
    mode: str = "ego",
) -> MiningResult:
    """Mine all maximal γ-quasi-cliques with |S| ≥ min_size (Definition 3)."""
    if mode not in ("ego", "global"):
        raise ValueError(f"mode must be 'ego' or 'global', got {mode!r}")
    base = quasiclique_core(graph, gamma, min_size, options)
    k = kcore_threshold(gamma, min_size)
    sink = ResultSink()
    stats = MiningStats()
    for root in sorted(base.vertices()):
        if options.kcore_preprocess and mode == "ego":
            sub = spawn_subgraph(base, root, k)
            if root not in sub:
                if min_size <= 1:
                    sink.emit([root])
                continue
            ext = candidate_extension(sub, root)
            task_graph = sub
        else:
            ext = sorted(u for u in two_hop_neighbors(base, root) if u > root)
            task_graph = base
        job = MiningJob(
            graph=task_graph,
            gamma=gamma,
            min_size=min_size,
            sink=sink,
            options=options,
            stats=stats,
        )
        mine_root(job, root, ext)
    candidates = sink.results()
    maximal = postprocess_results(candidates)
    return MiningResult(maximal=maximal, candidates=candidates, stats=stats)
