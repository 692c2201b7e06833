"""Query-driven quasi-clique search (paper §2: [25], [17], [19]).

The related work the paper contrasts itself with: instead of *all*
maximal quasi-cliques, find the maximal γ-quasi-cliques **containing a
given query vertex (or vertex set)** — community search around a person
of interest, a gene, a suspect account. The paper notes these methods
"significantly narrow down the search space ... but sacrifice result
diversity"; this module provides that narrowed search on top of the
same corrected machinery, so users get both modes from one library.

Correctness note: a quasi-clique containing the query set Q lives
entirely inside ⋂_{q∈Q} B̄(q) (each member is within 2 hops of every
query vertex, γ ≥ 0.5), so the search runs the set-enumeration walk
with S = Q and ext = that intersection. Maximality is judged among the
returned family — every maximal quasi-clique ⊇ Q is found (the search
space is complete for supersets of Q), so subset-filtering is exact,
mirroring the global miner's postprocessing argument.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graph.adjacency import Graph
from ..graph.traversal import two_hop_neighbors
from .domain import TaskDomain
from .iterative_bounding import check_and_emit_masked
from .miner import MiningResult
from .options import DEFAULT_OPTIONS, MinerOptions, MiningJob, MiningStats, ResultSink
from .postprocess import postprocess_results
from .recursive_mine import recursive_mine_masked


def query_candidates(graph: Graph, query: set[int]) -> set[int]:
    """⋂_{q∈Q} B̄(q) − Q: the only vertices that can join a QC ⊇ Q."""
    candidates: set[int] | None = None
    for q in query:
        reach = two_hop_neighbors(graph, q) | {q}
        candidates = reach if candidates is None else candidates & reach
    return (candidates or set()) - query


def mine_containing(
    graph: Graph,
    query: Iterable[int],
    gamma: float,
    min_size: int = 1,
    options: MinerOptions = DEFAULT_OPTIONS,
) -> MiningResult:
    """All maximal γ-quasi-cliques that contain every vertex of `query`.

    Returns an empty result when no valid quasi-clique contains the
    query (e.g. disconnected query vertices at γ ≥ 0.5). The query set
    itself is reported when it is a valid quasi-clique and nothing
    larger contains it.
    """
    query_set = set(query)
    if not query_set:
        raise ValueError("query must contain at least one vertex")
    for q in query_set:
        if not graph.has_vertex(q):
            raise ValueError(f"query vertex {q} is not in the graph")

    stats = MiningStats()
    sink = ResultSink()
    job = MiningJob(
        graph=graph,
        gamma=gamma,
        min_size=min_size,
        sink=sink,
        options=options,
        stats=stats,
    )
    ext = query_candidates(graph, query_set)
    domain = TaskDomain.from_graph(graph, query_set | ext)
    s_mask = domain.mask_of_globals(query_set)
    found = False
    if ext:
        found = recursive_mine_masked(job, domain, s_mask, domain.full_mask ^ s_mask)
    if not found:
        check_and_emit_masked(job, domain, s_mask)

    # Candidates may include sets missing part of the query: the
    # critical-vertex move never removes S-members, but the lookahead /
    # bounding emissions operate on S′ ⊇ Q throughout — enforce anyway.
    candidates = {s for s in sink.results() if query_set <= s}
    maximal = postprocess_results(candidates)
    return MiningResult(maximal=maximal, candidates=candidates, stats=stats)


def best_community(
    graph: Graph,
    query: Iterable[int],
    gamma: float,
    min_size: int = 1,
    options: MinerOptions = DEFAULT_OPTIONS,
) -> frozenset[int] | None:
    """The largest maximal quasi-clique containing `query` (ties: lexic.)."""
    result = mine_containing(graph, query, gamma, min_size, options)
    if not result.maximal:
        return None
    return min(result.maximal, key=lambda s: (-len(s), sorted(s)))
