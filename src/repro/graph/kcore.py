"""k-core peeling and core decomposition.

The paper's (T1) observation is that shrinking the input to its k-core
with k = ceil(γ·(τ_size − 1)) — Theorem 2, size-threshold pruning — "is
actually a dominating factor to scale beyond a small graph". The O(|E|)
bucket peeling algorithm here follows Batagelj & Zaversnik [13]; the
Theorem 2 shrink of a job's input is
:func:`repro.core.miner.quasiclique_core`.
"""

from __future__ import annotations

from .adjacency import Graph


def core_numbers(graph: Graph) -> dict[int, int]:
    """Core number of every vertex via O(|E|) bucket peeling."""
    degrees = {v: graph.degree(v) for v in graph.vertices()}
    if not degrees:
        return {}
    max_deg = max(degrees.values())
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v, d in degrees.items():
        buckets[d].append(v)
    core: dict[int, int] = {}
    seen: set[int] = set()
    cur = 0
    # Process vertices in nondecreasing current-degree order; a vertex's
    # degree only decreases as neighbors peel, so lazy bucket moves work.
    pending = degrees.copy()
    d = 0
    while len(seen) < len(degrees):
        while d <= max_deg and not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if v in seen or pending[v] != d:
            continue
        seen.add(v)
        cur = max(cur, d)
        core[v] = cur
        for u in graph.neighbors(v):
            if u in seen:
                continue
            if pending[u] > d:
                pending[u] -= 1
                buckets[pending[u]].append(u)
                if pending[u] < d:
                    d = pending[u]
    return core


def k_core_vertices(graph: Graph, k: int) -> set[int]:
    """Vertices of the k-core: maximal subgraph with all degrees ≥ k."""
    if k <= 0:
        return set(graph.vertices())
    degrees = {v: graph.degree(v) for v in graph.vertices()}
    queue = [v for v, d in degrees.items() if d < k]
    removed: set[int] = set()
    while queue:
        v = queue.pop()
        if v in removed:
            continue
        removed.add(v)
        for u in graph.neighbors(v):
            if u in removed:
                continue
            degrees[u] -= 1
            if degrees[u] == k - 1:
                queue.append(u)
    return {v for v in graph.vertices() if v not in removed}


def k_core(graph: Graph, k: int) -> Graph:
    """The k-core of `graph` as an induced subgraph (IDs preserved), or
    `graph` itself when no vertex is peeled: re-peeling a core copies nothing."""
    kept = k_core_vertices(graph, k)
    return graph if len(kept) == graph.num_vertices else graph.subgraph(kept)


def peel_adjacency(adj: dict[int, set[int]], k: int) -> None:
    """In-place k-core peel of a mutable adjacency-set dict.

    This variant serves task-subgraph shrinking (paper Algorithms 6–7,
    `t.g ← k-core(t.g)`), where the subgraph is a plain dict being built
    incrementally and copying into a Graph each round would dominate.
    Destination-only vertices (present in someone's neighbor set but not
    as a key) count toward degrees but are never peeled, mirroring the
    paper's note that 2-hop destinations without fetched adjacency lists
    "stay untouched ... (though counted for degree checking)".
    """
    if k <= 0:
        return
    queue = [v for v, nbrs in adj.items() if len(nbrs) < k]
    while queue:
        v = queue.pop()
        nbrs = adj.pop(v, None)
        if nbrs is None:
            continue
        for u in nbrs:
            s = adj.get(u)
            if s is not None:
                s.discard(v)
                if len(s) == k - 1:
                    queue.append(u)

