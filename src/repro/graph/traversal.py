"""BFS distances, 2-hop neighborhoods, and connectivity.

The diameter pruning rule (paper Theorem 1) bounds a γ-quasi-clique's
diameter by 2 for γ ≥ 0.5, so the only neighborhood primitive mining
needs is B(v) = N2(v) ∪ N1(v): everything reachable within two hops.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .adjacency import Graph


def bfs_distances(graph: Graph, source: int, max_depth: int | None = None) -> dict[int, int]:
    """Hop distance from `source` to every reachable vertex (≤ max_depth)."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        d = dist[v]
        if max_depth is not None and d >= max_depth:
            continue
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = d + 1
                frontier.append(u)
    return dist


def two_hop_neighbors(graph: Graph, v: int) -> set[int]:
    """B(v) = N+2(v) − {v}: vertices within 2 hops of v, excluding v."""
    out: set[int] = set()
    for u in graph.neighbors(v):
        out.add(u)
        out.update(graph.neighbor_set(u))
    out.discard(v)
    return out


def within_two_hops(graph: Graph, v: int, u: int) -> bool:
    """True iff δ(u, v) ≤ 2 in `graph` (u ≠ v assumed interesting)."""
    if u == v:
        return True
    nv = graph.neighbor_set(v)
    if u in nv:
        return True
    nu = graph.neighbor_set(u)
    small, large = (nu, nv) if len(nu) < len(nv) else (nv, nu)
    return any(w in large for w in small)


def is_connected_subset(graph: Graph, vertex_set: Iterable[int]) -> bool:
    """True iff the subgraph induced by `vertex_set` is connected."""
    vs = set(vertex_set)
    if len(vs) <= 1:
        return True
    start = next(iter(vs))
    seen = {start}
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        for u in graph.neighbors(v):
            if u in vs and u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(vs)


def diameter(graph: Graph) -> int:
    """Exact diameter via all-source BFS (test/diagnostic use only)."""
    best = 0
    for v in graph.vertices():
        dist = bfs_distances(graph, v)
        if len(dist) != graph.num_vertices:
            raise ValueError("diameter undefined: graph is disconnected")
        best = max(best, max(dist.values(), default=0))
    return best
