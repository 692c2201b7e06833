"""Descriptive graph statistics.

Used by the dataset registry tests and Table 1 enrichment to verify
that synthetic analogs carry the structural properties the substitution
argument relies on (heavy-tailed degrees, high clustering around the
planted cores, small dense k-cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjacency import Graph
from .kcore import core_numbers


@dataclass(frozen=True)
class GraphStats:
    """One-shot summary of a graph's shape."""

    num_vertices: int
    num_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    density: float
    degeneracy: int
    global_clustering: float
    isolated_vertices: int

    def degree_heavy_tail_ratio(self) -> float:
        """max/mean degree — ≫1 indicates hubs (scale-free-ish)."""
        return self.max_degree / self.mean_degree if self.mean_degree else 0.0


def triangle_count(graph: Graph) -> int:
    """Number of triangles (each counted once)."""
    count = 0
    for v in graph.vertices():
        nbrs = [u for u in graph.neighbors(v) if u > v]
        for i, u in enumerate(nbrs):
            u_set = graph.neighbor_set(u)
            for w in nbrs[i + 1 :]:
                if w in u_set:
                    count += 1
    return count


def wedge_count(graph: Graph) -> int:
    """Number of paths of length two (open or closed)."""
    return sum(d * (d - 1) // 2 for d in (graph.degree(v) for v in graph.vertices()))


def global_clustering_coefficient(graph: Graph) -> float:
    """Transitivity: 3·triangles / wedges."""
    wedges = wedge_count(graph)
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges


def graph_stats(graph: Graph) -> GraphStats:
    """Compute the full summary (O(Σ d² ) for the clustering term)."""
    n = graph.num_vertices
    m = graph.num_edges
    degrees = sorted(graph.degree(v) for v in graph.vertices())
    if not degrees:
        return GraphStats(0, 0, 0, 0, 0.0, 0.0, 0.0, 0, 0.0, 0)
    mid = len(degrees) // 2
    median = (
        degrees[mid]
        if len(degrees) % 2
        else (degrees[mid - 1] + degrees[mid]) / 2.0
    )
    cores = core_numbers(graph)
    return GraphStats(
        num_vertices=n,
        num_edges=m,
        min_degree=degrees[0],
        max_degree=degrees[-1],
        mean_degree=2.0 * m / n,
        median_degree=median,
        density=2.0 * m / (n * (n - 1)) if n > 1 else 0.0,
        degeneracy=max(cores.values(), default=0),
        global_clustering=global_clustering_coefficient(graph),
        isolated_vertices=sum(1 for d in degrees if d == 0),
    )
