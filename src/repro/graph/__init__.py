"""Graph substrate: the container, I/O, generators, k-core, traversal."""

from .access import GraphAccess
from .adjacency import Graph
from .kcore import core_numbers, k_core, k_core_vertices
from .stats import GraphStats, graph_stats
from .traversal import bfs_distances, is_connected_subset, two_hop_neighbors

__all__ = [
    "Graph",
    "GraphAccess",
    "GraphStats",
    "graph_stats",
    "bfs_distances",
    "core_numbers",
    "is_connected_subset",
    "k_core",
    "k_core_vertices",
    "two_hop_neighbors",
]
