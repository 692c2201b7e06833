"""Task-subgraph extraction mirroring the task-spawn pipeline.

A G-thinker task spawned from vertex v mines the k-core of v's 2-hop
ego network restricted to IDs > v (paper Algorithms 4, 6, 7). These
helpers provide that extraction as a standalone, serially-testable
operation; the distributed engine performs the same construction
incrementally over pull rounds.
"""

from __future__ import annotations

from .adjacency import Graph
from .kcore import k_core


def spawn_subgraph(graph: Graph, root: int, k: int) -> Graph:
    """The task subgraph for `root`: 2-hop ego net, IDs > root, k-core.

    Matches the net effect of paper Algorithms 6–7: keep only vertices
    with ID ≥ root (the root itself plus larger-ID candidates, the
    set-enumeration dedup of Figure 5), drop vertices of global degree
    < k, then shrink to the k-core. Returns a graph that still contains
    `root`, or an empty graph if root is peeled away.
    """
    if graph.degree(root) < k:
        return Graph()
    members = {root}
    one_hop = [u for u in graph.neighbors(root) if u > root and graph.degree(u) >= k]
    members.update(one_hop)
    for u in one_hop:
        for w in graph.neighbors(u):
            if w > root and graph.degree(w) >= k:
                members.add(w)
    sub = graph.subgraph(members)
    sub = k_core(sub, k)
    if root not in sub:
        return Graph()
    return sub


def candidate_extension(sub: Graph, root: int) -> list[int]:
    """ext({root}) inside a spawned subgraph: every other vertex, sorted."""
    return sorted(v for v in sub.vertices() if v != root)
