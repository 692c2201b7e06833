"""Edge-list reader and writer.

One `u v` pair per line, `#`-prefixed comment lines ignored: the SNAP
download format the paper's datasets use (Ca-GrQc, Enron, com-DBLP,
com-Amazon, com-Youtube).
"""

from __future__ import annotations

import os

from .adjacency import Graph


def read_edge_list(path: str | os.PathLike) -> Graph:
    """Read a whitespace-separated edge list; `#` starts a comment line."""
    g = Graph()
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            g.add_edge(int(parts[0]), int(parts[1]))
    return g


def write_edge_list(graph: Graph, path: str | os.PathLike, header: str | None = None) -> None:
    """Write each undirected edge once as `u v`."""
    with open(path, "w") as f:
        if header:
            for line in header.splitlines():
                f.write(f"# {line}\n")
        for u, v in graph.edges():
            f.write(f"{u} {v}\n")


def relabel_compact(graph: Graph) -> tuple[Graph, dict[int, int]]:
    """Relabel vertices to 0..n-1 (sorted by old ID); returns (graph, old->new)."""
    mapping = {v: i for i, v in enumerate(sorted(graph.vertices()))}
    g = Graph()
    for v in graph.vertices():
        g.add_vertex(mapping[v])
    for u, v in graph.edges():
        g.add_edge(mapping[u], mapping[v])
    return g, mapping
