"""Undirected simple-graph container used by every other subsystem.

The mining algorithms issue three hot operations: neighbor iteration,
O(1) adjacency membership tests, and induced-subgraph extraction. The
container therefore keeps, per vertex, both a sorted neighbor list (for
deterministic iteration and merge-style set intersection) and a neighbor
set (for membership). Vertex IDs are arbitrary non-negative integers and
are preserved by subgraph extraction, which is essential: a G-thinker
task's subgraph must keep global IDs so results from different tasks can
be merged.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Mapping


class Graph:
    """An undirected simple graph with integer vertex IDs.

    Self-loops and parallel edges are silently dropped at construction,
    matching the paper's simple-graph model (Section 3.1).
    """

    __slots__ = ("_adj", "_adj_set", "_num_edges")

    def __init__(self, adjacency: Mapping[int, Iterable[int]] | None = None):
        self._adj: dict[int, list[int]] = {}
        self._adj_set: dict[int, set[int]] = {}
        self._num_edges = 0
        if adjacency:
            for v, nbrs in adjacency.items():
                self.add_vertex(v)
                for u in nbrs:
                    self.add_vertex(u)
                    self.add_edge(v, u)

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], vertices: Iterable[int] | None = None
    ) -> "Graph":
        """Build a graph from an edge iterable, plus optional isolated vertices."""
        g = cls()
        if vertices is not None:
            for v in vertices:
                g.add_vertex(v)
        for u, v in edges:
            g.add_vertex(u)
            g.add_vertex(v)
            g.add_edge(u, v)
        return g

    def add_vertex(self, v: int) -> None:
        if v not in self._adj_set:
            self._adj[v] = []
            self._adj_set[v] = set()

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge {u, v}; returns False for self-loops and duplicates."""
        if u == v:
            return False
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj_set[u]:
            return False
        self._adj_set[u].add(v)
        self._adj_set[v].add(u)
        # Keep neighbor lists sorted by insertion into the right slot;
        # bulk builders should prefer from_edges + finalize-free appends.
        self._insort(self._adj[u], v)
        self._insort(self._adj[v], u)
        self._num_edges += 1
        return True

    @staticmethod
    def _insort(lst: list[int], x: int) -> None:
        bisect.insort(lst, x)

    def remove_vertex(self, v: int) -> None:
        """Remove v and all incident edges."""
        for u in self._adj[v]:
            self._adj_set[u].discard(v)
            self._adj[u].remove(v)
            self._num_edges -= 1
        del self._adj[v]
        del self._adj_set[v]

    # -- queries ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (min, max)."""
        for v, nbrs in self._adj.items():
            for u in nbrs:
                if v < u:
                    yield (v, u)

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor list of v (do not mutate)."""
        return self._adj[v]

    def neighbor_set(self, v: int) -> set[int]:
        """Neighbor set of v (do not mutate)."""
        return self._adj_set[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_vertex(self, v: int) -> bool:
        return v in self._adj_set

    def has_edge(self, u: int, v: int) -> bool:
        su = self._adj_set.get(u)
        return su is not None and v in su

    def __contains__(self, v: int) -> bool:
        return v in self._adj_set

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj_set == other._adj_set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"

    # -- derived graphs -----------------------------------------------

    def subgraph(self, vertex_set: Iterable[int]) -> "Graph":
        """Induced subgraph on `vertex_set`, preserving vertex IDs.

        Vertices absent from the graph are ignored.
        """
        keep = {v for v in vertex_set if v in self._adj_set}
        g = Graph()
        for v in keep:
            g.add_vertex(v)
        adj = g._adj
        adj_set = g._adj_set
        edges = 0
        for v in keep:
            nbrs = [u for u in self._adj[v] if u in keep]
            adj[v] = nbrs
            adj_set[v] = set(nbrs)
            edges += len(nbrs)
        g._num_edges = edges // 2
        return g

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: list(nbrs) for v, nbrs in self._adj.items()}
        g._adj_set = {v: set(s) for v, s in self._adj_set.items()}
        g._num_edges = self._num_edges
        return g

    def adjacency_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Whole-graph bitmask adjacency export: ``(verts, masks)``.

        ``verts`` lists the vertex IDs ascending; ``masks[i]`` has bit
        ``j`` set iff ``verts[i]`` and ``verts[j]`` are adjacent. This is
        the whole-graph fast path of
        :meth:`repro.core.domain.TaskDomain.from_graph`.
        """
        verts = tuple(sorted(self._adj))
        index = {g: i for i, g in enumerate(verts)}
        masks = []
        for g in verts:
            m = 0
            for u in self._adj[g]:
                m |= 1 << index[u]
            masks.append(m)
        return verts, tuple(masks)

    def degree_in(self, v: int, vertex_set: set[int]) -> int:
        """d_{V'}(v): number of v's neighbors inside `vertex_set`."""
        s = self._adj_set[v]
        if len(s) <= len(vertex_set):
            return sum(1 for u in s if u in vertex_set)
        return sum(1 for u in vertex_set if u in s)

    def neighbors_in(self, v: int, vertex_set: set[int]) -> list[int]:
        """Γ_{V'}(v): v's neighbors inside `vertex_set`, sorted."""
        return [u for u in self._adj[v] if u in vertex_set]
