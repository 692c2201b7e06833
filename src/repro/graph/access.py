"""One graph-access interface from TaskDomain to the wire.

Every layer that reads adjacency — task spawning, pull resolution,
:class:`~repro.core.domain.TaskDomain` construction — goes through the
:class:`GraphAccess` protocol instead of a concrete graph container.
Every executor's machine implements it with one class,
:class:`~repro.gthinker.vertex_store.RemoteGraphAccess` — one machine's
vertex store: its partition of the vertex table plus a bounded remote
cache. The serial executor's machines serve a cache miss
synchronously from the owner's table; a warm-start worker (the
process backend's) holds the whole graph as its one partition, so it
never misses; a cold cluster worker fetches a miss over the wire first (``unresolved`` →
VertexRequest → ``admit``).

The protocol is deliberately pull-shaped, mirroring G-thinker's
data-service UDF surface: `resolve` serves a task's batched pulls,
`unresolved` tells the caller which of those need an asynchronous
fetch first (always none in-process), and `prefetch` is a hint that
costs nothing to ignore.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

__all__ = ["GraphAccess", "neighbor_mask"]


def neighbor_mask(neighbors: Iterable[int], members: Sequence[int]) -> int:
    """Bitmask of `neighbors` within the ordered `members` (bit *i* set
    iff ``members[i]`` is a neighbour) — the one body behind every
    :meth:`GraphAccess.adjacency_mask`."""
    nbr_set = neighbors if isinstance(neighbors, (set, frozenset)) else set(neighbors)
    mask = 0
    for i, m in enumerate(members):
        if m in nbr_set:
            mask |= 1 << i
    return mask


@runtime_checkable
class GraphAccess(Protocol):
    """Adjacency reads, batched pulls, and fetch hints — the one
    interface mining code may use to see the input graph."""

    def neighbors(self, vertex: int) -> Sequence[int]:
        """Adjacency of `vertex`, ascending (empty for vertices not in
        the graph).

        Must only be called for vertices that are locally resolvable —
        i.e. not listed by :meth:`unresolved`.
        """
        ...

    def degree(self, vertex: int) -> int:
        """``len(neighbors(vertex))`` without materializing a copy."""
        ...

    def resolve(self, vertex_ids: Iterable[int]) -> dict[int, Sequence[int]]:
        """Serve a task's pull batch; ``{vertex: adjacency}``, each
        adjacency ascending.

        Vertices absent from the graph resolve to empty sequences. Every
        requested vertex must be locally resolvable (see
        :meth:`unresolved`); remote implementations raise otherwise.
        """
        ...

    def unresolved(self, vertex_ids: Iterable[int]) -> list[int]:
        """The subset of `vertex_ids` that needs an asynchronous fetch
        before :meth:`resolve`/:meth:`neighbors` may be called.

        Always empty for in-memory implementations; the cluster worker
        turns a non-empty answer into a batched ``VertexRequest``.
        """
        ...

    def prefetch(self, vertex_ids: Iterable[int]) -> None:
        """Hint that `vertex_ids` will be pulled soon. Best-effort."""
        ...

    def adjacency_mask(self, vertex: int, members: Sequence[int]) -> int:
        """Bitmask of `vertex`'s neighbors within the ordered `members`
        (bit *i* set iff ``members[i]`` is adjacent) — the compact-ID
        export :class:`~repro.core.domain.TaskDomain` builds from."""
        ...
