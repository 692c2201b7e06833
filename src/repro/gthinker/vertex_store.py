"""Partitioned vertex table and remote vertex cache (paper Fig. 8).

The input graph is hash-partitioned across machines by vertex ID: each
machine's *local vertex table* owns the adjacency lists of its
vertices, and the tables together form a distributed key-value store.
A task may request any vertex; remote hits are served by the owner and
memoized in the requester's bounded *remote vertex cache* so concurrent
tasks share fetched lists.

Every machine of every partitioned executor reads through one store,
:class:`RemoteGraphAccess`: its table, its cache, the absent-vertex
shortcut, pins standing in for the paper's in-flight-task refcounts,
and the message count. Only where a cache miss is served differs:

* in-process machines (the serial executor's, and each
  warm-start worker of the process backend) pass a synchronous
  ``fetch`` that reads the owner's table — all partitions share one
  address space (a warm worker's one partition is its whole-graph
  replica);
* a cold cluster worker passes none: a non-owned, uncached vertex is
  *unresolved* and must be admitted off the wire first
  (``unresolved`` → VertexRequest → :meth:`RemoteGraphAccess.admit`).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import partial

from ..graph.access import neighbor_mask
from ..graph.adjacency import Graph


def owner_of(vertex: int, num_machines: int) -> int:
    """Hash partitioning: machine that owns `vertex`'s adjacency list."""
    return vertex % num_machines


def owner_function(num_machines: int, partitioner=None) -> Callable[[int], int]:
    """The owner map of a partitioning: `partitioner.owner`, or the
    paper's hash scheme when `partitioner` is None."""
    if partitioner is None:
        return partial(owner_of, num_machines=num_machines)
    return partitioner.owner


class LocalVertexTable:
    """Adjacency lists of the vertices one machine owns."""

    def __init__(self, machine_id: int, num_machines: int):
        self.machine_id = machine_id
        self.num_machines = num_machines
        self._table: dict[int, Sequence[int]] = {}

    @classmethod
    def partition(
        cls, graph: Graph, num_machines: int, partitioner=None
    ) -> list["LocalVertexTable"]:
        """Split `graph` into per-machine tables (the HDFS load step).

        `partitioner` defaults to the paper's hash scheme; see
        `repro.gthinker.partition` for alternatives. Tables store the
        graph's own adjacency lists (`Graph.neighbors`, uncopied), so
        partitioning never duplicates the graph's adjacency memory —
        only the per-vertex references.
        """
        tables = [cls(m, num_machines) for m in range(num_machines)]
        owner = owner_function(num_machines, partitioner)
        for v in graph.vertices():
            tables[owner(v)]._table[v] = graph.neighbors(v)
        return tables

    @classmethod
    def from_entries(
        cls,
        machine_id: int,
        num_machines: int,
        entries: Mapping[int, Sequence[int]],
    ) -> "LocalVertexTable":
        """Build one partition's table from shipped ``{vertex: adjacency}``
        entries (the cluster Welcome's ``table_blob``). Each list is
        stored ascending, as every adjacency source serves it; sorting
        already-sorted input is linear."""
        table = cls(machine_id, num_machines)
        table._table = {v: tuple(sorted(adj)) for v, adj in entries.items()}
        return table

    def entries(self) -> dict[int, tuple[int, ...]]:
        """Owned adjacency as a plain picklable dict (wire shipping)."""
        return {v: tuple(adj) for v, adj in self._table.items()}

    def get(self, vertex: int) -> Sequence[int] | None:
        return self._table.get(vertex)

    def owns(self, vertex: int) -> bool:
        return vertex in self._table

    def vertices_sorted(self) -> list[int]:
        """Owned vertex IDs in ascending order (task-spawn order)."""
        return sorted(self._table)

    def __len__(self) -> int:
        return len(self._table)


class RemoteVertexCache:
    """Bounded LRU cache of remotely-owned adjacency lists.

    The paper evicts entries once no in-flight task references them; an
    LRU bound is the classic refcount-free approximation and keeps the
    same property that matters — bounded memory with cross-task reuse.
    (:class:`RemoteGraphAccess` layers the refcounts back on top as
    pins for entries a parked task is waiting on.)
    """

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self._entries: OrderedDict[int, Sequence[int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, vertex: int) -> Sequence[int] | None:
        entry = self._entries.get(vertex)
        if entry is not None:
            self._entries.move_to_end(vertex)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def peek(self, vertex: int) -> Sequence[int] | None:
        """Probe without touching hit/miss counters or LRU order (used
        by availability checks that precede a real lookup)."""
        return self._entries.get(vertex)

    def put(self, vertex: int, adjacency: Sequence[int]) -> None:
        self._entries[vertex] = adjacency
        self._entries.move_to_end(vertex)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


class RemoteGraphAccess:
    """:class:`GraphAccess` over one partition plus the remote cache.

    One machine's vertex store: reads hit the local vertex table first,
    then pinned entries, then the bounded cache. A vertex the partition
    owns (per `owner`) but never loaded provably does not exist and
    resolves to an empty adjacency without a fetch; with `owner` None
    (a partitioning the holder cannot recompute) there is no such
    shortcut.

    A cache miss goes to `fetch` when one is given — a synchronous read
    of the owner's table, counted as one remote message and cached. The
    cluster worker gives none: the vertex is then *unresolved*, and the
    worker must fetch it (VertexRequest → the master → :meth:`admit`)
    before any task that pulls it can run.

    Pins are the paper's in-flight refcounts: entries a parked task is
    waiting on are held outside the LRU bound until :meth:`unpin`, so
    a cache smaller than one task's pull list can never livelock it.
    """

    def __init__(
        self,
        table: LocalVertexTable,
        cache: RemoteVertexCache,
        *,
        owner: Callable[[int], int] | None = None,
        fetch: Callable[[int], Sequence[int] | None] | None = None,
    ):
        self.table = table
        self.cache = cache
        self._owner = owner
        self._fetch = fetch
        self._pinned: dict[int, Sequence[int]] = {}
        self._pin_refs: dict[int, int] = {}
        #: Adjacency entries served from another partition (fetched or
        #: admitted off the wire).
        self.remote_messages = 0
        self.local_reads = 0

    # -- availability ------------------------------------------------------

    def known_absent(self, vertex: int) -> bool:
        """True when the vertex provably does not exist: a vertex this
        partition owns but never loaded was never in the graph
        (destination-only ID), so no fetch is needed."""
        return (
            self._owner is not None
            and self._owner(vertex) == self.table.machine_id
            and not self.table.owns(vertex)
        )

    def cached(self, vertex: int) -> Sequence[int] | None:
        """Pinned-or-cached adjacency for a non-owned vertex, or None
        (counts a cache miss — a None here always precedes a fetch)."""
        pinned = self._pinned.get(vertex)
        if pinned is not None:
            return pinned
        return self.cache.get(vertex)

    def _lookup(self, vertex: int) -> Sequence[int] | None:
        local = self.table.get(vertex)
        if local is not None:
            self.local_reads += 1
            return local
        return self._not_owned(vertex)

    def _not_owned(self, vertex: int) -> Sequence[int] | None:
        """Adjacency of a vertex the table does not hold: pinned, provably
        absent, cached, or fetched; None when it must come off the wire."""
        if self.known_absent(vertex):
            return ()
        adj = self.cached(vertex)
        if adj is None and self._fetch is not None:
            adj = self._fetch(vertex)
            if adj is None:
                adj = ()  # the owner never loaded it either
            self.remote_messages += 1
            self.cache.put(vertex, adj)
        return adj

    def unresolved(self, vertex_ids: Iterable[int]) -> list[int]:
        if self._fetch is not None:
            return []  # every miss is served synchronously
        missing: list[int] = []
        seen: set[int] = set()
        for v in vertex_ids:
            if v in seen:
                continue
            seen.add(v)
            if self.table.owns(v) or v in self._pinned or self.known_absent(v):
                continue
            # A counted get, not a peek: a cached entry here is an
            # avoided fetch (hit, refreshed to MRU since a read follows)
            # and a missing one always precedes a VertexRequest (miss).
            if self.cache.get(v) is None:
                missing.append(v)
        return missing

    # -- reads -------------------------------------------------------------

    def neighbors(self, vertex: int) -> Sequence[int]:
        adj = self._lookup(vertex)
        if adj is None:
            raise KeyError(
                f"vertex {vertex} is not resolvable on partition "
                f"{self.table.machine_id}; fetch it first (unresolved/admit)"
            )
        return adj

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    def resolve(self, vertex_ids: Iterable[int]) -> dict[int, Sequence[int]]:
        frontier: dict[int, Sequence[int]] = {}
        local_get = self.table.get  # the hot path: most pulls are owned
        for v in vertex_ids:
            adj = local_get(v)
            if adj is not None:
                self.local_reads += 1
            else:
                adj = self._not_owned(v)
                if adj is None:
                    raise RuntimeError(
                        f"unresolved remote vertex {v} in a pull batch; the "
                        f"worker must park the task and fetch before resolving"
                    )
            frontier[v] = adj
        return frontier

    def prefetch(self, vertex_ids: Iterable[int]) -> None:
        """Hint only: the worker reactor batches real fetches itself."""

    def adjacency_mask(self, vertex: int, members: Sequence[int]) -> int:
        return neighbor_mask(self.neighbors(vertex), members)

    # -- wire admission + pinning ------------------------------------------

    def admit(
        self,
        entries: Iterable[tuple[int, Sequence[int]]],
        pin: bool = False,
    ) -> int:
        """Install fetched ``(vertex, adjacency)`` entries, each stored
        ascending; returns how many were admitted. With ``pin=True``
        each admitted entry is also pinned (one reference) for the task
        that requested it."""
        admitted = 0
        for v, adj in entries:
            if self.table.owns(v):
                continue  # raced with nothing: we already own it
            adj = tuple(sorted(adj))
            self.remote_messages += 1
            admitted += 1
            self.cache.put(v, adj)
            if pin:
                self._pinned[v] = adj
                self._pin_refs[v] = self._pin_refs.get(v, 0) + 1
        return admitted

    def pin(self, vertex_ids: Iterable[int]) -> None:
        """Take one reference on each currently-cached entry so it
        survives until :meth:`unpin` (parked-task protection)."""
        for v in vertex_ids:
            if self.table.owns(v) or self.known_absent(v):
                continue
            entry = self._pinned.get(v)
            if entry is None:
                entry = self.cache.peek(v)
            if entry is None:
                continue  # will arrive via admit(pin=True)
            self._pinned[v] = entry
            self._pin_refs[v] = self._pin_refs.get(v, 0) + 1

    def unpin(self, vertex_ids: Iterable[int]) -> None:
        for v in vertex_ids:
            refs = self._pin_refs.get(v)
            if refs is None:
                continue
            if refs <= 1:
                del self._pin_refs[v]
                del self._pinned[v]
            else:
                self._pin_refs[v] = refs - 1

    # -- footprint ---------------------------------------------------------

    def resident_entries(self) -> int:
        """Adjacency entries held right now: partition + cache + pins.

        The memory-bounded claim of the distributed vertex store: this
        stays ≈ |V|/num_partitions + cache capacity, never |V|. Pinned
        entries that also sit in the cache are counted once.
        """
        pinned_only = sum(
            1 for v in self._pinned if self.cache.peek(v) is None
        )
        return len(self.table) + len(self.cache) + pinned_only


def in_process_stores(
    tables: Sequence[LocalVertexTable], cache_capacity: int, partitioner=None
) -> list[RemoteGraphAccess]:
    """One store per table of `partitioner`'s partitioning, all in one
    address space: each serves a cache miss synchronously from the
    owner's table (the serial executor's machines, and a warm-start
    worker's one whole-graph partition)."""
    owner = owner_function(len(tables), partitioner)

    def fetch(vertex: int) -> Sequence[int] | None:
        return tables[owner(vertex)].get(vertex)

    return [
        RemoteGraphAccess(
            table, RemoteVertexCache(cache_capacity), owner=owner, fetch=fetch
        )
        for table in tables
    ]
