"""Compact-ID bitmask task domains — the mining hot path representation.

A mining task never looks outside S ∪ ext(S): every degree family the
pruning rules consume (paper T2), the U_S/L_S bounds, the diameter
filter, and the validity predicate are functions of the subgraph
induced on the task's vertices. ``TaskDomain`` exploits that by
relabeling the task's vertex set to *local* IDs ``0..m-1`` (ascending
global order) and storing adjacency as one Python big-int bitmask per
vertex: bit ``j`` of ``adj[i]`` is set iff local vertices ``i`` and
``j`` are adjacent.

Vertex sets over the domain (S, ext(S), cover tails, removal sets) are
then plain ints, and the hot-path algebra collapses to C-speed word
operations::

    d_S(v)        = (adj[v] & s_mask).bit_count()     # one popcount
    Γ_ext(v)      = adj[v] & ext_mask                  # one AND
    ext \\ pruned  = ext_mask & ~removed                # one ANDNOT

where a dict/set representation would loop per element. The local→global
table ``verts`` is carried once per domain, so a pickled domain is a
tuple of ints — far smaller than a ``Graph`` (which pickles a neighbor
list *and* a neighbor set per vertex), which is what the process and
cluster backends ship over their wire format.

Results stay frozensets of *global* IDs: :meth:`TaskDomain.globals_of`
translates a mask back at emission time only.

:func:`bit_list` is the one mask decoder: every walk over the set bits
of a mask (degree views, BFS frontiers, two-hop unions, re-compaction)
goes through it. It reads the mask a byte at a time — ``to_bytes``,
then one list extend per non-zero byte from a table of the byte's bit
offsets, precomputed at import for the first 256 bits (about 0.7 MB) —
so a mask costs one step per byte instead of one per set bit. Masks
wider than the table keep the low-bit loop ``mask & -mask``.
:meth:`TaskDomain.restrict` re-compacts by the *bit runs* of its mask:
each kept vertex's row is one shift-and-mask per run, with no per-bit
work at all.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .quasiclique import degree_floor

__all__ = [
    "TaskDomain",
    "bit_list",
    "is_quasi_clique_masked",
]

#: Bytes of a mask the decode table covers: masks up to 256 bits.
_TABLE_BYTES = 32
#: ``_BYTE_BITS[k][b]``: the set-bit positions of byte value ``b`` at
#: byte offset ``k`` of a mask, ascending.
_BYTE_BITS = tuple(
    tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
    for k in range(_TABLE_BYTES)
)


def bit_list(mask: int) -> list[int]:
    """Set bit positions of `mask` as an ascending list."""
    nbytes = (mask.bit_length() + 7) >> 3
    if nbytes > _TABLE_BYTES:
        out = []
        append = out.append
        while mask:
            low = mask & -mask
            append(low.bit_length() - 1)
            mask ^= low
        return out
    out = []
    for row, byte in zip(_BYTE_BITS, mask.to_bytes(nbytes, "little")):
        if byte:
            out += row[byte]
    return out


def _bit_runs(mask: int) -> list[tuple[int, int, int]]:
    """Maximal runs of set bits in `mask`, lowest first.

    Each run is ``(start, ones, offset)``: it begins at bit ``start``,
    ``ones`` is its width as a low mask ``(1 << width) - 1``, and
    ``offset`` counts the set bits of `mask` below it — where the run
    lands once `mask`'s bits are packed down to ``0..popcount-1``.
    """
    runs = []
    offset = 0
    while mask:
        low = mask & -mask
        start = low.bit_length() - 1
        rest = mask & (mask + low)  # adding `low` carries through the run
        width = (mask ^ rest).bit_length() - start
        runs.append((start, (1 << width) - 1, offset))
        offset += width
        mask = rest
    return runs


class TaskDomain:
    """A task subgraph compacted to local IDs 0..m-1 with bitmask adjacency.

    ``verts[i]`` is the global ID of local vertex ``i`` (ascending), and
    ``adj[i]`` is the bitmask of its neighbors *within the domain*.
    Instances are immutable and cheaply picklable (two tuples of ints).
    Two lazily filled caches — the global→local index and the two-hop
    masks — are derived from those tuples; pickling, ``==`` and ``hash``
    ignore them.
    """

    __slots__ = ("verts", "adj", "_index", "_two_hop")

    def __init__(self, verts: tuple[int, ...], adj: tuple[int, ...]):
        self.verts = verts
        self.adj = adj
        self._index: dict[int, int] | None = None
        self._two_hop: dict[int, int] | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_graph(cls, graph, members: Iterable[int] | None = None) -> "TaskDomain":
        """Compact the subgraph induced on `members` (default: all of `graph`).

        `graph` may be anything exposing ``vertices()``/``neighbors()``;
        when `members` is None and it offers ``adjacency_masks()`` (as
        :class:`~repro.graph.adjacency.Graph` does), the precompacted
        export is used directly.
        """
        if members is None:
            masks = getattr(graph, "adjacency_masks", None)
            if masks is not None:
                verts, adj = masks()
                return cls(verts, adj)
            members = graph.vertices()
        verts = tuple(sorted(set(members)))
        index = {g: i for i, g in enumerate(verts)}
        adj = []
        for g in verts:
            m = 0
            for u in graph.neighbors(g):
                j = index.get(u)
                if j is not None:
                    m |= 1 << j
            adj.append(m)
        domain = cls(verts, tuple(adj))
        domain._index = index
        return domain

    @classmethod
    def from_access(cls, access, members: Iterable[int] | None = None) -> "TaskDomain":
        """Compact a domain through a :class:`~repro.graph.access.
        GraphAccess` instead of a concrete graph container.

        The access object must be able to answer every member locally
        (``access.unresolved(members)`` empty) — distributed callers
        fetch first, then build. With `members` None the access must
        also expose ``vertices()``, and one exposing
        ``adjacency_masks()`` shares the :meth:`from_graph` fast path.
        """
        missing = access.unresolved([] if members is None else list(members))
        if missing:
            raise RuntimeError(
                f"cannot build a TaskDomain over unresolved vertices "
                f"{sorted(missing)[:8]}{'...' if len(missing) > 8 else ''}; "
                f"fetch them first (GraphAccess.unresolved/admit)"
            )
        return cls.from_graph(access, members)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Iterable[int]]) -> "TaskDomain":
        """Compact a closed adjacency mapping (every listed neighbor is a key).

        Neighbors outside the key set are ignored, matching the
        "destination-only vertices dropped" closure of the task-build
        pipeline (paper Algorithm 7).
        """
        verts = tuple(sorted(adjacency))
        index = {g: i for i, g in enumerate(verts)}
        adj = []
        for g in verts:
            m = 0
            for u in adjacency[g]:
                j = index.get(u)
                if j is not None and u != g:
                    m |= 1 << j
            adj.append(m)
        domain = cls(verts, tuple(adj))
        domain._index = index
        return domain

    def __reduce__(self):
        # Pickle only the two tuples; the caches are rebuilt lazily.
        return (TaskDomain, (self.verts, self.adj))

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    @property
    def index(self) -> dict[int, int]:
        """global ID → local ID (lazily built, cached)."""
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.verts)}
        return self._index

    @property
    def full_mask(self) -> int:
        """Mask with every domain vertex set: (1 << m) − 1."""
        return (1 << len(self.verts)) - 1

    def degree(self, v: int) -> int:
        """Degree of local vertex `v` within the domain."""
        return self.adj[v].bit_count()

    def degree_in(self, v: int, mask: int) -> int:
        """d_{mask}(v): neighbors of local `v` inside `mask` (one popcount)."""
        return (self.adj[v] & mask).bit_count()

    # -- global ↔ local translation ---------------------------------------

    def mask_of_globals(self, vertices: Iterable[int]) -> int:
        """Mask of the local IDs of `vertices` (all must be in the domain)."""
        index = self.index
        m = 0
        for g in vertices:
            m |= 1 << index[g]
        return m

    def globals_of(self, mask: int) -> list[int]:
        """Global IDs of the set bits of `mask`, ascending."""
        verts = self.verts
        return [verts[i] for i in bit_list(mask)]

    # -- derived domains ---------------------------------------------------

    def restrict(self, mask: int) -> "TaskDomain":
        """Re-compact the subgraph induced on `mask` to a fresh domain.

        This is the subtask-split path: the child carries only its own
        vertices, so its pickled footprint shrinks with its workload.
        Local IDs keep their order, so each run of consecutive kept IDs
        lands as one block: a kept row is rebuilt with one shift-and-mask
        per run of `mask`.
        """
        keep = bit_list(mask)
        runs = _bit_runs(mask)
        adj = self.adj
        rows = []
        for i in keep:
            row = adj[i]
            m = 0
            for start, ones, offset in runs:
                m |= (row >> start & ones) << offset
            rows.append(m)
        verts = self.verts
        return TaskDomain(tuple(verts[i] for i in keep), tuple(rows))

    def to_graph(self):
        """Expand back to a mutable global-ID :class:`Graph` (tests/tools).

        Imported lazily to keep the domain importable from the graph
        layer without a cycle.
        """
        from ..graph.adjacency import Graph

        g = Graph()
        verts = self.verts
        for v in verts:
            g.add_vertex(v)
        for i, m in enumerate(self.adj):
            for j in bit_list(m):
                if j > i:
                    g.add_edge(verts[i], verts[j])
        return g

    # -- mask algebra used by the pruning rules -----------------------------

    def connected_in(self, mask: int) -> bool:
        """True iff the subgraph induced on `mask` is connected (mask BFS)."""
        if mask == 0:
            return False
        adj = self.adj
        reached = mask & -mask
        frontier = reached
        while frontier:
            nxt = 0
            for j in bit_list(frontier):
                nxt |= adj[j]
            frontier = nxt & mask & ~reached
            reached |= frontier
        return reached == mask

    def two_hop_mask(self, v: int) -> int:
        """Vertices within two hops of local `v` (neighbors ∪ their neighbors).

        Memoised per vertex: the walk asks for the same anchors again
        and again, and the domain never changes.
        """
        memo = self._two_hop
        if memo is None:
            memo = self._two_hop = {}
        hop = memo.get(v)
        if hop is None:
            adj = self.adj
            hop = adj[v]
            for j in bit_list(hop):
                hop |= adj[j]
            memo[v] = hop
        return hop

    # -- dunder sugar -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.verts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskDomain):
            return NotImplemented
        return self.verts == other.verts and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.verts, self.adj))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskDomain(|V|={self.num_vertices}, |E|={self.num_edges})"


def is_quasi_clique_masked(
    domain: TaskDomain, s_mask: int, gamma: float, require_connected: bool = True
) -> bool:
    """Mask-native Definition 1: every member clears the degree floor.

    Equivalent to :func:`repro.core.quasiclique.is_quasi_clique` on the
    induced subgraph — degrees are popcounts, connectivity is a mask BFS.
    """
    size = s_mask.bit_count()
    if size == 0:
        return False
    floor_deg = degree_floor(gamma, size)
    adj = domain.adj
    m = s_mask
    while m:
        low = m & -m
        if (adj[low.bit_length() - 1] & s_mask).bit_count() < floor_deg:
            return False
        m ^= low
    if require_connected and not domain.connected_in(s_mask):
        return False
    return True
