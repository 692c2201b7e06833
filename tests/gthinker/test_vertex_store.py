"""Tests for the partitioned vertex table and remote cache."""

import pickle

import pytest

from repro.graph.adjacency import Graph
from repro.gthinker.vertex_store import (
    LocalVertexTable,
    RemoteGraphAccess,
    RemoteVertexCache,
    in_process_stores,
    owner_function,
    owner_of,
)

from conftest import make_random_graph


class TestPartition:
    def test_ownership_by_hash(self):
        g = make_random_graph(20, 0.3, seed=1)
        tables = LocalVertexTable.partition(g, 4)
        assert len(tables) == 4
        for m, table in enumerate(tables):
            for v in table.vertices_sorted():
                assert owner_of(v, 4) == m
        total = sum(len(t) for t in tables)
        assert total == g.num_vertices

    def test_adjacency_preserved(self):
        g = make_random_graph(15, 0.4, seed=2)
        tables = LocalVertexTable.partition(g, 3)
        for v in g.vertices():
            assert tables[owner_of(v, 3)].get(v) == g.neighbors(v)

    def test_spawn_order_sorted(self):
        g = make_random_graph(12, 0.3, seed=3)
        for table in LocalVertexTable.partition(g, 2):
            order = table.vertices_sorted()
            assert order == sorted(order)


class TestZeroCopyPartition:
    """Regression: `partition()` must store the graph's own adjacency
    lists — it used to copy every one, doubling the graph's memory
    during the partition step."""

    def test_graph_partition_shares_adjacency_objects(self):
        g = make_random_graph(14, 0.4, seed=11)
        tables = LocalVertexTable.partition(g, 2)
        for v in g.vertices():
            assert tables[owner_of(v, 2)].get(v) is g.neighbors(v)

    def test_entries_are_picklable_despite_views(self):
        # Shared live lists must not ride the wire; entries() must
        # copy, and from_entries() must rebuild an equal table.
        g = make_random_graph(10, 0.4, seed=13)
        table = LocalVertexTable.partition(g, 2)[0]
        blob = pickle.dumps(table.entries())
        rebuilt = LocalVertexTable.from_entries(0, 2, pickle.loads(blob))
        assert len(rebuilt) == len(table)
        for v in table.vertices_sorted():
            assert tuple(rebuilt.get(v)) == tuple(table.get(v))


class TestCache:
    def test_hit_miss_counting(self):
        cache = RemoteVertexCache(capacity=4)
        assert cache.get(1) is None
        cache.put(1, [2, 3])
        assert cache.get(1) == [2, 3]
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = RemoteVertexCache(capacity=2)
        cache.put(1, [])
        cache.put(2, [])
        cache.get(1)  # refresh 1 → 2 is LRU
        cache.put(3, [])
        assert cache.get(2) is None
        assert cache.get(1) == []
        assert cache.evictions == 1

    def test_capacity_floor(self):
        cache = RemoteVertexCache(capacity=0)
        cache.put(1, [])
        assert len(cache) == 1  # clamped to 1


class TestInProcessFetch:
    """A machine's store with the in-process fetch: a miss is served
    synchronously from the owner's table, counted and cached."""

    def test_local_reads_free(self):
        g = make_random_graph(10, 0.4, seed=5)
        tables = LocalVertexTable.partition(g, 2)
        svc = in_process_stores(tables, 16)[0]
        local_vs = tables[0].vertices_sorted()
        out = svc.resolve(local_vs)
        assert svc.remote_messages == 0
        assert svc.local_reads == len(local_vs)
        for v in local_vs:
            assert out[v] == g.neighbors(v)

    def test_remote_fetch_counts_and_caches(self):
        g = make_random_graph(10, 0.4, seed=6)
        tables = LocalVertexTable.partition(g, 2)
        svc = in_process_stores(tables, 16)[0]
        remote_vs = tables[1].vertices_sorted()
        assert svc.unresolved(remote_vs) == []  # never a wire fetch
        svc.resolve(remote_vs)
        assert svc.remote_messages == len(remote_vs)
        svc.resolve(remote_vs)  # second round served from cache
        assert svc.remote_messages == len(remote_vs)

    def test_unknown_vertex_resolves_empty(self):
        g = Graph.from_edges([(0, 1)])
        tables = LocalVertexTable.partition(g, 1)
        svc = in_process_stores(tables, 4)[0]
        assert svc.resolve([99]) == {99: ()}


class TestCustomPartitioner:
    def test_partition_routes_via_custom_owner(self):
        from repro.gthinker.partition import range_partitioner

        g = make_random_graph(12, 0.4, seed=9)
        part = range_partitioner(g, 3)
        tables = LocalVertexTable.partition(g, 3, partitioner=part)
        for v in g.vertices():
            assert tables[part.owner(v)].owns(v)
        # Contiguous ranges: every table's vertices form one interval
        # of the sorted ID space.
        for t in tables:
            vs = t.vertices_sorted()
            if vs:
                assert vs == list(range(vs[0], vs[-1] + 1))

    def test_data_service_resolves_through_custom_owner(self):
        from repro.gthinker.partition import range_partitioner

        g = make_random_graph(12, 0.4, seed=10)
        part = range_partitioner(g, 2)
        tables = LocalVertexTable.partition(g, 2, partitioner=part)
        svc = in_process_stores(tables, 8, partitioner=part)[0]
        out = svc.resolve(sorted(g.vertices()))
        for v in g.vertices():
            assert out[v] == g.neighbors(v)


class TestRemoteGraphAccess:
    """The cluster worker's partition-plus-cache view of the graph."""

    def make(self, seed=7, capacity=4):
        g = make_random_graph(12, 0.4, seed=seed)
        tables = LocalVertexTable.partition(g, 2)
        access = RemoteGraphAccess(
            tables[0], RemoteVertexCache(capacity), owner=owner_function(2),
        )
        return g, tables, access

    def test_owned_reads_are_local(self):
        g, tables, access = self.make()
        for v in tables[0].vertices_sorted():
            assert access.unresolved([v]) == []
            assert list(access.neighbors(v)) == list(g.neighbors(v))
        assert access.remote_messages == 0

    def test_unresolved_lists_non_owned_uncached_once(self):
        g, tables, access = self.make()
        remote = tables[1].vertices_sorted()
        assert access.unresolved(remote + remote) == remote  # deduped

    def test_neighbors_raises_before_admit(self):
        _, tables, access = self.make()
        v = tables[1].vertices_sorted()[0]
        with pytest.raises(KeyError):
            access.neighbors(v)
        with pytest.raises(RuntimeError):
            access.resolve([v])

    def test_admit_makes_vertices_resolvable(self):
        g, tables, access = self.make(capacity=16)
        remote = tables[1].vertices_sorted()
        access.admit((v, g.neighbors(v)) for v in remote)
        assert access.unresolved(remote) == []
        for v in remote:
            assert tuple(access.neighbors(v)) == tuple(g.neighbors(v))
        assert access.remote_messages == len(remote)

    def test_admit_skips_owned_vertices(self):
        g, tables, access = self.make()
        own = tables[0].vertices_sorted()[0]
        assert access.admit([(own, ())]) == 0
        assert list(access.neighbors(own)) == list(g.neighbors(own))

    def test_known_absent_owner_gap_resolves_empty(self):
        # Vertex 98 is even → partition 0 owns it under hash; it was
        # never loaded, so it provably does not exist: no fetch needed.
        _, _, access = self.make()
        assert access.known_absent(98)
        assert access.unresolved([98]) == []
        assert access.neighbors(98) == ()
        # An odd (non-owned) unknown vertex *does* need a fetch.
        assert not access.known_absent(99)
        assert access.unresolved([99]) == [99]

    def test_no_absence_shortcut_for_non_hash_partitioning(self):
        g = make_random_graph(12, 0.4, seed=8)
        tables = LocalVertexTable.partition(g, 2)
        access = RemoteGraphAccess(tables[0], RemoteVertexCache(4))  # no owner map
        assert not access.known_absent(98)
        assert access.unresolved([98]) == [98]

    def test_pins_survive_eviction(self):
        # A cache smaller than a task's pull list: pinned entries must
        # outlive LRU pressure until unpin (the anti-livelock property).
        g, tables, access = self.make(capacity=1)
        remote = tables[1].vertices_sorted()
        assert len(remote) >= 3
        access.admit(((v, g.neighbors(v)) for v in remote), pin=True)
        assert access.unresolved(remote) == []  # all pinned
        for v in remote:
            assert tuple(access.neighbors(v)) == tuple(g.neighbors(v))
        access.unpin(remote)
        # Only the cache's single slot survives the unpin.
        assert len(access.unresolved(remote)) == len(remote) - 1

    def test_pin_refcounts_release_once_per_unpin(self):
        g, tables, access = self.make(capacity=1)
        v = tables[1].vertices_sorted()[0]
        access.admit([(v, g.neighbors(v))], pin=True)
        access.pin([v])  # second task parks on the same vertex
        access.unpin([v])
        assert access.unresolved([v]) == []  # still pinned by task 2
        access.unpin([v])
        access.cache.put(-1, ())  # evicts v from the 1-slot cache
        assert access.unresolved([v]) == [v]

    def test_resident_entries_never_double_counts(self):
        g, tables, access = self.make(capacity=8)
        remote = tables[1].vertices_sorted()
        access.admit(((v, g.neighbors(v)) for v in remote), pin=True)
        # Every pinned entry also sits in the cache: counted once.
        assert access.resident_entries() == len(tables[0]) + len(remote)


class TestRemoteMisses:
    def test_remote_unknown_vertex_resolves_empty_and_is_cached(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        tables = LocalVertexTable.partition(g, 2)
        svc = in_process_stores(tables, 8)[0]
        # 99 is odd → owned by machine 1, which never loaded it.
        assert svc.resolve([99]) == {99: ()}
        assert svc.remote_messages == 1
        svc.resolve([99])  # second lookup must hit the cache
        assert svc.remote_messages == 1

    def test_owns_reports_only_loaded_vertices(self):
        g = Graph.from_edges([(0, 1)])
        tables = LocalVertexTable.partition(g, 2)
        assert tables[0].owns(0)
        assert not tables[0].owns(1)
        assert not tables[0].owns(40)
