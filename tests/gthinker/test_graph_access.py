"""The GraphAccess seam: one interface from TaskDomain to the wire.

Three properties pin the distributed vertex store's foundation:

1. **exactly-one-owner** — every partitioning strategy assigns each
   vertex to exactly one partition, for any worker count;
2. **owner stability** — `owner_of` is a pure function of (vertex,
   num_partitions): re-partitioning with the same count reassigns
   nothing, which is what lets a rejoining worker reuse a partition;
3. **access equivalence** — a `RemoteGraphAccess` whose fetches are
   served faithfully (fault-free `admit` of whatever `unresolved`
   lists) answers every read exactly like the whole `Graph`. This is
   the property the cluster's oracle-equality tests inherit.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.access import GraphAccess, neighbor_mask
from repro.graph.adjacency import Graph
from repro.gthinker.config import EngineConfig
from repro.gthinker.partition import make_partitioner
from repro.gthinker.scheduler import build_machines
from repro.gthinker.vertex_store import (
    LocalVertexTable,
    RemoteGraphAccess,
    RemoteVertexCache,
    in_process_stores,
    owner_function,
    owner_of,
)

from conftest import make_random_graph

STRATEGIES = ("hash", "range", "balanced_degree")


class TestProtocolConformance:
    def test_all_implementations_satisfy_graph_access(self):
        # Every executor's machine builds one of these three stores.
        g = make_random_graph(8, 0.5, seed=1)
        tables = LocalVertexTable.partition(g, 2)
        impls = [
            # cluster worker: misses come off the wire
            RemoteGraphAccess(tables[0], RemoteVertexCache(4),
                              owner=owner_function(2)),
            # serial executor machine: synchronous owner fetch
            in_process_stores(tables, 4)[0],
            # warm-start (process backend) worker: the whole graph as
            # one partition
            build_machines(g, EngineConfig())[0].data,
        ]
        for impl in impls:
            assert isinstance(impl, GraphAccess), type(impl).__name__


class TestAscendingAdjacency:
    """Iterations 1–2 of the quasi-clique app slice and intersect served
    adjacency as sorted lists, so every source must serve them
    ascending, whatever order the edges or wire entries arrived in."""

    def test_every_adjacency_source_serves_ascending_lists(self):
        rng = random.Random(7)
        ref = make_random_graph(30, 0.3, seed=17)
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in ref.edges()]
        rng.shuffle(edges)
        shuffled = {}
        for v in ref.vertices():
            adj = list(ref.neighbors(v))
            rng.shuffle(adj)
            shuffled[v] = adj
        order = list(shuffled)
        rng.shuffle(order)

        added = Graph()
        for u, v in edges:
            added.add_edge(u, v)
        graphs = {
            "add_edge": added,
            "from_edges": Graph.from_edges(edges, vertices=order),
            "Graph(adjacency)": Graph({v: shuffled[v] for v in order}),
        }
        graphs["subgraph"] = graphs["from_edges"].subgraph(order[:20])
        graphs["pickle"] = pickle.loads(pickle.dumps(graphs["add_edge"]))
        served = {
            name: {v: g.neighbors(v) for v in g.vertices()}
            for name, g in graphs.items()
        }
        tables = LocalVertexTable.partition(graphs["from_edges"], 3)
        served["partition"] = {v: t.get(v) for t in tables for v in t.vertices_sorted()}
        table = LocalVertexTable.from_entries(0, 1, {v: shuffled[v] for v in order})
        served["from_entries"] = {v: table.get(v) for v in order}
        store = RemoteGraphAccess(LocalVertexTable(0, 2), RemoteVertexCache(64))
        store.admit([(v, shuffled[v]) for v in order])
        served["admit"] = store.resolve(order)

        everything, kept = set(ref.vertices()), set(order[:20])
        for name, adjacency in served.items():
            members = kept if name == "subgraph" else everything
            assert set(adjacency) == members, name
            for v, adj in adjacency.items():
                assert list(adj) == sorted(set(ref.neighbors(v)) & members), (name, v)


class TestPoolWorkerStore:
    """A warm-start worker (the process backend's) reads its whole-graph
    replica through the same store as every other machine, and never
    goes remote."""

    @pytest.mark.parametrize("transport", ["direct", "spawn"])
    def test_worker_store_serves_whole_graph_locally(self, transport):
        g = make_random_graph(20, 0.3, seed=5)
        g.add_vertex(99)  # isolated: the spawn path's pickle must keep it
        if transport == "spawn":  # the graph rides pickled as an argument
            g = pickle.loads(pickle.dumps(g))
        store = build_machines(g, EngineConfig(cache_capacity=2))[0].data
        assert isinstance(store, RemoteGraphAccess)
        members = sorted(g.vertices()) + [1000]  # 1000: not in the graph
        assert store.unresolved(members) == []
        out = store.resolve(members)
        assert {v: tuple(adj) for v, adj in out.items()} == {
            v: tuple(g.neighbors(v)) if g.has_vertex(v) else ()
            for v in members
        }
        assert store.remote_messages == 0
        assert len(store.cache) == 0


class TestExactlyOneOwner:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_every_vertex_has_exactly_one_owner(self, strategy, workers):
        g = make_random_graph(30, 0.3, seed=17)
        part = make_partitioner(strategy, g, workers)
        counts = {v: 0 for v in g.vertices()}
        for pid, members in enumerate(part.parts()):
            for v in members:
                assert part.owner(v) == pid
                counts[v] += 1
        assert all(c == 1 for c in counts.values()), (
            f"{strategy}/{workers}: vertices owned != once: "
            f"{[v for v, c in counts.items() if c != 1]}"
        )

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_partition_tables_cover_graph_disjointly(self, workers):
        g = make_random_graph(25, 0.3, seed=19)
        tables = LocalVertexTable.partition(g, workers)
        seen: set[int] = set()
        for t in tables:
            vs = set(t.vertices_sorted())
            assert not (vs & seen), "vertex in two partition tables"
            seen |= vs
        assert seen == set(g.vertices())


class TestOwnerStability:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_owner_of_is_stable_across_calls(self, workers):
        for v in range(200):
            assert owner_of(v, workers) == owner_of(v, workers)
            assert 0 <= owner_of(v, workers) < workers

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_repartitioning_reassigns_nothing(self, workers):
        # The cluster master hands partition worker_id % num_workers to
        # a rejoining worker: the tables built for the first incarnation
        # must be byte-identical on a rebuild.
        g = make_random_graph(20, 0.4, seed=23)
        first = LocalVertexTable.partition(g, workers)
        second = LocalVertexTable.partition(g, workers)
        for a, b in zip(first, second):
            assert a.vertices_sorted() == b.vertices_sorted()
            assert a.entries() == b.entries()

    def test_hash_owner_matches_partitioner_parts(self):
        # The RemoteGraphAccess absence shortcut assumes the 'hash'
        # strategy and owner_of agree exactly.
        g = make_random_graph(20, 0.4, seed=29)
        for workers in (1, 2, 3, 5, 8):
            part = make_partitioner("hash", g, workers)
            for v in g.vertices():
                assert part.owner(v) == owner_of(v, workers)


@st.composite
def graph_and_partitioning(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    graph = Graph.from_edges(edges, vertices=range(n))
    workers = draw(st.integers(min_value=1, max_value=4))
    pid = draw(st.integers(min_value=0, max_value=workers - 1))
    capacity = draw(st.sampled_from([1, 2, 4, 1 << 16]))
    return graph, workers, pid, capacity


class TestAccessEquivalence:
    @given(graph_and_partitioning())
    @settings(max_examples=60, deadline=None)
    def test_remote_access_equals_in_memory_when_served_faithfully(self, case):
        graph, workers, pid, capacity = case
        tables = LocalVertexTable.partition(graph, workers)
        access = RemoteGraphAccess(
            tables[pid], RemoteVertexCache(capacity),
            owner=owner_function(workers),
        )
        members = sorted(graph.vertices())
        # Fault-free fetch, with the worker's park discipline: pin the
        # pull set, then admit (pinned) exactly what unresolved listed —
        # one faithful VertexRequest/VertexReply round trip. Pins keep
        # the entries resident even when capacity < the pull count.
        missing = access.unresolved(members)
        access.pin(members)
        access.admit(((v, graph.neighbors(v)) for v in missing), pin=True)
        assert access.unresolved(members) == []
        for v in members:
            assert tuple(access.neighbors(v)) == tuple(graph.neighbors(v))
            assert access.degree(v) == graph.degree(v)
            assert access.adjacency_mask(v, members) == (
                neighbor_mask(graph.neighbors(v), members)
            )
        resolved = access.resolve(members)
        assert {v: tuple(adj) for v, adj in resolved.items()} == {
            v: tuple(graph.neighbors(v)) for v in members
        }
        # The memory-bound side of the bargain: once the task's pins
        # release, residency never exceeds partition + cache capacity.
        access.unpin(members)
        assert access.resident_entries() <= len(tables[pid]) + capacity

    @given(graph_and_partitioning())
    @settings(max_examples=30, deadline=None)
    def test_data_service_equals_in_memory(self, case):
        """Each in-process machine's store (its data service) answers a
        whole-graph pull batch exactly like the whole graph."""
        graph, workers, pid, capacity = case
        tables = LocalVertexTable.partition(graph, workers)
        svc = in_process_stores(tables, capacity)[pid]
        out = svc.resolve(sorted(graph.vertices()))
        assert {v: tuple(adj) for v, adj in out.items()} == {
            v: tuple(graph.neighbors(v)) for v in graph.vertices()
        }
