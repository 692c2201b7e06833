"""Tests for the compact-ID bitmask task domain."""

import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.domain import TaskDomain, bit_list, is_quasi_clique_masked
from repro.core.quasiclique import is_quasi_clique
from repro.graph.adjacency import Graph

from conftest import make_random_graph


class TestBits:
    def test_bits_ascending(self):
        assert bit_list(0) == []
        assert bit_list(0b1011) == [0, 1, 3]
        assert bit_list((1 << 70) | 1) == [0, 70]


@st.composite
def masks(draw, max_width: int = 600):
    """A mask of 0..`max_width` bits, from a single bit to every bit set.

    ANDing k random words thins the density to about 2^-k, ORing them
    thickens it, so the byte-table path (up to 256 bits, mostly-zero
    bytes included) and the wide fallback (over 256 bits) both run.
    """
    width = draw(st.integers(min_value=0, max_value=max_width))
    if width == 0:
        return 0
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    shape = draw(st.sampled_from(["one", "full", "thin", "thick"]))
    if shape == "one":
        return 1 << draw(st.integers(min_value=0, max_value=width - 1))
    if shape == "full":
        return (1 << width) - 1
    mask = draw(word)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mask = mask & draw(word) if shape == "thin" else mask | draw(word)
    return mask


@given(mask=masks())
@example(mask=(1 << 256) - 1)  # the widest mask the byte table decodes
@example(mask=(1 << 257) - 1)  # dense, one bit past the table: wide fallback
@example(mask=(1 << 600) - 1)  # wide and full
@example(mask=1 << 255)  # one bit in 32 bytes: 31 zero bytes skipped
@example(mask=1 << 256)  # one bit, one past the table: wide fallback
def test_bit_list_matches_reference(mask):
    """The decoder equals a plain per-position scan on every path."""
    assert bit_list(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestConstruction:
    def test_from_graph_full(self):
        g = Graph.from_edges([(10, 20), (20, 30), (10, 30), (30, 40)])
        d = TaskDomain.from_graph(g)
        assert d.verts == (10, 20, 30, 40)
        assert d.num_vertices == 4
        assert d.num_edges == 4
        # Local adjacency mirrors global adjacency under the relabeling.
        assert d.degree_in(d.index[30], d.full_mask) == g.degree(30)

    def test_from_graph_members_restricts(self):
        g = make_random_graph(15, 0.4, seed=5)
        members = [2, 3, 5, 7, 11]
        d = TaskDomain.from_graph(g, members)
        assert d.verts == tuple(members)
        assert d.to_graph() == g.subgraph(set(members))

    def test_from_graph_mask_export_matches_per_vertex_path(self):
        # Non-compact IDs: the fast path must relabel exactly as the
        # per-vertex build does.
        g = Graph.from_edges((3 * u + 5, 3 * v + 5) for u, v in
                             make_random_graph(12, 0.35, seed=8).edges())
        g.add_vertex(100)  # isolated
        fast = TaskDomain.from_graph(g)  # Graph.adjacency_masks()
        per_vertex = TaskDomain.from_graph(g, list(g.vertices()))
        assert fast == per_vertex
        assert fast.verts == tuple(sorted(g.vertices()))

    def test_from_adjacency_drops_foreign_and_self(self):
        # Neighbor 99 is not a key; 1 lists itself — both ignored.
        d = TaskDomain.from_adjacency({0: [1, 99], 1: [0, 1, 2], 2: [1]})
        assert d.verts == (0, 1, 2)
        assert d.num_edges == 2
        assert d.adj[d.index[0]] == 1 << d.index[1]

    def test_equivalent_to_graph_build(self):
        g = make_random_graph(20, 0.3, seed=2)
        adjacency = {v: g.neighbors(v) for v in g.vertices()}
        assert TaskDomain.from_adjacency(adjacency) == TaskDomain.from_graph(g)


class TestTranslation:
    def test_mask_round_trip(self):
        g = make_random_graph(10, 0.5, seed=1)
        d = TaskDomain.from_graph(g)
        subset = [1, 4, 7]
        mask = d.mask_of_globals(subset)
        assert d.globals_of(mask) == subset

    def test_mask_of_unknown_global_raises(self):
        d = TaskDomain.from_adjacency({0: [1], 1: [0]})
        with pytest.raises(KeyError):
            d.mask_of_globals([5])


class TestRestrict:
    def test_restrict_matches_subgraph(self):
        g = make_random_graph(18, 0.35, seed=4)
        d = TaskDomain.from_graph(g)
        keep_globals = [0, 3, 4, 8, 9, 12]
        sub = d.restrict(d.mask_of_globals(keep_globals))
        assert sub.verts == tuple(keep_globals)
        assert sub.to_graph() == g.subgraph(set(keep_globals))

    def test_restrict_shrinks_pickle(self):
        g = make_random_graph(40, 0.4, seed=6)
        d = TaskDomain.from_graph(g)
        sub = d.restrict(d.mask_of_globals(range(8)))
        assert len(pickle.dumps(sub)) < len(pickle.dumps(d))


class TestPickle:
    def test_round_trip(self):
        g = make_random_graph(16, 0.4, seed=3)
        d = TaskDomain.from_graph(g)
        clone = pickle.loads(pickle.dumps(d))
        assert clone == d
        assert clone.index == d.index  # index rebuilt lazily

    def test_smaller_than_graph_pickle(self):
        g = make_random_graph(60, 0.3, seed=7)
        d = TaskDomain.from_graph(g)
        assert len(pickle.dumps(d)) < len(pickle.dumps(g))


class TestMaskAlgebra:
    def test_connected_in(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)], vertices=range(5))
        d = TaskDomain.from_graph(g)
        assert d.connected_in(d.mask_of_globals([0, 1, 2]))
        assert not d.connected_in(d.mask_of_globals([0, 1, 3]))
        assert not d.connected_in(0)
        assert d.connected_in(d.mask_of_globals([4]))

    def test_two_hop_mask(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        d = TaskDomain.from_graph(g)
        assert d.two_hop_mask(d.index[0]) == d.mask_of_globals([0, 1, 2])

    def test_is_quasi_clique_masked_matches_set_version(self):
        g = make_random_graph(12, 0.5, seed=9)
        d = TaskDomain.from_graph(g)
        for subset in ([0, 1, 2], [3, 4, 5, 6], [0, 5, 11], list(range(12))):
            for gamma in (0.5, 0.75, 1.0):
                assert is_quasi_clique_masked(
                    d, d.mask_of_globals(subset), gamma
                ) == is_quasi_clique(g, set(subset), gamma)


class TestTwoHopMemo:
    """The memo is a cache: invisible on the wire, to ==, hash and children.

    Pickled domains are what the process and cluster backends ship per
    task, so a filled memo must not add a byte to them.
    """

    def filled(self, seed=11):
        d = TaskDomain.from_graph(make_random_graph(20, 0.3, seed=seed))
        before = pickle.dumps(d)
        for v in range(len(d)):
            d.two_hop_mask(v)
        d.two_hop_mask(0)  # a hit, not a recomputation
        return d, before

    def test_pickle_bytes_unchanged(self):
        d, before = self.filled()
        assert pickle.dumps(d) == before
        assert pickle.loads(before)._two_hop is None

    def test_eq_and_hash_ignore_memo(self):
        d, _ = self.filled()
        fresh = TaskDomain(d.verts, d.adj)
        assert d == fresh and hash(d) == hash(fresh)

    def test_memo_matches_fresh_computation(self):
        d, _ = self.filled()
        for v in range(len(d)):
            assert d.two_hop_mask(v) == TaskDomain(d.verts, d.adj).two_hop_mask(v)

    def test_restrict_children_start_empty(self):
        d, _ = self.filled()
        child = d.restrict(d.mask_of_globals(range(0, 20, 2)))
        assert child._two_hop is None
        for v in range(len(child)):
            assert child.two_hop_mask(v) == TaskDomain(child.verts, child.adj).two_hop_mask(v)
