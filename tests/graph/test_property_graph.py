"""Hypothesis property tests for the graph substrate."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.kcore import core_numbers, k_core_vertices
from repro.graph.stats import triangle_count, wedge_count


@st.composite
def graphs(draw, max_vertices: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(
        [p for p, keep in zip(pairs, mask) if keep], vertices=range(n)
    )


@given(g=graphs())
@settings(max_examples=60, deadline=None)
def test_handshake_lemma(g):
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges


@given(g=graphs())
@settings(max_examples=40, deadline=None)
def test_edge_list_round_trip(g):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".txt")
    os.close(fd)
    try:
        write_edge_list(g, path)
        back = read_edge_list(path)
        # Isolated vertices are not representable in an edge list.
        assert sorted(back.edges()) == sorted(g.edges())
    finally:
        os.remove(path)


@given(g=graphs(), k=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_kcore_fixed_point_and_core_numbers(g, k):
    core_v = k_core_vertices(g, k)
    # Every survivor has ≥ k neighbors among survivors.
    for v in core_v:
        assert g.degree_in(v, core_v) >= k
    # Consistency with core numbers: v survives iff core(v) ≥ k.
    cores = core_numbers(g)
    assert core_v == {v for v, c in cores.items() if c >= k}


@given(g=graphs())
@settings(max_examples=40, deadline=None)
def test_triangles_bounded_by_wedges(g):
    assert 3 * triangle_count(g) <= wedge_count(g)


@given(g=graphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_subgraph_induced_property(g, data):
    vertices = sorted(g.vertices())
    keep = set(data.draw(st.lists(st.sampled_from(vertices), unique=True))) if vertices else set()
    sub = g.subgraph(keep)
    assert set(sub.vertices()) == keep
    for u, v in itertools.combinations(sorted(keep), 2):
        assert sub.has_edge(u, v) == g.has_edge(u, v)
