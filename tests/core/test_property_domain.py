"""Hypothesis: the bitmask domain computes what the paper's definitions say.

The hot path (`repro.core.domain` + degrees/pruning) works on compact
local IDs and word operations; these properties pin it, vertex by
vertex, to the definitions evaluated directly on the `Graph`:
|Γ(v) ∩ S| degree families, 2-hop reachability inside the task's scope,
Definition 4 and the Eq. 9 cover condition. The domain here covers only
S ∪ ext, so local IDs differ from global ones. End-to-end equality with
the naive oracle is `test_property_miner.py::test_miner_equals_oracle`.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degrees import compute_degrees_masked, compute_ee_degrees_masked
from repro.core.domain import TaskDomain
from repro.core.pruning import (
    cover_set_masked,
    diameter_filter_masked,
    find_critical_vertex,
    type1_degree_prunable,
    type2_degree_check,
)
from repro.core.quasiclique import ceil_gamma
from repro.graph.adjacency import Graph

GAMMA_CHOICES = [0.5, 0.6, 2 / 3, 0.75, 0.8, 0.9, 1.0]


@st.composite
def graph_and_state(draw, max_vertices: int = 10):
    """Random graph plus a disjoint (S, ext) split with S ≠ ∅."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(
        [pair for pair, keep in zip(pairs, mask) if keep], vertices=range(n)
    )
    labels = draw(
        st.lists(
            st.sampled_from(["s", "ext", "out"]), min_size=n, max_size=n
        )
    )
    s_set = {v for v in range(n) if labels[v] == "s"}
    ext_set = {v for v in range(n) if labels[v] == "ext"}
    if not s_set:
        s_set, ext_set = {0}, ext_set - {0}
    return g, s_set, ext_set


def masked_state(g, s_set, ext_set):
    """Domain over S ∪ ext plus the two masks (the task's scope)."""
    domain = TaskDomain.from_graph(g, sorted(s_set | ext_set))
    return domain, domain.mask_of_globals(s_set), domain.mask_of_globals(ext_set)


def globalize(domain, local_dict):
    return {domain.verts[i]: d for i, d in local_dict.items()}


def degrees_by_definition(g, s_set, ext_set):
    """(SS, ES, SE, EE) as |Γ(v) ∩ X| straight off the graph, global keys."""
    return (
        {v: g.degree_in(v, s_set) for v in s_set},
        {v: g.degree_in(v, ext_set) for v in s_set},
        {u: g.degree_in(u, s_set) for u in ext_set},
        {u: g.degree_in(u, ext_set) for u in ext_set},
    )


@given(state=graph_and_state())
@settings(max_examples=80, deadline=None)
def test_degree_views_match_definition(state):
    """Masked SS/ES/SE/EE degrees = |Γ(v) ∩ S| resp. |Γ(v) ∩ ext|."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    ss, es, se, ee = degrees_by_definition(g, s_set, ext_set)
    got = compute_degrees_masked(domain, s_mask, ext_mask)
    assert globalize(domain, got.in_s_of_s) == ss
    assert globalize(domain, got.in_ext_of_s) == es
    assert globalize(domain, got.in_s_of_ext) == se
    assert got.in_ext_of_ext is None  # EE stays lazy
    assert globalize(domain, compute_ee_degrees_masked(domain, ext_mask, got)) == ee
    # Aggregates (the bound inputs) agree too.
    assert got.sum_s_degrees() == sum(ss.values())
    assert got.min_s_degree() == min(ss.values())
    assert got.min_total_degree_in_s() == min(ss[v] + es[v] for v in s_set)
    assert got.ext_degrees_sorted() == sorted(se.values(), reverse=True)


@given(state=graph_and_state(), gamma=st.sampled_from(GAMMA_CHOICES))
@settings(max_examples=60, deadline=None)
def test_rule_verdicts_match_definition(state, gamma):
    """Type I/II verdicts per vertex, fed the masked view vs the definition."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    ss, es, se, ee = degrees_by_definition(g, s_set, ext_set)
    got = compute_degrees_masked(domain, s_mask, ext_mask)
    got_ee = compute_ee_degrees_masked(domain, ext_mask, got)
    s_size = len(s_set)
    for u in ext_set:
        lu = domain.index[u]
        assert type1_degree_prunable(
            gamma, s_size, got.in_s_of_ext[lu], got_ee[lu]
        ) == type1_degree_prunable(gamma, s_size, se[u], ee[u])
    for v in s_set:
        lv = domain.index[v]
        assert type2_degree_check(
            gamma, s_size, got.in_s_of_s[lv], got.in_ext_of_s[lv]
        ) == type2_degree_check(gamma, s_size, ss[v], es[v])


@given(state=graph_and_state(), gamma=st.sampled_from(GAMMA_CHOICES))
@settings(max_examples=60, deadline=None)
def test_critical_vertex_matches_definition(state, gamma):
    """P6 fires iff some v ∈ S with ext neighbours meets Definition 4."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    ss, es, _, _ = degrees_by_definition(g, s_set, ext_set)
    lower = 1  # any fixed L_S exercises the equation identically
    target = ceil_gamma(gamma, len(s_set) + lower - 1)
    qualifying = {v for v in s_set if es[v] > 0 and ss[v] + es[v] == target}
    view = compute_degrees_masked(domain, s_mask, ext_mask)
    got = find_critical_vertex(gamma, len(s_set), view, lower)
    if got is None:
        assert not qualifying
    else:
        assert domain.verts[got] in qualifying


@given(state=graph_and_state(), gamma=st.sampled_from(GAMMA_CHOICES))
@settings(max_examples=60, deadline=None)
def test_cover_set_matches_eq9(state, gamma):
    """P7 returns a largest C_S(u) over the applicable u ∈ ext (Eq. 9)."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    ss, _, se, _ = degrees_by_definition(g, s_set, ext_set)
    threshold = ceil_gamma(gamma, len(s_set))
    cover_of = {}
    for u in ext_set:
        non_adjacent = [v for v in s_set if not g.has_edge(u, v)]
        if se[u] < threshold or any(ss[v] < threshold for v in non_adjacent):
            continue  # Theorems 3/4 subsume the rule for this u
        covered = {w for w in g.neighbors(u) if w in ext_set}
        for v in non_adjacent:
            covered &= set(g.neighbors(v))
        cover_of[u] = covered
    best = max(map(len, cover_of.values()), default=0)
    view = compute_degrees_masked(domain, s_mask, ext_mask)
    got = cover_set_masked(domain, s_mask, ext_mask, gamma, view)
    if got is None:
        assert best == 0
    else:
        # The winning u may be any of the tied ones; its mask is C_S(u).
        assert got.covered_mask.bit_count() == best
        assert set(domain.globals_of(got.covered_mask)) == cover_of[domain.verts[got.vertex]]


@given(state=graph_and_state())
@settings(max_examples=60, deadline=None)
def test_diameter_filter_matches_two_hop_reachability(state):
    """Theorem 1 keeps u iff it is within 2 hops of the anchor inside the scope."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    scope = s_set | ext_set
    for anchor in s_set:
        nbrs = {w for w in g.neighbors(anchor) if w in scope}
        want = sorted(
            u for u in ext_set
            if u in nbrs or any(g.has_edge(u, w) for w in nbrs)
        )
        got = diameter_filter_masked(domain, domain.index[anchor], ext_mask)
        assert domain.globals_of(got) == want
