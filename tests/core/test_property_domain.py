"""Hypothesis: the bitmask domain computes what the paper's definitions say.

The hot path (`repro.core.domain` + degrees/pruning) works on compact
local IDs and word operations; these properties pin it, vertex by
vertex, to the definitions evaluated directly on the `Graph`:
|Γ(v) ∩ S| degree families, 2-hop reachability inside the task's scope,
Definition 4 and the Eq. 9 cover condition. The domain here covers only
S ∪ ext, so local IDs differ from global ones. End-to-end equality with
the naive oracle is `test_property_miner.py::test_miner_equals_oracle`.

`test_bounding_round_matches_reference` pins one whole Algorithm 1 call
— verdict, masks, emitted candidates and every counter — to a
per-vertex reference round that evaluates each rule with `ceil_gamma`.
Run it with a larger budget through ``--hypothesis-profile=kernel-parity``.
"""

import dataclasses
import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.degrees import DegreeView, compute_degrees_masked, compute_ee_degrees_masked
from repro.core.domain import TaskDomain
from repro.core.iterative_bounding import check_and_emit_masked, iterative_bounding_masked
from repro.core.options import DEFAULT_OPTIONS, QUICK_OPTIONS, MiningJob, ResultSink
from repro.core.pruning import (
    cover_set_masked,
    diameter_filter_masked,
    find_critical_vertex,
    type1_victims,
    type2_outcome,
)
from repro.core.quasiclique import ceil_gamma, ceil_table, floor_div_gamma
from repro.graph.adjacency import Graph

GAMMA_CHOICES = [0.5, 0.6, 2 / 3, 0.75, 0.8, 0.9, 1.0]


def bits(mask):
    """Set bit positions of `mask` by a per-position scan.

    The references below decode with this, never with the kernel's
    ``bit_list``, so a decoder fault cannot hide in both sides.
    """
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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


def globalize(domain, ids, degrees):
    return {domain.verts[i]: d for i, d in zip(ids, degrees)}


def view_by_definition(domain, g, s_set, ext_set):
    """A full DegreeView whose degrees come from the Graph, not from masks."""
    ss, es, se, ee = degrees_by_definition(g, s_set, ext_set)
    s_glob, ext_glob = sorted(s_set), sorted(ext_set)
    view = DegreeView([domain.index[v] for v in s_glob], [ss[v] for v in s_glob])
    view.es = [es[v] for v in s_glob]
    view.ext_ids = [domain.index[u] for u in ext_glob]
    view.se = [se[u] for u in ext_glob]
    view.ee = [ee[u] for u in ext_glob]
    return view


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
    assert globalize(domain, got.s_ids, got.ss) == ss
    assert globalize(domain, got.s_ids, got.es) == es
    assert globalize(domain, got.ext_ids, got.se) == se
    assert got.ee is None  # EE stays lazy
    assert globalize(domain, got.ext_ids, compute_ee_degrees_masked(domain, ext_mask, got)) == ee
    # Aggregates (the bound inputs) agree too.
    assert got.min_s_degree() == min(ss.values())
    assert got.min_total_degree_in_s() == min(ss[v] + es[v] for v in s_set)


@given(
    state=graph_and_state(),
    gamma=st.sampled_from(GAMMA_CHOICES),
    upper_cut=st.integers(min_value=-1, max_value=6),
    lower_cut=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_rule_verdicts_match_definition(state, gamma, upper_cut, lower_cut):
    """Type I/II verdicts, fed the masked view vs the definition."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    got = compute_degrees_masked(domain, s_mask, ext_mask)
    compute_ee_degrees_masked(domain, ext_mask, got)
    want = view_by_definition(domain, g, s_set, ext_set)
    s_size = len(s_set)
    ceil = ceil_table(gamma, len(domain) + 1)
    assert type1_victims(ceil, s_size, got, upper_cut, lower_cut, True) == type1_victims(
        ceil, s_size, want, upper_cut, lower_cut, True
    )
    assert type2_outcome(
        ceil, s_size, got, got.min_s_degree(), got.min_total_degree_in_s(),
        upper_cut, lower_cut, True,
    ) == type2_outcome(
        ceil, s_size, want, want.min_s_degree(), want.min_total_degree_in_s(),
        upper_cut, lower_cut, True,
    )


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
    got = find_critical_vertex(view, target)
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


# -- Re-compaction and reachability vs plain references -----------------------


@st.composite
def domain_and_mask(draw):
    """A random graph, its domain (some wider than the 256-bit decode
    table) and a mask over it, often with many short runs of vertices.

    Global IDs are spread out (``3v + 5``) so local and global IDs differ.
    """
    n = draw(st.one_of(st.integers(0, 40), st.integers(257, 300)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # Up to 16 random pairs per vertex: empty to near-complete when n is
    # small, average degree up to 32 when it is wide.
    count = rng.randrange(n * min(n, 16) + 1)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    g = Graph.from_edges(
        ((3 * u + 5, 3 * v + 5) for u, v in pairs if u != v),
        vertices=(3 * v + 5 for v in range(n)),
    )
    domain = TaskDomain.from_graph(g)
    shape = draw(st.sampled_from(["runs", "thin", "thick", "full", "empty"]))
    full = (1 << n) - 1
    if shape == "full" or shape == "empty" or not n:
        return g, domain, full if shape == "full" else 0
    mask = rng.getrandbits(n)  # about n/4 runs
    if shape == "thin":
        mask &= rng.getrandbits(n)
    elif shape == "thick":
        mask |= rng.getrandbits(n)
    return g, domain, mask


@given(case=domain_and_mask())
def test_restrict_matches_rebuild(case):
    """The bit-run re-compaction equals building the induced subgraph anew."""
    _, domain, mask = case
    assert domain.globals_of(mask) == [domain.verts[i] for i in bits(mask)]
    got = domain.restrict(mask)
    want = TaskDomain.from_graph(domain.to_graph(), domain.globals_of(mask))
    assert got.verts == want.verts
    assert got.adj == want.adj
    assert got == want


@given(case=domain_and_mask(), anchors=st.lists(st.integers(0, 299), max_size=6))
def test_two_hop_and_connectivity_match_bfs(case, anchors):
    """two_hop_mask is two BFS layers from the anchor; connected_in is a
    BFS inside the mask that reaches every member."""
    g, domain, mask = case
    index = domain.index
    nbrs = [[index[u] for u in g.neighbors(v)] for v in domain.verts]
    n = len(domain)
    for v in (a % n for a in anchors if n):
        layer1 = set(nbrs[v])
        layer2 = {w for u in layer1 for w in nbrs[u]}
        assert bits(domain.two_hop_mask(v)) == sorted(layer1 | layer2)
    members = set(bits(mask))
    reached = set()
    if members:
        frontier = [min(members)]
        reached = set(frontier)
        while frontier:
            frontier = {w for u in frontier for w in nbrs[u] if w in members} - reached
            reached |= frontier
    assert domain.connected_in(mask) == (bool(members) and reached == members)


# -- Algorithm 1 parity: table-driven round vs per-vertex reference ----------


def reference_bounding(job, domain, s_mask, ext_mask):
    """Algorithm 1 evaluated vertex by vertex, each threshold a `ceil_gamma` call.

    The straightforward form of the round: dict degree families, both
    bounds from their own sort, Type II in S order with early exits,
    Type I per ext vertex. `iterative_bounding_masked` must agree with
    it on the verdict, the masks, every emission and every counter.
    """
    gamma, opts, stats, adj = job.gamma, job.options, job.stats, domain.adj

    def lemma2(s_size, sum_s, sums, t):
        return sum_s + sums[t] >= s_size * ceil_gamma(gamma, s_size + t - 1)

    def bounds(s_size, ss, es, se):
        ext_sorted = sorted(se.values(), reverse=True)
        n = len(ext_sorted)
        sums = [0]
        for d in ext_sorted:
            sums.append(sums[-1] + d)
        sum_s = sum(ss.values())
        u_s = l_s = None
        if opts.use_lower_bound:
            d_s_min = min(ss.values())
            l_min = next(
                (t for t in range(n + 1) if d_s_min + t >= ceil_gamma(gamma, s_size + t - 1)),
                None,
            )
            if l_min is None:
                return None, None, "silent"
            l_s = next((t for t in range(l_min, n + 1) if lemma2(s_size, sum_s, sums, t)), None)
            if l_s is None:
                return None, None, "silent"
        if opts.use_upper_bound:
            d_min = min(ss[v] + es[v] for v in ss)
            hi = min(floor_div_gamma(d_min, gamma) + 1 - s_size, n)
            u_s = next((t for t in range(hi, 0, -1) if lemma2(s_size, sum_s, sums, t)), None)
            if u_s is None:
                return None, None, "check"
        if u_s is not None and l_s is not None and u_s < l_s:
            return u_s, l_s, "silent"
        return u_s, l_s, "ok"

    def state(s, e):
        ss = {v: (adj[v] & s).bit_count() for v in bits(s)}
        es = {v: (adj[v] & e).bit_count() for v in bits(s)}
        se = {u: (adj[u] & s).bit_count() for u in bits(e)}
        return ss, es, se, bounds(s.bit_count(), ss, es, se)

    while True:
        stats.bounding_rounds += 1
        s_size = s_mask.bit_count()
        stats.mining_ops += s_size + ext_mask.bit_count()
        ss, es, se, (u_s, l_s, action) = state(s_mask, ext_mask)
        if action == "ok" and opts.critical_vertex_enabled():
            target = ceil_gamma(gamma, s_size + l_s - 1)
            critical = next((v for v in ss if es[v] > 0 and ss[v] + es[v] == target), None)
            if critical is not None:
                if opts.check_before_critical_expand:
                    check_and_emit_masked(job, domain, s_mask)
                moved = adj[critical] & ext_mask
                s_mask |= moved
                ext_mask &= ~moved
                stats.critical_moves += 1
                if not ext_mask:
                    break
                s_size = s_mask.bit_count()
                ss, es, se, (u_s, l_s, action) = state(s_mask, ext_mask)
        if action != "ok":
            stats.type2_pruned += 1
            if action == "check":
                check_and_emit_masked(job, domain, s_mask)
            return True, s_mask, ext_mask

        ext_only = False
        for v in ss:
            d_s, d_e = ss[v], es[v]
            if opts.use_degree_prune:
                if d_s + d_e < ceil_gamma(gamma, s_size - 1 + d_e):  # Thm 4(ii)
                    stats.type2_pruned += 1
                    return True, s_mask, ext_mask
                if d_e == 0 and d_s < ceil_gamma(gamma, s_size):  # Thm 4(i)
                    ext_only = True
            if u_s is not None and d_s + u_s < ceil_gamma(gamma, s_size + u_s - 1):  # Thm 6
                stats.type2_pruned += 1
                return True, s_mask, ext_mask
            if l_s is not None and d_s + d_e < ceil_gamma(gamma, s_size + l_s - 1):  # Thm 8
                stats.type2_pruned += 1
                return True, s_mask, ext_mask
        if ext_only:
            stats.type2_pruned += 1
            check_and_emit_masked(job, domain, s_mask)
            return True, s_mask, ext_mask

        ee = {u: (adj[u] & ext_mask).bit_count() for u in bits(ext_mask)}
        stats.mining_ops += ext_mask.bit_count()
        removed = 0
        for u in bits(ext_mask):
            d_s, d_e = se[u], ee[u]
            if (
                (opts.use_degree_prune and d_s + d_e < ceil_gamma(gamma, s_size + d_e))  # Thm 3
                or (u_s is not None and d_s + u_s - 1 < ceil_gamma(gamma, s_size + u_s - 1))  # Thm 5
                or (l_s is not None and d_s + d_e < ceil_gamma(gamma, s_size + l_s - 1))  # Thm 7
            ):
                removed |= 1 << u
        if removed:
            stats.type1_pruned += removed.bit_count()
            ext_mask &= ~removed
        if not ext_mask:
            break
        if not removed:
            return False, s_mask, ext_mask

    check_and_emit_masked(job, domain, s_mask)
    return True, s_mask, ext_mask


class RecordingSink(ResultSink):
    """A sink that also keeps every emission, in order."""

    def __init__(self):
        super().__init__()
        self.emitted = []

    def emit(self, vertices):
        self.emitted.append(tuple(vertices))
        super().emit(vertices)


def without(flag):
    return dataclasses.replace(DEFAULT_OPTIONS, **{flag: False})


#: default, Quick, and each rule family switched off as the pruning
#: ablation does.
PARITY_OPTIONS = [DEFAULT_OPTIONS, QUICK_OPTIONS] + [
    without(flag)
    for flag in (
        "use_lower_bound", "use_upper_bound", "use_degree_prune", "use_cover_vertex",
        "use_critical_vertex", "use_lookahead", "use_diameter_prune",
    )
]


@st.composite
def dense_graph_and_state(draw, max_vertices: int = 12):
    """Like `graph_and_state`, with a drawn edge density (critical moves need dense S)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    density = draw(st.sampled_from([0.5, 0.75, 0.9]))
    pairs = list(itertools.combinations(range(n), 2))
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(
        [pair for pair, c in zip(pairs, coins) if c < density], vertices=range(n)
    )
    labels = draw(st.lists(st.sampled_from(["s", "ext", "ext", "out"]), min_size=n, max_size=n))
    s_set = {v for v in range(n) if labels[v] == "s"} or {0}
    ext_set = {v for v in range(n) if labels[v] == "ext"} - s_set
    return g, s_set, ext_set


def near_clique(n, missing):
    """K_n on 0..n-1 without the `missing` pairs."""
    return Graph.from_edges(
        [pair for pair in itertools.combinations(range(n), 2) if pair not in missing],
        vertices=range(n),
    )


@given(
    state=dense_graph_and_state(),
    gamma=st.sampled_from(GAMMA_CHOICES + [0.85]),
    options=st.sampled_from(PARITY_OPTIONS),
    min_size=st.integers(min_value=1, max_value=6),
)
# Branches random states rarely reach. With both bounds on, the bounds
# subsume the Type II battery's ALL verdict; it needs one of them off.
@example(  # Type II ALL (Theorem 4(ii)), lower bound off
    state=(near_clique(8, {(0, 2), (1, 2), (2, 3), (2, 6), (2, 7)}), {0, 1, 2, 3}, {4, 5, 6, 7}),
    gamma=0.5, options=without("use_lower_bound"), min_size=1,
)
@example(  # Type II ALL, upper bound off
    state=(
        near_clique(12, {(1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11)}),
        set(range(10)), {11},
    ),
    gamma=0.5, options=without("use_upper_bound"), min_size=1,
)
@example(  # Type II ALL by Theorem 6, lower bound off
    state=(near_clique(12, {(0, 1), (1, 8), (1, 9)}), set(range(10)), {10, 11}),
    gamma=0.75, options=without("use_lower_bound"), min_size=1,
)
@example(  # Theorem 4(i): extensions die, G(S) is checked
    state=(near_clique(3, {(0, 1), (1, 2)}), {1}, {0, 2}),
    gamma=0.5, options=without("use_upper_bound"), min_size=1,
)
@example(  # Theorem 4(i) at equality: d_S(v) = ceil(γ|S|) does not fire
    state=(
        near_clique(11, {(2, 5), (5, 7), (5, 8), (5, 9), (5, 10)}), set(range(10)), {10},
    ),
    gamma=0.5, options=DEFAULT_OPTIONS, min_size=1,
)
@example(  # U_S < L_S
    state=(near_clique(8, {(0, 5), (3, 5), (5, 7)}), {0, 1, 3, 5}, {2, 6, 7}),
    gamma=2 / 3, options=DEFAULT_OPTIONS, min_size=1,
)
@example(  # a critical move that emits S first
    state=(near_clique(8, {(0, 5), (3, 5), (5, 6), (5, 7)}), {0, 1, 2, 3, 5, 6}, {4, 7}),
    gamma=0.5, options=DEFAULT_OPTIONS, min_size=2,
)
@example(  # three rounds of Type I removals
    state=(
        near_clique(8, {(0, 5), (0, 6), (1, 5), (1, 6), (1, 7)}), {3, 4, 5, 6}, {0, 1, 7},
    ),
    gamma=2 / 3, options=DEFAULT_OPTIONS, min_size=1,
)
@settings(deadline=None)
def test_bounding_round_matches_reference(state, gamma, options, min_size):
    """One Algorithm 1 call: same verdict, masks, emissions and counters."""
    g, s_set, ext_set = state
    domain, s_mask, ext_mask = masked_state(g, s_set, ext_set)
    ceil = ceil_table(gamma, len(domain) + 1)
    assert len(ceil) > len(domain) + 1
    assert all(c == ceil_gamma(gamma, x) for x, c in enumerate(ceil))
    got_job, want_job = (
        MiningJob(graph=g, gamma=gamma, min_size=min_size, sink=RecordingSink(), options=options)
        for _ in range(2)
    )
    got = iterative_bounding_masked(got_job, domain, s_mask, ext_mask)
    want = reference_bounding(want_job, domain, s_mask, ext_mask)
    assert got == want
    assert got_job.sink.emitted == want_job.sink.emitted
    assert got_job.stats == want_job.stats
