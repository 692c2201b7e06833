"""Per-theorem soundness tests for the pruning rules (P1–P7).

Each Type I rule claims: a pruned u ∈ ext appears in no valid
quasi-clique S′ with S∪{u} ⊆ S′ ⊆ S∪ext. Each Type II rule claims: no
valid quasi-clique strictly extends S inside S∪ext. Both are verified
against the brute-force oracle on randomized small instances.
"""

import itertools
import random

import pytest

from repro.core.degrees import compute_degrees_masked, compute_ee_degrees_masked
from repro.core.pruning import (
    Type2Outcome,
    cover_set_masked,
    diameter_filter_masked,
    find_critical_vertex,
    type1_victims,
    type2_outcome,
)
from repro.core.quasiclique import ceil_gamma, ceil_table, is_quasi_clique
from repro.graph.adjacency import Graph

from conftest import GAMMAS, bounds_of, make_random_graph, masked


def random_state(seed):
    rng = random.Random(seed)
    g = make_random_graph(rng.randint(5, 10), rng.uniform(0.35, 0.85), seed=seed * 7 + 1)
    vertices = sorted(g.vertices())
    s_size = rng.randint(1, min(4, len(vertices) - 1))
    s_set = set(vertices[:s_size])
    ext_set = set(vertices[s_size:])
    gamma = rng.choice(GAMMAS)
    return g, s_set, ext_set, gamma


def round_cutoffs(gamma, s_size, view):
    """(ceil, upper_cut, lower_cut) of a state, each bound rule on iff its bound exists."""
    ceil = ceil_table(gamma, s_size + len(view.se) + 1)
    u_s, l_s = bounds_of(view, gamma)
    upper_cut = -1 if u_s is None else ceil[s_size + u_s - 1] - u_s
    lower_cut = 0 if l_s is None else ceil[s_size + l_s - 1]
    return ceil, upper_cut, lower_cut


def extensions_containing(g, s_set, ext_set, gamma, must_contain):
    """Valid quasi-cliques S′ with S ∪ must_contain ⊆ S′ ⊆ S ∪ ext."""
    pool = sorted(ext_set - must_contain)
    found = []
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            s_prime = s_set | must_contain | set(combo)
            if is_quasi_clique(g, s_prime, gamma):
                found.append(frozenset(s_prime))
    return found


class TestType1Soundness:
    @pytest.mark.parametrize("seed", range(15))
    def test_pruned_ext_vertex_in_no_extension(self, seed):
        g, s_set, ext_set, gamma = random_state(seed)
        domain, s_mask, ext_mask = masked(g, s_set, ext_set)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        compute_ee_degrees_masked(domain, ext_mask, view)
        ceil, upper_cut, lower_cut = round_cutoffs(gamma, len(s_set), view)
        removed = type1_victims(ceil, len(s_set), view, upper_cut, lower_cut, True)
        for u in domain.globals_of(removed):
            exts = extensions_containing(g, s_set, ext_set, gamma, {u})
            assert exts == [], f"Type I wrongly pruned {u}: {exts[:3]}"


class TestType2Soundness:
    @pytest.mark.parametrize("seed", range(15))
    def test_type2_kills_only_barren_subtrees(self, seed):
        g, s_set, ext_set, gamma = random_state(seed)
        view = compute_degrees_masked(*masked(g, s_set, ext_set))
        ceil, upper_cut, lower_cut = round_cutoffs(gamma, len(s_set), view)
        outcome = type2_outcome(
            ceil, len(s_set), view, view.min_s_degree(), view.min_total_degree_in_s(),
            upper_cut, lower_cut, True,
        )
        if outcome is not Type2Outcome.NONE:
            # No valid quasi-clique strictly extends S within S ∪ ext.
            exts = extensions_containing(g, s_set, ext_set, gamma, set())
            proper = [e for e in exts if e > s_set]
            assert proper == [], f"Type II wrongly fired: {proper[:3]}"


class TestCriticalVertex:
    @pytest.mark.parametrize("seed", range(15))
    def test_extensions_contain_all_critical_neighbors(self, seed):
        g, s_set, ext_set, gamma = random_state(seed)
        view = compute_degrees_masked(*masked(g, s_set, ext_set))
        _, l_s = bounds_of(view, gamma)
        if l_s is None:
            return
        v = find_critical_vertex(view, ceil_gamma(gamma, len(s_set) + l_s - 1))
        if v is None:
            return
        forced = set(g.neighbors_in(v, ext_set))
        assert forced, "critical vertex must have ext neighbors"
        for s_prime in extensions_containing(g, s_set, ext_set, gamma, set()):
            if s_prime > s_set:
                assert forced <= s_prime, (
                    f"Theorem 9 violated: {sorted(s_prime)} misses {sorted(forced)}"
                )

    def test_definition(self, figure4_graph):
        # Directed check of Definition 4 on a hand state.
        s_set, ext_set = {0, 1}, {2, 3, 4}
        view = compute_degrees_masked(*masked(figure4_graph, s_set, ext_set))
        _, l_s = bounds_of(view, 0.9)
        if l_s is not None:
            target = ceil_gamma(0.9, len(s_set) + l_s - 1)
            v = find_critical_vertex(view, target)
            if v is not None:
                i = view.s_ids.index(v)
                assert view.es[i] > 0 and view.ss[i] + view.es[i] == target


class TestCoverVertex:
    @pytest.mark.parametrize("seed", range(15))
    def test_covered_extensions_stay_quasicliques_with_u(self, seed):
        g, s_set, ext_set, gamma = random_state(seed)
        domain, s_mask, ext_mask = masked(g, s_set, ext_set)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        cv = cover_set_masked(domain, s_mask, ext_mask, gamma, view)
        if cv is None:
            return
        u, covered = domain.verts[cv.vertex], set(domain.globals_of(cv.covered_mask))
        assert covered <= ext_set and u not in covered
        # Eq. 9 guarantee: extending S with any subset of C_S(u) into a
        # quasi-clique Q keeps Q ∪ {u} a quasi-clique (so Q non-maximal).
        for r in range(1, len(covered) + 1):
            for combo in itertools.combinations(sorted(covered), r):
                q = s_set | set(combo)
                if is_quasi_clique(g, q, gamma):
                    assert is_quasi_clique(g, q | {u}, gamma), (
                        f"cover guarantee violated for Q={sorted(q)}, u={u}"
                    )

    def test_inapplicable_when_nonadjacent_s_vertex_weak(self):
        # u=2 clears d_S(u) ≥ ceil(γ|S|) but S-vertex 5 (non-adjacent to
        # u) has d_S(5) = 1 < ceil(0.5·3) = 2, disabling the rule for u;
        # no other ext vertex qualifies, so no cover vertex is selected.
        g = Graph.from_edges(
            [(0, 1), (0, 5), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        )
        s_set, ext_set = {0, 1, 5}, {2, 3, 4}
        domain, s_mask, ext_mask = masked(g, s_set, ext_set)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        assert dict(zip(view.ext_ids, view.se))[2] == 2  # u=2 itself qualifies
        cv = cover_set_masked(domain, s_mask, ext_mask, 0.5, view)
        assert cv is None


def two_hop_filter(g, anchor, candidates):
    """`diameter_filter_masked` on global IDs: the kept candidates."""
    domain, cand_mask = masked(g, candidates)
    return domain.globals_of(diameter_filter_masked(domain, domain.index[anchor], cand_mask))


class TestDiameterFilter:
    def test_keeps_two_hop_only(self, figure4_graph):
        # Anchor e: candidates within 2 hops are all 8 other vertices.
        kept = two_hop_filter(figure4_graph, 4, [0, 1, 2, 3, 5, 6, 7, 8])
        assert kept == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_drops_three_hop(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert two_hop_filter(g, 0, [1, 2, 3, 4]) == [1, 2]

    def test_soundness_no_valid_extension_uses_dropped(self):
        for seed in range(10):
            g, s_set, ext_set, gamma = random_state(seed)
            anchor = min(s_set)
            kept = set(two_hop_filter(g, anchor, sorted(ext_set)))
            dropped = ext_set - kept
            for u in dropped:
                assert extensions_containing(g, s_set, ext_set, gamma, {u}) == []
