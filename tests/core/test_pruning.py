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
from repro.core.bounds import lower_bound, upper_bound
from repro.core.pruning import (
    Type2Outcome,
    cover_set_masked,
    diameter_filter_masked,
    find_critical_vertex,
    type1_degree_prunable,
    type1_lower_prunable,
    type1_upper_prunable,
    type2_degree_check,
    type2_lower_prunable,
    type2_upper_prunable,
)
from repro.core.quasiclique import ceil_gamma, is_quasi_clique
from repro.graph.adjacency import Graph

from conftest import GAMMAS, make_random_graph, masked


def random_state(seed):
    rng = random.Random(seed)
    g = make_random_graph(rng.randint(5, 10), rng.uniform(0.35, 0.85), seed=seed * 7 + 1)
    vertices = sorted(g.vertices())
    s_size = rng.randint(1, min(4, len(vertices) - 1))
    s_set = set(vertices[:s_size])
    ext_set = set(vertices[s_size:])
    gamma = rng.choice(GAMMAS)
    return g, s_set, ext_set, gamma


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
        ee = compute_ee_degrees_masked(domain, ext_mask, view)
        u_s = upper_bound(gamma, len(s_set), view)
        l_s = lower_bound(gamma, len(s_set), view)
        for u in ext_set:
            d_s_u, d_ext_u = view.in_s_of_ext[u], ee[u]
            pruned = type1_degree_prunable(gamma, len(s_set), d_s_u, d_ext_u)
            if not pruned and u_s is not None:
                pruned = type1_upper_prunable(gamma, len(s_set), d_s_u, u_s)
            if not pruned and l_s is not None:
                pruned = type1_lower_prunable(gamma, len(s_set), d_s_u, d_ext_u, l_s)
            if pruned:
                exts = extensions_containing(g, s_set, ext_set, gamma, {u})
                assert exts == [], f"Type I wrongly pruned {u}: {exts[:3]}"


class TestType2Soundness:
    @pytest.mark.parametrize("seed", range(15))
    def test_type2_kills_only_barren_subtrees(self, seed):
        g, s_set, ext_set, gamma = random_state(seed)
        view = compute_degrees_masked(*masked(g, s_set, ext_set))
        u_s = upper_bound(gamma, len(s_set), view)
        l_s = lower_bound(gamma, len(s_set), view)
        fired_all = False
        fired_ext_only = False
        for v in s_set:
            d_s_v, d_ext_v = view.in_s_of_s[v], view.in_ext_of_s[v]
            outcome = type2_degree_check(gamma, len(s_set), d_s_v, d_ext_v)
            if outcome is Type2Outcome.ALL:
                fired_all = True
            elif outcome is Type2Outcome.EXT_ONLY:
                fired_ext_only = True
            if u_s is not None and type2_upper_prunable(gamma, len(s_set), d_s_v, u_s):
                fired_all = True
            if l_s is not None and type2_lower_prunable(
                gamma, len(s_set), d_s_v, d_ext_v, l_s
            ):
                fired_all = True
        if fired_all or fired_ext_only:
            # No valid quasi-clique strictly extends S within S ∪ ext.
            exts = extensions_containing(g, s_set, ext_set, gamma, set())
            proper = [e for e in exts if e > s_set]
            assert proper == [], f"Type II wrongly fired: {proper[:3]}"


class TestCriticalVertex:
    @pytest.mark.parametrize("seed", range(15))
    def test_extensions_contain_all_critical_neighbors(self, seed):
        g, s_set, ext_set, gamma = random_state(seed)
        view = compute_degrees_masked(*masked(g, s_set, ext_set))
        l_s = lower_bound(gamma, len(s_set), view)
        if l_s is None:
            return
        v = find_critical_vertex(gamma, len(s_set), view, l_s)
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
        l_s = lower_bound(0.9, len(s_set), view)
        if l_s is not None:
            target = ceil_gamma(0.9, len(s_set) + l_s - 1)
            v = find_critical_vertex(0.9, len(s_set), view, l_s)
            if v is not None:
                assert view.in_s_of_s[v] + view.in_ext_of_s[v] == target


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
        assert view.in_s_of_ext[2] == 2  # u=2 itself qualifies
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
