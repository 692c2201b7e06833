"""Tests for the U_S / L_S bounds (paper Eqs. 1–8).

The load-bearing property checks: for every actually-achievable
extension Z ⊆ ext with G(S∪Z) a valid quasi-clique, the bounds must
bracket |Z| — L_S ≤ |Z| ≤ U_S — and a None bound must mean no such Z
exists (soundness; the oracle provides ground truth).
"""

import itertools
import random

import pytest

from repro.core.bounds import (
    lemma2_first_feasible,
    lower_bound,
    lower_bound_min,
    prefix_sums_desc,
    upper_bound,
    upper_bound_min,
)
from repro.core.degrees import compute_degrees_masked
from repro.core.quasiclique import ceil_table, is_quasi_clique

from conftest import GAMMAS, bounds_of, make_random_graph, masked


def achievable_extension_sizes(g, s_set, ext_set, gamma):
    """|Z| for every Z ⊆ ext with G(S∪Z) a γ-quasi-clique (oracle)."""
    sizes = set()
    ext = sorted(ext_set)
    for r in range(0, len(ext) + 1):
        for combo in itertools.combinations(ext, r):
            if is_quasi_clique(g, s_set | set(combo), gamma):
                sizes.add(r)
    return sizes


class TestHelpers:
    def test_prefix_sums(self):
        assert prefix_sums_desc([5, 3, 1]) == [0, 5, 8, 9]
        # The one shared sort: any order in, non-increasing prefix out.
        assert prefix_sums_desc([1, 5, 3]) == [0, 5, 8, 9]
        assert prefix_sums_desc([]) == [0]

    def test_lemma2_feasible(self):
        # |S|=2, Σ_S d_S = 2, ext degrees [2, 1], γ=1: t=1 needs
        # 2 + 2 ≥ 2·ceil(1·2) = 4 → feasible; t=2 needs 2+3 ≥ 2·3 → no.
        ceil = ceil_table(1.0, 4)
        sums = prefix_sums_desc([2, 1])
        assert lemma2_first_feasible(ceil, 2, 2, sums, [1]) == 1
        assert lemma2_first_feasible(ceil, 2, 2, sums, [2]) is None
        # The first feasible t in the given order.
        assert lemma2_first_feasible(ceil, 2, 2, sums, [2, 1]) == 1

    def test_upper_bound_min(self):
        # Eq. 3: floor(d_min/γ) + 1 − |S|.
        assert upper_bound_min(0.5, 2, 3) == 5
        assert upper_bound_min(1.0, 4, 3) == 0

    def test_lower_bound_min(self):
        # d_S^min=1, |S|=3, γ=0.9: need 1+t ≥ ceil(0.9(2+t)).
        assert lower_bound_min(ceil_table(0.9, 14), 3, 1, 10) == 8
        # Already satisfied at t=0.
        assert lower_bound_min(ceil_table(0.5, 14), 3, 1, 10) == 0
        # Infeasible within ext budget.
        assert lower_bound_min(ceil_table(1.0, 8), 5, 0, 2) is None

    def test_upper_and_lower_share_one_prefix_array(self):
        # |S|=2, Σ_S d_S = 2, ext degrees [2, 1, 0], d_min = 3, γ = 0.75:
        # U_S^min = floor(3/0.75)+1−2 = 3. Lemma 2 holds at t = 0
        # (2+0 ≥ 2·ceil(0.75)) and t = 1 (2+2 ≥ 2·ceil(1.5)) and fails
        # at t = 2 (2+3 < 2·ceil(2.25)) and t = 3 (2+3 < 2·ceil(3)).
        ceil = ceil_table(0.75, 6)
        sums = prefix_sums_desc([0, 2, 1])
        assert sums == [0, 2, 3, 3]
        assert upper_bound(ceil, 0.75, 2, 3, 2, sums) == 1
        assert lower_bound(ceil, 2, 2, sums, 0) == 0
        assert lower_bound(ceil, 2, 2, sums, 2) is None


class TestBoundSoundness:
    @pytest.mark.parametrize("seed", range(12))
    def test_bounds_bracket_achievable_sizes(self, seed):
        rng = random.Random(seed)
        g = make_random_graph(rng.randint(5, 10), rng.uniform(0.35, 0.85), seed=seed)
        gamma = rng.choice(GAMMAS)
        vertices = sorted(g.vertices())
        s_size = rng.randint(1, min(4, len(vertices) - 1))
        s_set = set(vertices[:s_size])
        ext_set = set(vertices[s_size:])
        view = compute_degrees_masked(*masked(g, s_set, ext_set))
        u_s, l_s = bounds_of(view, gamma)
        sizes = achievable_extension_sizes(g, s_set, ext_set, gamma)
        positive = {t for t in sizes if t >= 1}
        if positive:
            # Some non-empty extension exists: both bounds must exist
            # and bracket every achievable size.
            assert u_s is not None, "U_S missed an achievable extension"
            assert max(positive) <= u_s
            assert l_s is not None, "L_S missed an achievable extension"
            assert l_s <= min(sizes)
        if 0 in sizes and l_s is not None:
            # S itself is a quasi-clique → the lower bound must be 0.
            assert l_s == 0

    def test_lower_bound_none_means_s_invalid(self):
        # L_S failure certifies S misses the degree floor (module doc).
        for seed in range(8):
            g = make_random_graph(8, 0.5, seed=seed)
            s_set = set(list(g.vertices())[:3])
            ext_set = set(g.vertices()) - s_set
            for gamma in (0.6, 0.9, 1.0):
                view = compute_degrees_masked(*masked(g, s_set, ext_set))
                if bounds_of(view, gamma)[1] is None:
                    assert not is_quasi_clique(g, s_set, gamma, require_connected=False)

    def test_empty_s_raises(self, triangle_graph):
        ceil = ceil_table(0.5, 4)
        with pytest.raises(ValueError):
            upper_bound(ceil, 0.5, 0, 0, 0, [0, 0, 0, 0])
        with pytest.raises(ValueError):
            lower_bound_min(ceil, 0, 0, 3)


class TestPaperExample:
    def test_figure4_bounds(self, figure4_graph):
        # S = {a}, ext = Γ(a) ∪ B(a) restricted: use {b, c, d, e}.
        s_set = {0}
        ext_set = {1, 2, 3, 4}
        view = compute_degrees_masked(*masked(figure4_graph, s_set, ext_set))
        # a connects to all 4 candidates: d_min = 4, γ=0.6 →
        # U_min = floor(4/0.6)+1−1 = 6, capped by feasibility checks.
        u_s, l_s = bounds_of(view, 0.6)
        assert u_s == 4  # all four can join: S2 = {a,b,c,d,e} is a QC
        assert l_s == 0  # {a} alone already satisfies the degree floor
