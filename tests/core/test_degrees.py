"""Tests for SS/ES/SE/EE degree bookkeeping."""

import pytest

from repro.core.degrees import DegreeView, compute_degrees_masked, compute_ee_degrees_masked

from conftest import make_random_graph, masked


def brute_degrees(g, s_set, ext_set):
    ss = {v: g.degree_in(v, s_set) for v in s_set}
    es = {v: g.degree_in(v, ext_set) for v in s_set}
    se = {u: g.degree_in(u, s_set) for u in ext_set}
    ee = {u: g.degree_in(u, ext_set) for u in ext_set}
    return ss, es, se, ee


class TestComputeDegrees:
    def test_hand_example(self, figure4_graph):
        # S = {a, b}, ext = {c, d, e} on the Figure 4 graph.
        s, ext = {0, 1}, {2, 3, 4}
        domain, s_mask, ext_mask = masked(figure4_graph, s, ext)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        assert view.in_s_of_s == {0: 1, 1: 1}
        assert view.in_ext_of_s == {0: 3, 1: 2}
        assert view.in_s_of_ext == {2: 2, 3: 1, 4: 2}
        ee = compute_ee_degrees_masked(domain, ext_mask, view)
        assert ee == {2: 2, 3: 2, 4: 2}

    def test_matches_brute_force(self):
        g = make_random_graph(18, 0.4, seed=13)
        s = set(range(0, 6))
        ext = set(range(6, 14))
        domain, s_mask, ext_mask = masked(g, s, ext)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        ss, es, se, ee = brute_degrees(g, s, ext)
        assert view.in_s_of_s == ss
        assert view.in_ext_of_s == es
        assert view.in_s_of_ext == se
        assert compute_ee_degrees_masked(domain, ext_mask, view) == ee

    def test_aggregates(self, figure4_graph):
        s, ext = {0, 1, 2}, {3, 4}
        view = compute_degrees_masked(*masked(figure4_graph, s, ext))
        assert view.sum_s_degrees() == sum(view.in_s_of_s.values())
        assert view.min_s_degree() == min(view.in_s_of_s.values())
        assert view.min_total_degree_in_s() == min(
            view.in_s_of_s[v] + view.in_ext_of_s[v] for v in s
        )
        assert view.ext_degrees_sorted() == sorted(
            view.in_s_of_ext.values(), reverse=True
        )

    def test_empty_ext(self, triangle_graph):
        view = compute_degrees_masked(*masked(triangle_graph, {0, 1, 2}, set()))
        assert view.in_ext_of_s == {0: 0, 1: 0, 2: 0}
        assert view.in_s_of_ext == {}
        assert view.ext_degrees_sorted() == []

    def test_empty_s_minima_raise_clear_error(self, triangle_graph):
        # Eqs. 1–8 presuppose S ≠ ∅; the minima must fail loudly (a bare
        # min() would raise an opaque "empty sequence" from deep inside
        # the bound computation).
        empty_s = compute_degrees_masked(*masked(triangle_graph, set(), {0, 1, 2}))
        for view in (DegreeView(), empty_s):
            with pytest.raises(ValueError, match="min_total_degree_in_s.*empty S"):
                view.min_total_degree_in_s()
            with pytest.raises(ValueError, match="min_s_degree.*empty S"):
                view.min_s_degree()

    def test_ee_lazy_by_default(self, triangle_graph):
        domain, s_mask, ext_mask = masked(triangle_graph, {0}, {1, 2})
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        assert view.in_ext_of_ext is None
        compute_ee_degrees_masked(domain, ext_mask, view)
        assert view.in_ext_of_ext == {1: 1, 2: 1}
