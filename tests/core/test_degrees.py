"""Tests for SS/ES/SE/EE degree bookkeeping."""

import pytest

from repro.core.degrees import (
    DegreeView,
    add_crossing_degrees,
    compute_degrees_masked,
    compute_ee_degrees_masked,
    ss_degrees,
)

from conftest import make_random_graph, masked


def brute_degrees(g, s_set, ext_set):
    ss = {v: g.degree_in(v, s_set) for v in s_set}
    es = {v: g.degree_in(v, ext_set) for v in s_set}
    se = {u: g.degree_in(u, s_set) for u in ext_set}
    ee = {u: g.degree_in(u, ext_set) for u in ext_set}
    return ss, es, se, ee


def keyed(ids, degrees):
    return dict(zip(ids, degrees))


class TestComputeDegrees:
    def test_hand_example(self, figure4_graph):
        # S = {a, b}, ext = {c, d, e} on the Figure 4 graph.
        s, ext = {0, 1}, {2, 3, 4}
        domain, s_mask, ext_mask = masked(figure4_graph, s, ext)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        assert view.s_ids == [0, 1] and view.ext_ids == [2, 3, 4]
        assert view.ss == [1, 1]
        assert view.es == [3, 2]
        assert view.se == [2, 1, 2]
        ee = compute_ee_degrees_masked(domain, ext_mask, view)
        assert ee == [2, 2, 2]

    def test_matches_brute_force(self):
        g = make_random_graph(18, 0.4, seed=13)
        s = set(range(0, 6))
        ext = set(range(6, 14))
        domain, s_mask, ext_mask = masked(g, s, ext)
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        ss, es, se, ee = brute_degrees(g, s, ext)
        assert keyed(view.s_ids, view.ss) == ss
        assert keyed(view.s_ids, view.es) == es
        assert keyed(view.ext_ids, view.se) == se
        assert keyed(view.ext_ids, compute_ee_degrees_masked(domain, ext_mask, view)) == ee

    def test_aggregates(self, figure4_graph):
        s, ext = {0, 1, 2}, {3, 4}
        view = compute_degrees_masked(*masked(figure4_graph, s, ext))
        assert view.min_s_degree() == min(view.ss)
        assert view.min_total_degree_in_s() == min(
            d_s + d_e for d_s, d_e in zip(view.ss, view.es)
        )

    def test_empty_ext(self, triangle_graph):
        view = compute_degrees_masked(*masked(triangle_graph, {0, 1, 2}, set()))
        assert view.es == [0, 0, 0]
        assert view.ext_ids == [] and view.se == []

    def test_empty_s_minima_raise_clear_error(self, triangle_graph):
        # Eqs. 1–8 presuppose S ≠ ∅; the minima must fail loudly (a bare
        # min() would raise an opaque "empty sequence" from deep inside
        # the bound computation).
        empty_s = compute_degrees_masked(*masked(triangle_graph, set(), {0, 1, 2}))
        for view in (DegreeView([], []), empty_s):
            with pytest.raises(ValueError, match="min_total_degree_in_s.*empty S"):
                view.min_total_degree_in_s()
            with pytest.raises(ValueError, match="min_s_degree.*empty S"):
                view.min_s_degree()

    def test_ee_lazy_by_default(self, triangle_graph):
        domain, s_mask, ext_mask = masked(triangle_graph, {0}, {1, 2})
        view = compute_degrees_masked(domain, s_mask, ext_mask)
        assert view.ee is None
        compute_ee_degrees_masked(domain, ext_mask, view)
        assert view.ee == [1, 1]

    def test_ss_first_then_crossing(self, figure4_graph):
        # A bounding round reads SS alone for Eq. 7 and only then pays
        # for the crossing families; the staged view equals the full one.
        domain, s_mask, ext_mask = masked(figure4_graph, {0, 1, 2}, {3, 4})
        view = ss_degrees(domain, s_mask)
        assert view.es is None and view.ext_ids is None and view.se is None
        assert view.min_s_degree() == 2
        add_crossing_degrees(domain, view, s_mask, ext_mask)
        full = compute_degrees_masked(domain, s_mask, ext_mask)
        assert (view.s_ids, view.ss, view.es, view.ext_ids, view.se) == (
            full.s_ids, full.ss, full.es, full.ext_ids, full.se
        )
