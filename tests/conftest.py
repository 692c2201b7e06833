"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings

from repro.core.bounds import lower_bound, lower_bound_min, prefix_sums_desc, upper_bound
from repro.core.domain import TaskDomain
from repro.core.quasiclique import ceil_table
from repro.graph.adjacency import Graph
from repro.gthinker.cluster import run_cluster_app
from repro.gthinker.engine import quasiclique_job

#: γ values used across parameterized tests — all in the paper's γ ≥ 0.5
#: regime, including a non-dyadic rational to exercise float guards.
GAMMAS = [0.5, 0.6, 2 / 3, 0.75, 0.8, 0.9, 1.0]

#: A larger budget for the properties that guard the mining kernel
#: (``--hypothesis-profile=kernel-parity``); tests that leave
#: ``max_examples`` unset run 100 examples by default.
settings.register_profile("kernel-parity", max_examples=2000, deadline=None)


def make_random_graph(n: int, p: float, seed: int) -> Graph:
    """Small G(n, p) with all n vertices present (isolated ones too)."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return Graph.from_edges(edges, vertices=range(n))


def launch_mining(graph: Graph, gamma: float, min_size: int, config, **launch):
    """Mine `graph` on a localhost launch the way ``mine_parallel`` does
    for the process and cluster backends (``quasiclique_job``, warm
    workers for 'process'), passing `launch` — ``timeout``,
    ``fault_injection``, ``num_workers`` and the rest of
    ``run_cluster_app``'s knobs — straight to the launcher."""
    core, app = quasiclique_job(graph, gamma, min_size)
    return run_cluster_app(
        core, app, config, warm_start=config.backend == "process", **launch,
    )


def masked(graph: Graph, *vertex_sets):
    """(domain, mask, ...): `graph` compacted whole, one mask per vertex set.

    The shared graphs here number their vertices 0..n-1, so a domain
    over the whole graph has local ID == global ID and degree views
    (keyed by local ID) can be compared to per-vertex expectations.
    """
    domain = TaskDomain.from_graph(graph)
    return (domain, *(domain.mask_of_globals(vs) for vs in vertex_sets))


def bounds_of(view, gamma: float) -> tuple[int | None, int | None]:
    """(U_S, L_S) of a full degree view, each None when infeasible.

    L_S is Eq. 7 then Eq. 8, U_S is Eq. 4, over one shared prefix-sum
    array — what a bounding round computes with both bounds switched on.
    """
    s_size = len(view.ss)
    ceil = ceil_table(gamma, s_size + len(view.se) + 1)
    sum_ss = sum(view.ss)
    sums = prefix_sums_desc(view.se)
    u_s = upper_bound(ceil, gamma, s_size, view.min_total_degree_in_s(), sum_ss, sums)
    l_min = lower_bound_min(ceil, s_size, view.min_s_degree(), len(view.se))
    l_s = None if l_min is None else lower_bound(ceil, s_size, sum_ss, sums, l_min)
    return u_s, l_s


@pytest.fixture
def figure4_graph() -> Graph:
    """The paper's Figure 4 example graph (a..i mapped to 0..8).

    Γ(d) = {a, c, e, h, i} (degree 5), B(e) = {f, g, h, i}, and
    S1 = {a, b, c, d}, S2 = S1 ∪ {e} are both 0.6-quasi-cliques with
    S1 non-maximal — the exact properties the paper's Section 3 walks
    through, asserted in tests.
    """
    ids = {x: i for i, x in enumerate("abcdefghi")}
    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"),
        ("b", "c"), ("b", "e"),
        ("c", "d"), ("c", "e"),
        ("d", "e"), ("d", "h"), ("d", "i"),
        ("f", "g"), ("f", "h"),
        ("g", "h"),
        ("h", "i"),
        ("b", "f"), ("c", "g"),
    ]
    return Graph.from_edges([(ids[u], ids[v]) for u, v in edges])


@pytest.fixture
def triangle_graph() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_graph() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def two_cliques_bridge() -> Graph:
    """Two 4-cliques joined by a single bridge edge."""
    edges = list(itertools.combinations(range(4), 2))
    edges += [(u + 4, v + 4) for u, v in itertools.combinations(range(4), 2)]
    edges.append((3, 4))
    return Graph.from_edges(edges)
