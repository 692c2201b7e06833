"""Fidelity tests: every worked example and numeric claim in the paper text.

These tests pin the implementation to the paper's own illustrations —
the Figure 4 graph walkthrough (Section 3.1), the S1/S2 quasi-clique
example, the diameter-2 argument, Lemma 1, Lemma 2, and the parameter
arithmetic behind the Table 2 runs.

The mining-based examples run as a backend-conformance corpus: each is
parametrized over every backend (serial at 1 x 1 and at 2 x 2 on
virtual time, process, cluster) via the ``mine`` fixture, which also cross-checks
every backend's output against the reference enumerator — the paper's
claims must hold identically no matter which engine produced the
result.
"""

import itertools

import pytest
from conftest import launch_mining

from repro.core.bounds import lemma2_first_feasible, prefix_sums_desc
from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.quasiclique import ceil_gamma, ceil_table, is_quasi_clique, kcore_threshold
from repro.graph.traversal import diameter, two_hop_neighbors
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel

# Vertex labels of Figure 4 mapped onto IDs used by the fixture.
A, B, C, D, E, F, G, H, I = range(9)

BACKENDS = ("serial", "process", "cluster", "serial-2x2")


@pytest.fixture(params=BACKENDS)
def mine(request):
    """Mine with one executor, cross-checked against the enumerator."""
    backend = request.param

    def _mine(graph, gamma, min_size):
        if backend == "serial":
            out = mine_parallel(graph, gamma, min_size, EngineConfig())
        elif backend == "process":
            out = mine_parallel(
                graph, gamma, min_size,
                EngineConfig(backend="process", num_procs=2,
                             queue_capacity=4, batch_size=2),
            )
        elif backend == "cluster":
            out = launch_mining(
                graph, gamma, min_size,
                EngineConfig(backend="cluster", num_procs=2,
                             queue_capacity=4, batch_size=2,
                             heartbeat_period=0.02, heartbeat_timeout=5.0),
                timeout=120.0,
            )
        else:
            out = mine_parallel(
                graph, gamma, min_size,
                EngineConfig(num_machines=2, threads_per_machine=2),
            )
        expected = enumerate_maximal_quasicliques(graph, gamma, min_size)
        assert out.maximal == expected, f"{backend} diverges from the enumerator"
        return out.maximal

    return _mine


class TestFigure4Notation:
    """Section 3.1's notation walkthrough on the Figure 4 graph."""

    def test_gamma_d_and_degree(self, figure4_graph):
        # "Γ(vd) = {va, vc, ve, vh, vi} and d(vd) = 5"
        assert figure4_graph.neighbor_set(D) == {A, C, E, H, I}
        assert figure4_graph.degree(D) == 5

    def test_two_hop_of_e(self, figure4_graph):
        # "Γ(ve) = {va, vb, vc, vd}, B(ve) = {vf, vg, vh, vi}, and
        #  B̄(ve) consisting of all vertices"
        assert figure4_graph.neighbor_set(E) == {A, B, C, D}
        b_bar = two_hop_neighbors(figure4_graph, E)  # N+2 minus {e}
        assert b_bar == set(range(9)) - {E}
        strictly_two = b_bar - figure4_graph.neighbor_set(E)
        assert strictly_two == {F, G, H, I}

    def test_s1_s2_quasicliques(self, figure4_graph, mine):
        # "If we set γ = 0.6, then both S1 and S2 are γ-quasi-cliques ...
        #  since S1 ⊂ S2, G(S1) is not a maximal γ-quasi-clique."
        s1 = {A, B, C, D}
        s2 = s1 | {E}
        assert is_quasi_clique(figure4_graph, s1, 0.6)
        assert is_quasi_clique(figure4_graph, s2, 0.6)
        maximal = mine(figure4_graph, 0.6, 4)
        assert frozenset(s1) not in maximal

    def test_s1_degree_arithmetic(self, figure4_graph):
        # "every vertex in S1 has at least 2 neighbors ... (and 2/3 > 0.6)"
        s1 = {A, B, C, D}
        degrees = [figure4_graph.degree_in(v, s1) for v in s1]
        assert min(degrees) == 2
        assert ceil_gamma(0.6, 3) == 2


class TestDiameterArgument:
    """P1: for γ ≥ 0.5 a quasi-clique has diameter ≤ 2 (Section 3.2)."""

    @pytest.mark.parametrize("gamma", [0.5, 0.6, 0.75, 0.9])
    def test_empirical_bound(self, figure4_graph, mine, gamma):
        for qc in mine(figure4_graph, gamma, 3):
            assert diameter(figure4_graph.subgraph(qc)) <= 2

    def test_shared_neighbor_argument(self, figure4_graph, mine):
        # Two non-adjacent members of a γ ≥ 0.5 quasi-clique must share
        # a neighbor inside it.
        for qc in mine(figure4_graph, 0.5, 4):
            for u, v in itertools.combinations(sorted(qc), 2):
                if not figure4_graph.has_edge(u, v):
                    shared = (
                        figure4_graph.neighbor_set(u)
                        & figure4_graph.neighbor_set(v)
                        & qc
                    )
                    assert shared, f"{u},{v} violate the diameter argument"


class TestLemma1:
    """Lemma 1 [44]: a + n < ceil(γ(b + n)) ⇒ ∀i ∈ [0, n]: a + i < ceil(γ(b + i))."""

    @pytest.mark.parametrize("gamma", [0.5, 0.6, 2 / 3, 0.8, 0.9, 1.0])
    def test_exhaustive_small_range(self, gamma):
        for a in range(0, 6):
            for b in range(0, 6):
                for n in range(0, 6):
                    if a + n < ceil_gamma(gamma, b + n):
                        for i in range(0, n + 1):
                            assert a + i < ceil_gamma(gamma, b + i), (
                                f"Lemma 1 fails at a={a} b={b} n={n} i={i} γ={gamma}"
                            )


class TestLemma2:
    """Lemma 2: the prefix-sum feasibility condition is sound."""

    def test_numeric_instance(self):
        # |S| = 2, Σ_S d_S(v) = 2, ext degrees (sorted desc) = [1, 1, 0]:
        # adding t=2 vertices under γ=0.9 demands 2·ceil(0.9·3) = 6 > 2+2.
        sums = prefix_sums_desc([1, 1, 0])
        assert lemma2_first_feasible(ceil_table(0.9, 5), 2, 2, sums, [2]) is None
        # Under γ=0.5 it demands 2·ceil(0.5·3) = 4 ≤ 4 → feasible.
        assert lemma2_first_feasible(ceil_table(0.5, 5), 2, 2, sums, [2]) == 2

    def test_soundness_against_oracle(self, figure4_graph):
        # If the Lemma 2 condition fails for (S, k), no k-subset Z of
        # ext makes S ∪ Z a quasi-clique.
        from repro.core.degrees import compute_degrees_masked
        from conftest import masked

        gamma = 0.75
        s_set = {A, B}
        ext_set = {C, D, E, F}
        view = compute_degrees_masked(*masked(figure4_graph, s_set, ext_set))
        sums = prefix_sums_desc(view.se)
        sum_s = sum(view.ss)
        ceil = ceil_table(gamma, len(s_set) + len(ext_set))
        for k in range(1, len(ext_set) + 1):
            if lemma2_first_feasible(ceil, len(s_set), sum_s, sums, [k]) is None:
                for z in itertools.combinations(sorted(ext_set), k):
                    assert not is_quasi_clique(
                        figure4_graph, s_set | set(z), gamma,
                        require_connected=False,
                    )


class TestParameterArithmetic:
    """The k = ceil(γ(τ_size−1)) values implied by the paper's Table 2 runs."""

    @pytest.mark.parametrize(
        "gamma,min_size,k",
        [
            (0.9, 30, 27),  # CX_GSE1730
            (0.8, 28, 22),  # CX_GSE10158 (ceil(0.8·27) = 22)
            (0.8, 10, 8),   # Ca-GrQc
            (0.9, 23, 20),  # Enron
            (0.8, 70, 56),  # DBLP (ceil(0.8·69) = 56)
            (0.5, 12, 6),   # Amazon
            (0.9, 22, 19),  # Hyves
            (0.9, 18, 16),  # YouTube
        ],
    )
    def test_kcore_thresholds(self, gamma, min_size, k):
        assert kcore_threshold(gamma, min_size) == k

    def test_youtube_claims(self):
        # "1,320 0.9-quasi-cliques ... at least 18 vertices, and the
        #  number reduces to 32 if we require at least 20" — encode the
        # parameter relationship (monotonicity of the size filter).
        assert kcore_threshold(0.9, 20) > kcore_threshold(0.9, 18)
