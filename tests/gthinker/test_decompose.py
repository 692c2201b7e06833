"""The one walk under the three budget policies (Algorithms 2, 8 and 10)."""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miner import mine_maximal_quasicliques
from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.options import MiningJob, MiningStats, ResultSink
from repro.core.postprocess import remove_non_maximal
from repro.core.quasiclique import is_quasi_clique
from repro.graph.adjacency import Graph
from repro.gthinker.clock import AlwaysExpired, NeverExpires, OpBudget
from repro.gthinker.config import EngineConfig
from repro.gthinker.decompose import decomposition_budget, time_delayed_mine_masked

from conftest import GAMMAS, make_random_graph, masked


def make_job(graph, gamma, min_size):
    return MiningJob(graph=graph, gamma=gamma, min_size=min_size, sink=ResultSink())


def mine_task(job, domain, s_mask, ext_mask, budget):
    """One walk call; spawned children come back as re-compacted tasks."""
    children = []

    def spawn(s, e):
        sub = domain.restrict(s | e)
        children.append(
            (sub, sub.mask_of_globals(domain.globals_of(s)),
             sub.mask_of_globals(domain.globals_of(e)))
        )

    time_delayed_mine_masked(job, domain, s_mask, ext_mask, budget, spawn)
    return children


def mine_all_roots(g, gamma, min_size, make_budget, on_call=None):
    """Every root task plus its subtasks to completion, as the engine loop does.

    ``make_budget(job, ext_size)`` picks each task's budget;
    ``on_call(budget, nodes_entered, children)`` observes each walk call.
    """
    job = make_job(g, gamma, min_size)
    pending = []
    for root in sorted(g.vertices()):
        ext = [u for u in g.vertices() if u > root]
        if ext:
            pending.append(masked(g, [root], ext))
    while pending:
        domain, s_mask, ext_mask = pending.pop()
        budget = make_budget(job, ext_mask.bit_count())
        before = job.stats.nodes_expanded
        children = mine_task(job, domain, s_mask, ext_mask, budget)
        if on_call is not None:
            on_call(budget, job.stats.nodes_expanded - before, children)
        pending.extend(children)
    return job


class TestTimeDelayed:
    def test_never_expiring_budget_equals_plain_mining(self):
        for seed in range(6):
            rng = random.Random(seed)
            g = make_random_graph(10, 0.55, seed=seed + 23)
            gamma = rng.choice(GAMMAS)
            min_size = rng.randint(2, 4)
            want = mine_maximal_quasicliques(g, gamma, min_size).maximal

            def no_spawn(budget, nodes, children):
                assert children == [], "no subtasks may spawn without a timeout"

            job = mine_all_roots(g, gamma, min_size, lambda job, n: NeverExpires(), no_spawn)
            assert remove_non_maximal(job.sink.results()) == want

    def test_always_expired_spawns_and_stays_correct(self):
        for seed in range(6):
            rng = random.Random(seed + 50)
            g = make_random_graph(9, 0.6, seed=seed + 61)
            gamma = rng.choice(GAMMAS)
            min_size = rng.randint(2, 4)
            want = mine_maximal_quasicliques(g, gamma, min_size).maximal
            job = mine_all_roots(g, gamma, min_size, lambda job, n: AlwaysExpired())
            assert remove_non_maximal(job.sink.results()) == want

    def test_op_budget_bounds_in_task_mining(self):
        g = make_random_graph(12, 0.6, seed=5)
        job = make_job(g, 0.6, 3)
        root = min(g.vertices())
        state = masked(g, [root], [u for u in g.vertices() if u > root])
        # With such a small budget on a dense graph the walk must have
        # hit the timeout and wrapped remaining work as subtasks.
        assert mine_task(job, *state, OpBudget(job.stats, ops=30)), (
            "expected timeout-driven subtask creation"
        )

    def test_spawned_subtasks_satisfy_invariants(self):
        g = make_random_graph(12, 0.6, seed=9)
        job = make_job(g, 0.6, 3)
        root = min(g.vertices())
        state = masked(g, [root], [u for u in g.vertices() if u > root])
        for sub, s, e in mine_task(job, *state, OpBudget(job.stats, 10)):
            assert e, "wrapped subtasks always have work left"
            assert s.bit_count() + e.bit_count() >= job.min_size
            assert s | e == sub.full_mask and not s & e
            assert root in sub.globals_of(s)


class TestSizeThresholdSplit:
    def test_children_cover_all_results(self):
        # Split recursively until |ext| ≤ τ_split = 2, then mine whole.
        config = EngineConfig(decompose="size", tau_split=2)
        for seed in range(6):
            rng = random.Random(seed + 11)
            g = make_random_graph(9, 0.6, seed=seed + 43)
            gamma = rng.choice(GAMMAS)
            min_size = rng.randint(2, 4)
            want = mine_maximal_quasicliques(g, gamma, min_size).maximal
            job = mine_all_roots(
                g, gamma, min_size,
                lambda job, n: decomposition_budget(config, job.stats, n),
            )
            assert remove_non_maximal(job.sink.results()) == want

    def test_emissions_are_valid(self):
        g = make_random_graph(10, 0.6, seed=77)
        job = make_job(g, 0.75, 3)
        mine_task(job, *masked(g, [0], [v for v in g.vertices() if v > 0]), AlwaysExpired())
        for cand in job.sink.results():
            assert is_quasi_clique(g, cand, 0.75)


class TestDecompositionBudget:
    def test_policy_table(self):
        stats = MiningStats()
        none = EngineConfig(decompose="none", tau_time=5)
        assert isinstance(decomposition_budget(none, stats, 10**6), NeverExpires)
        size = EngineConfig(decompose="size", tau_split=3)
        assert isinstance(decomposition_budget(size, stats, 3), NeverExpires)
        assert isinstance(decomposition_budget(size, stats, 4), AlwaysExpired)
        timed = EngineConfig(decompose="timed", tau_time=5, time_unit="ops")
        budget = decomposition_budget(timed, stats, 1)
        assert isinstance(budget, OpBudget) and not budget.expired()
        stats.mining_ops += 6
        assert budget.expired()
        unbounded = EngineConfig(decompose="timed")  # τ_time = ∞
        assert isinstance(decomposition_budget(unbounded, stats, 1), NeverExpires)


@st.composite
def small_graphs(draw, max_vertices: int = 9):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges([p for p, k in zip(pairs, keep) if k], vertices=range(n))


@given(
    graph=small_graphs(),
    gamma=st.sampled_from(GAMMAS),
    min_size=st.integers(min_value=2, max_value=5),
    config=st.one_of(
        st.just(EngineConfig(decompose="none")),
        st.builds(EngineConfig, decompose=st.just("size"), tau_split=st.integers(0, 4)),
        st.builds(EngineConfig, decompose=st.just("timed"), tau_time=st.integers(0, 40)),
    ),
)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_budget_policy_equals_the_oracle(graph, gamma, min_size, config):
    """Drained through `restrict`, any policy yields the naive oracle's family."""

    def check_call(budget, nodes_entered, children):
        if isinstance(budget, NeverExpires):
            assert children == []
        if isinstance(budget, AlwaysExpired):
            assert nodes_entered == 1, "an expired walk stops after one level"

    job = mine_all_roots(
        graph, gamma, min_size,
        lambda job, n: decomposition_budget(config, job.stats, n),
        check_call,
    )
    assert remove_non_maximal(job.sink.results()) == enumerate_maximal_quasicliques(
        graph, gamma, min_size
    )

