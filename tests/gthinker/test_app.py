"""Tests for the quasi-clique application UDFs (Algorithms 4–7)."""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import TaskDomain
from repro.core.miner import quasiclique_core
from repro.core.options import MinerOptions, ResultSink
from repro.core.quasiclique import kcore_threshold
from repro.gthinker.app_quasiclique import ComputeContext, QuasiCliqueApp
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.task import ComputeOutcome
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core, peel_adjacency
from repro.graph.traversal import bfs_distances

from conftest import make_random_graph


def run_to_iteration3(app, graph, root):
    """Drive one task through iterations 1–2 with direct frontier service."""
    task = app.spawn(root, graph.neighbors(root), task_id=0)
    if task is None:
        return None
    ctx = ComputeContext(config=EngineConfig(), next_task_id=lambda: 99)
    while task.iteration < 3:
        frontier = {v: (graph.neighbors(v) if graph.has_vertex(v) else []) for v in task.pulls}
        task.pulls = []
        outcome = app.compute(task, frontier, ctx)
        if outcome.finished:
            return None
    return task


def task_subgraph(task):
    """The mining subgraph as a Graph, whichever representation it rides in."""
    if task.domain is not None:
        return task.domain.to_graph()
    return task.graph


class TestParameterValidation:
    """An out-of-range (γ, τ_size) is rejected when the app is built —
    before any task spawns — on every backend. The graph is chosen so
    no task would ever reach iteration 3, where MiningJob's own check
    used to be the only one."""

    @pytest.mark.parametrize(
        "backend", ["serial", "process", "cluster"]
    )
    @pytest.mark.parametrize("gamma,min_size", [(0.2, 50), (1.5, 3)])
    def test_invalid_gamma_raises_before_any_task(
        self, path_graph, backend, gamma, min_size
    ):
        config = EngineConfig(backend=backend, num_procs=2)
        with pytest.raises(ValueError, match="gamma must be in"):
            mine_parallel(path_graph, gamma, min_size, config)

    @pytest.mark.parametrize("gamma,min_size", [(0.49, 3), (0.9, 0)])
    def test_app_construction_checks_params(self, gamma, min_size):
        with pytest.raises(ValueError, match="must be"):
            QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink())


class TestSpawn:
    def test_low_degree_declined(self):
        g = Graph.from_edges([(0, 1), (1, 2), (1, 3), (2, 3)])
        app = QuasiCliqueApp(gamma=0.9, min_size=3, sink=ResultSink())
        assert app.k == kcore_threshold(0.9, 3)
        assert app.spawn(0, g.neighbors(0), 0) is None  # degree 1 < k=2

    def test_too_few_larger_id_neighbours_declined(self):
        # Root 2 has degree 4 ≥ k=2 but one larger-ID neighbour: the task
        # would keep only {2, 3} and peel the root in iteration 1.
        g = Graph.from_edges([(2, 0), (2, 1), (2, 3), (0, 1)])
        app = QuasiCliqueApp(gamma=0.9, min_size=3, sink=ResultSink())
        assert app.k == 2 and g.degree(2) >= app.k
        assert app.spawn(2, g.neighbors(2), 0) is None
        assert app.spawn(0, g.neighbors(0), 0) is not None

    def test_spawn_pulls_only_larger_ids(self):
        g = Graph.from_edges([(2, 0), (2, 1), (2, 3), (2, 4)])
        app = QuasiCliqueApp(gamma=0.5, min_size=3, sink=ResultSink())
        task = app.spawn(2, g.neighbors(2), 0)
        assert task is not None
        assert task.pulls == [3, 4]

    def test_min_size_one_emits_singleton(self):
        g = Graph.from_edges([(0, 1)])
        sink = ResultSink()
        app = QuasiCliqueApp(gamma=0.9, min_size=1, sink=sink)
        app.spawn(0, g.neighbors(0), 0)
        assert frozenset({0}) in sink.results()


class TestSubgraphConstruction:
    @pytest.mark.parametrize("seed", range(6))
    def test_task_graph_is_kcore_of_restricted_ego(self, seed):
        g = make_random_graph(25, 0.3, seed=seed + 7)
        gamma, min_size = 0.8, 4
        app = QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink())
        k = app.k
        for root in list(g.vertices())[:8]:
            if g.degree(root) < k:
                continue
            task = run_to_iteration3(app, g, root)
            if task is None:
                continue
            tg = task_subgraph(task)
            assert root in tg
            # Every vertex: ID ≥ root, degree ≥ k inside the task graph,
            # within 2 hops of root in G.
            dist = bfs_distances(g, root, max_depth=2)
            for v in tg.vertices():
                assert v >= root
                assert tg.degree(v) >= k
                assert v in dist
            # The task graph is its own k-core (stable under peeling).
            assert k_core(tg, k) == tg
            # ext(S) is everything except the root, sorted.
            assert task.s == [root]
            assert task.ext == sorted(set(tg.vertices()) - {root})

    def test_task_graph_edges_exist_in_g(self):
        g = make_random_graph(20, 0.35, seed=3)
        app = QuasiCliqueApp(gamma=0.8, min_size=3, sink=ResultSink())
        for root in list(g.vertices())[:6]:
            if g.degree(root) < app.k:
                continue
            task = run_to_iteration3(app, g, root)
            if task is None:
                continue
            for u, v in task_subgraph(task).edges():
                assert g.has_edge(u, v)

    def test_root_peeled_terminates_task(self):
        # Star center with ID 0: neighbors have degree 1 < k → all pruned,
        # the root loses its support and the task dies in iteration 1.
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        app = QuasiCliqueApp(gamma=0.9, min_size=3, sink=ResultSink())
        task = app.spawn(0, g.neighbors(0), 0)
        assert task is not None
        ctx = ComputeContext(config=EngineConfig(), next_task_id=lambda: 1)
        frontier = {v: g.neighbors(v) for v in task.pulls}
        task.pulls = []
        outcome = app.compute(task, frontier, ctx)
        assert outcome.finished


# -- Differential property: set-algebra assembly vs per-element reference ----


def _reference_iteration_1(app, task, frontier):
    """The per-element iteration 1 (Algorithm 6) the app used to run;
    returns its outcome and t.N, the root plus its pulled neighbours."""
    v, k = task.root, app.k
    one_hop = {v} | set(frontier)
    low_degree = {u for u, adj in frontier.items() if len(adj) < k}
    building = {v: {u for u in task.building[v] if u not in low_degree}}
    for u, adj in frontier.items():
        if u in low_degree:
            continue
        building[u] = {w for w in adj if w >= v and w not in low_degree}
    peel_adjacency(building, k)
    cost = len(frontier) + sum(len(adj) for adj in frontier.values())
    if v not in building:
        return ComputeOutcome(finished=True, cost_ops=cost), one_hop
    task.building = building
    pulls = set()
    for nbrs in building.values():
        for w in nbrs:
            if w > v and w not in one_hop:
                pulls.add(w)
    task.pulls = sorted(pulls)
    task.iteration = 2
    return ComputeOutcome(finished=False, cost_ops=cost), one_hop


def _reference_iteration_2(app, task, frontier, one_hop):
    """The per-element iteration 2 (Algorithm 7): filter, close, peel."""
    v, k = task.root, app.k
    building = task.building
    within_two_hops = set(frontier) | one_hop
    for u, adj in frontier.items():
        if len(adj) < k:
            continue
        building[u] = {w for w in adj if w >= v and w in within_two_hops}
    keys = set(building)
    for u in building:
        building[u] &= keys
    peel_adjacency(building, k)
    cost = len(frontier) + sum(len(adj) for adj in frontier.values())
    cost += sum(len(nbrs) for nbrs in building.values())
    if v not in building:
        return ComputeOutcome(finished=True, cost_ops=cost)
    task.domain = TaskDomain.from_adjacency(building)
    task.building = None
    task.pulls = []
    task.ext = sorted(u for u in building if u != v)
    task.iteration = 3
    return ComputeOutcome(finished=False, cost_ops=cost)


@st.composite
def assembly_cases(draw):
    """A random graph with arbitrary IDs, a (γ, τ_size) pair, whether the
    job's Theorem 2 peel runs, and destination-only IDs: vertices still
    named in others' lists whose own adjacency resolves empty."""
    n = draw(st.integers(min_value=2, max_value=14))
    ids = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.from_edges([p for p, k in zip(pairs, keep) if k], vertices=ids)
    gamma = draw(st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0]))
    min_size = draw(st.integers(min_value=1, max_value=6))
    preprocess = draw(st.booleans())
    absent = draw(st.sets(st.sampled_from(ids), max_size=n // 3))
    tau_split = draw(st.integers(min_value=0, max_value=8))
    return graph, gamma, min_size, preprocess, absent, tau_split


@given(case=assembly_cases())
@settings(deadline=None)
def test_iterations_1_2_match_per_element_reference(case):
    """Iterations 1–2 by slices, unions and key intersections plus the
    first-round drop build exactly what the per-element filters built:
    same verdicts, costs, pulls, half-built and final subgraphs, and
    queue routing."""
    graph, gamma, min_size, preprocess, absent, tau_split = case
    options = MinerOptions(kcore_preprocess=preprocess)
    core = quasiclique_core(graph, gamma, min_size, options)
    app = QuasiCliqueApp(gamma=gamma, min_size=min_size, sink=ResultSink(), options=options)
    ctx = ComputeContext(config=EngineConfig(), next_task_id=lambda: 99)

    def serve(pulls):
        return {
            u: [] if u in absent or not core.has_vertex(u) else core.neighbors(u)
            for u in pulls
        }

    for root in core.vertices():
        if root in absent:
            continue
        task = app.spawn(root, core.neighbors(root), task_id=0)
        if task is None:
            continue
        ref = copy.deepcopy(task)
        frontier = serve(task.pulls)
        got = app.compute(task, frontier, ctx)
        want, one_hop = _reference_iteration_1(app, ref, frontier)
        assert (got.finished, got.cost_ops) == (want.finished, want.cost_ops)
        if got.finished:
            continue
        assert task.pulls == ref.pulls
        assert task.building == ref.building
        assert task.is_big(tau_split) == ref.is_big(tau_split)
        frontier = serve(task.pulls)
        got = app.compute(task, frontier, ctx)
        want = _reference_iteration_2(app, ref, frontier, one_hop)
        assert (got.finished, got.cost_ops) == (want.finished, want.cost_ops)
        if got.finished:
            continue
        assert task.domain == ref.domain
        assert task.ext == ref.ext
        assert task.is_big(tau_split) == ref.is_big(tau_split)
