"""Hypothesis property test: every engine mode equals the serial miner.

The cross-mode equivalence is the system-half analog of the oracle
test: whatever the scheduling, decomposition, spilling, or machine
count, the maximal quasi-clique family must be identical.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miner import mine_maximal_quasicliques
from repro.graph.adjacency import Graph
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel


@st.composite
def small_graphs(draw, max_vertices: int = 10):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(
        [p for p, keep in zip(pairs, mask) if keep], vertices=range(n)
    )


ENGINE_CONFIGS = [
    EngineConfig(decompose="none"),
    EngineConfig(decompose="size", tau_split=2),
    EngineConfig(decompose="timed", tau_time=0, time_unit="ops", tau_split=2),
    EngineConfig(decompose="timed", tau_time=15, time_unit="ops", tau_split=3,
                 queue_capacity=4, batch_size=2),
]


@given(
    graph=small_graphs(),
    gamma=st.sampled_from([0.5, 2 / 3, 0.75, 0.9, 1.0]),
    min_size=st.integers(min_value=1, max_value=4),
    config=st.sampled_from(ENGINE_CONFIGS),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_equals_serial_miner(graph, gamma, min_size, config):
    serial = mine_maximal_quasicliques(graph, gamma, min_size).maximal
    parallel = mine_parallel(graph, gamma, min_size, config).maximal
    assert parallel == serial


@given(
    graph=small_graphs(max_vertices=9),
    gamma=st.sampled_from([0.5, 0.75, 0.9]),
    machines=st.integers(min_value=1, max_value=3),
    threads=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simulator_equals_serial_miner(graph, gamma, machines, threads):
    config = EngineConfig(
        num_machines=machines,
        threads_per_machine=threads,
        decompose="timed",
        tau_time=10,
        time_unit="ops",
        tau_split=3,
    )
    serial = mine_maximal_quasicliques(graph, gamma, 2).maximal
    sim = mine_parallel(graph, gamma, 2, config).maximal
    assert sim == serial
