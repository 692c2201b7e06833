"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (Section 7) on the synthetic dataset analogs, printing the
paper's reported values next to the measured ones. Run with::

    pytest benchmarks/ --benchmark-only -s

Rendered tables are also written to benchmarks/out/.
"""

from __future__ import annotations

import pytest

from repro.datasets import build_dataset, get_dataset
from repro.gthinker import EngineConfig
from repro.gthinker.simulation import simulate_cluster


@pytest.fixture(scope="session")
def dataset():
    """Factory fixture: dataset name → (spec, PlantedGraph), memoized."""

    def _get(name: str):
        return get_dataset(name), build_dataset(name)

    return _get


def sim_run(graph, spec, machines=1, threads=1, **overrides):
    """One simulated-cluster run with a dataset's registered parameters."""
    params = dict(
        num_machines=machines,
        threads_per_machine=threads,
        tau_split=spec.tau_split,
        tau_time=spec.tau_time_ops,
        time_unit="ops",
        decompose="timed",
    )
    params.update(overrides)
    config = EngineConfig(**params)
    return simulate_cluster(graph, spec.gamma, spec.min_size, config)
