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
from repro.gthinker import EngineConfig, mine_parallel


@pytest.fixture(scope="session")
def dataset():
    """Factory fixture: dataset name → (spec, PlantedGraph), memoized."""

    def _get(name: str):
        return get_dataset(name), build_dataset(name)

    return _get


def sim_run(graph, spec, machines=1, threads=1, **overrides):
    """One serial run on M x T virtual threads with a dataset's registered
    parameters (``metrics.virtual_makespan`` above 1 x 1,
    ``metrics.virtual_work`` always)."""
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
    return mine_parallel(graph, spec.gamma, spec.min_size, config)
