"""Tests for miner options, stats, and result sinks."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.core.options import (
    DEFAULT_OPTIONS,
    MinerOptions,
    MiningJob,
    MiningStats,
    ResultSink,
)
from repro.graph.adjacency import Graph


class TestMinerOptions:
    def test_defaults_are_full_algorithm(self):
        assert DEFAULT_OPTIONS.kcore_preprocess
        assert DEFAULT_OPTIONS.use_lower_bound
        assert DEFAULT_OPTIONS.check_before_critical_expand
        assert DEFAULT_OPTIONS.check_empty_ext_candidate

    def test_critical_vertex_needs_lower_bound(self):
        opts = MinerOptions(use_lower_bound=False)
        assert not opts.critical_vertex_enabled()
        assert MinerOptions().critical_vertex_enabled()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_OPTIONS.use_lookahead = False  # type: ignore[misc]

    def test_no_representation_switch(self):
        # One kernel: ten algorithmic switches, none selecting a second
        # hot-path representation.
        assert [f.name for f in dataclasses.fields(MinerOptions)] == [
            "kcore_preprocess", "use_diameter_prune", "use_degree_prune",
            "use_upper_bound", "use_lower_bound", "use_critical_vertex",
            "use_cover_vertex", "use_lookahead",
            "check_before_critical_expand", "check_empty_ext_candidate",
        ]


def test_core_does_not_import_gthinker():
    """Layering: the walk lives in core; gthinker depends on it, never the reverse."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.core; "
         "print([m for m in sys.modules if m.startswith('repro.gthinker')])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestMiningJobValidation:
    def test_gamma_range(self, triangle_graph=None):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            MiningJob(graph=g, gamma=0.0, min_size=2, sink=ResultSink())
        with pytest.raises(ValueError):
            MiningJob(graph=g, gamma=1.5, min_size=2, sink=ResultSink())
        with pytest.raises(ValueError, match="0.5"):
            MiningJob(graph=g, gamma=0.3, min_size=2, sink=ResultSink())

    def test_min_size(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            MiningJob(graph=g, gamma=0.9, min_size=0, sink=ResultSink())


class TestStats:
    def test_merge(self):
        a = MiningStats(nodes_expanded=2, type1_pruned=3, mining_ops=10)
        b = MiningStats(nodes_expanded=1, type2_pruned=4, mining_ops=5)
        a.merge(b)
        assert a.nodes_expanded == 3
        assert a.type1_pruned == 3
        assert a.type2_pruned == 4
        assert a.mining_ops == 15


class TestSinks:
    def test_dedup(self):
        sink = ResultSink()
        sink.emit([1, 2, 3])
        sink.emit([3, 2, 1])
        assert len(sink) == 1
        assert sink.results() == {frozenset({1, 2, 3})}

    def test_results_returns_copy(self):
        sink = ResultSink()
        sink.emit([1])
        out = sink.results()
        out.add(frozenset({9}))
        assert len(sink) == 1
