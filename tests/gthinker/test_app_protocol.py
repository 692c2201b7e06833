"""Tests for the formal GThinkerApp protocol and its registry."""

import pytest

from repro.core.options import MiningStats, ResultSink
from repro.gthinker.app_maxclique import MaxCliqueApp
from repro.gthinker.app_protocol import (
    GThinkerApp,
    ensure_app,
    gthinker_app,
    registered_apps,
)
from repro.gthinker.app_quasiclique import QuasiCliqueApp
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import GThinkerEngine
from repro.gthinker.simulation import SimulatedClusterEngine
from repro.graph.adjacency import Graph


class TestRegistry:
    def test_bundled_apps_declared(self):
        apps = registered_apps()
        for cls in (QuasiCliqueApp, MaxCliqueApp):
            assert cls in apps

    def test_registered_instances_satisfy_protocol(self):
        instances = [
            QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink()),
            MaxCliqueApp(),
        ]
        for app in instances:
            assert isinstance(app, GThinkerApp)
            assert ensure_app(app) is app

    def test_decorator_rejects_missing_udf(self):
        with pytest.raises(TypeError, match="compute"):
            @gthinker_app
            class NoCompute:
                def spawn(self, vertex, adjacency, task_id):
                    return None


class TestEnsureApp:
    def test_missing_attrs_named(self):
        class Hollow:
            def spawn(self, vertex, adjacency, task_id):
                return None

            def compute(self, task, frontier, ctx):
                raise NotImplementedError

        with pytest.raises(TypeError, match="sink, stats"):
            ensure_app(Hollow())

    def test_executors_validate_at_construction(self):
        class NotAnApp:
            pass

        g = Graph.from_edges([(0, 1)])
        with pytest.raises(TypeError, match="GThinkerApp"):
            GThinkerEngine(g, NotAnApp(), EngineConfig())
        with pytest.raises(TypeError, match="GThinkerApp"):
            SimulatedClusterEngine(g, NotAnApp(), EngineConfig())

    def test_duck_typed_app_accepted(self):
        class Minimal:
            def __init__(self):
                self.sink = ResultSink()
                self.stats = MiningStats()

            def spawn(self, vertex, adjacency, task_id):
                return None

            def compute(self, task, frontier, ctx):
                raise NotImplementedError

        app = Minimal()
        assert ensure_app(app) is app
        # A no-spawn app runs to completion on both executors.
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert GThinkerEngine(g, app, EngineConfig()).run().maximal == set()
        assert SimulatedClusterEngine(g, Minimal(), EngineConfig()).run().maximal == set()
