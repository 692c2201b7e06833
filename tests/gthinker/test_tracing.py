"""Tests for engine tracing and scheduling-policy assertions."""

import json
import warnings as warnings_module

import pytest

from repro.core.options import ResultSink
from repro.gthinker.app_quasiclique import QuasiCliqueApp
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import GThinkerEngine
from repro.gthinker.tracing import KINDS, OBS_KINDS, STEAL_KINDS, NullTracer, Tracer

from conftest import make_random_graph


def traced_run(graph=None, **config_kwargs):
    graph = graph or make_random_graph(14, 0.5, seed=5)
    config = EngineConfig(**config_kwargs)
    tracer = Tracer()
    app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
    engine = GThinkerEngine(graph, app, config, tracer=tracer)
    result = engine.run()
    return tracer, result, engine


class TestTracerBasics:
    def test_emit_and_filter(self):
        t = Tracer()
        t.emit("spawn", 1, machine=0)
        t.emit("execute", 1, machine=0)
        t.emit("execute", 2, machine=1)
        assert len(t) == 3
        assert len(t.events(kind="execute")) == 2
        assert len(t.events(task_id=1)) == 2
        assert t.counts() == {"spawn": 1, "execute": 2}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer().emit("teleport", 1)

    def test_unknown_kind_strict_env_var(self, monkeypatch):
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.setenv("REPRO_STRICT_TRACE", "1")
        with pytest.raises(ValueError):
            Tracer().emit("teleport", 1)

    def test_unknown_kind_warns_once_in_production(self, monkeypatch):
        from repro.gthinker import tracing

        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.delenv("REPRO_STRICT_TRACE", raising=False)
        monkeypatch.setattr(tracing, "_warned_kinds", set())
        t = Tracer()
        with pytest.warns(RuntimeWarning, match="teleport"):
            t.emit("teleport", 1)
        # The event is still recorded — tracing must not lose data.
        assert t.counts() == {"teleport": 1}
        # Second emission of the same kind is silent.
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            t.emit("teleport", 2)
        assert len(t) == 2

    def test_bounded(self):
        t = Tracer(capacity=5)
        for i in range(20):
            t.emit("execute", i)
        assert len(t) == 5
        assert t.events()[0].task_id == 15

    def test_dump_jsonl(self, tmp_path):
        t = Tracer()
        t.emit("spawn", 7, machine=2, detail="root=7")
        path = tmp_path / "trace.jsonl"
        assert t.dump_jsonl(path) == 1
        event = json.loads(path.read_text())
        assert event["kind"] == "spawn" and event["detail"] == "root=7"

    def test_null_tracer_is_silent(self):
        nt = NullTracer()
        nt.emit("anything", 1)
        assert len(nt) == 0
        assert not nt.enabled
        assert nt.counts() == {}


class TestPolicyViaTrace:
    def test_lifecycle_ordering_per_task(self):
        tracer, _, _ = traced_run(decompose="timed", tau_time=10,
                                  time_unit="ops", tau_split=3)
        # Span/progress events are an observability overlay on top of the
        # lifecycle (a batch_mine span repeats its task's id after the
        # fact; root_spawn spans carry task_id=-1) — the policy ordering
        # is about the scheduling events only.
        events = [e for e in tracer.events() if e.kind not in OBS_KINDS]
        first_kind_per_task: dict[int, str] = {}
        routed: set[int] = set()
        executed_before_route: list[int] = []
        for e in events:
            if e.kind in ("route_global", "route_local"):
                routed.add(e.task_id)
            if e.kind == "execute" and e.task_id not in routed:
                executed_before_route.append(e.task_id)
            first_kind_per_task.setdefault(e.task_id, e.kind)
        assert not executed_before_route, "tasks must be routed before execution"
        # Every task's first event is its spawn or its routing.
        for task_id, kind in first_kind_per_task.items():
            assert kind in ("spawn", "route_global", "route_local")

    def test_every_spawn_finishes(self):
        tracer, _, engine = traced_run(decompose="none")
        spawned = {e.task_id for e in tracer.events(kind="spawn")}
        finished = {e.task_id for e in tracer.events(kind="finish")}
        assert spawned <= finished
        assert engine._active == 0

    def test_decompose_events_match_metrics(self):
        tracer, result, _ = traced_run(
            decompose="timed", tau_time=0, time_unit="ops", tau_split=2
        )
        decomposed = tracer.events(kind="decompose")
        assert len(decomposed) == result.metrics.tasks_decomposed

    def test_big_tasks_route_global(self):
        tracer, _, _ = traced_run(tau_split=2, decompose="size")
        assert tracer.events(kind="route_global"), (
            "expected some big tasks with tau_split=2"
        )

    def test_steals_traced(self):
        g = make_random_graph(30, 0.4, seed=9)
        config = EngineConfig(num_machines=2, threads_per_machine=1, tau_split=1)
        tracer = Tracer()
        app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
        engine = GThinkerEngine(g, app, config, tracer=tracer)
        # Stage a skewed global queue and apply one stealing round.
        src = engine.machines[0]
        slot = src.threads[0]
        from repro.graph.adjacency import Graph
        from repro.gthinker.task import Task

        tg = Graph.from_edges([(0, i) for i in range(1, 6)])
        for i in range(6):
            engine.core.route(
                Task(task_id=100 + i, root=0, iteration=3, s=[0],
                     ext=[1, 2, 3, 4, 5], graph=tg),
                src, slot,
            )
        engine.core.apply_steals()
        assert tracer.events(kind="steal")
        # One full observability triple per stolen task: planned by the
        # coordinator, sent by the donor, received by the recipient.
        assert tracer.events(kind="steal_planned")
        sent = tracer.events(kind="steal_sent")
        received = tracer.events(kind="steal_received")
        assert len(sent) == len(received) == len(tracer.events(kind="steal"))
        metrics = engine.metrics
        assert metrics.steals_planned >= 1
        assert metrics.steals_sent == len(sent)
        assert metrics.steals_received == len(received)

    def test_trace_off_by_default(self):
        g = make_random_graph(10, 0.5, seed=2)
        app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
        engine = GThinkerEngine(g, app, EngineConfig())
        engine.run()
        assert isinstance(engine.tracer, NullTracer)


class TestSimulatorTracing:
    """At 2 x 2 the engine's virtual-time loop traces through the same
    scheduler core as at 1 x 1, so the same workload must produce the
    same event vocabulary at both topologies — not merely "some
    events"."""

    WORKLOAD = dict(
        decompose="timed", tau_time=10, time_unit="ops", tau_split=3,
        num_machines=2, threads_per_machine=2, queue_capacity=4, batch_size=2,
    )

    def traced_pair(self):
        g = make_random_graph(16, 0.5, seed=11)
        app_args = dict(gamma=0.75, min_size=3)
        eng_tracer, sim_tracer = Tracer(), Tracer()
        serial = EngineConfig(
            **{**self.WORKLOAD, "num_machines": 1, "threads_per_machine": 1}
        )
        GThinkerEngine(
            g, QuasiCliqueApp(**app_args, sink=ResultSink()),
            serial, tracer=eng_tracer,
        ).run()
        GThinkerEngine(
            g, QuasiCliqueApp(**app_args, sink=ResultSink()),
            EngineConfig(**self.WORKLOAD), tracer=sim_tracer,
        ).run()
        return eng_tracer, sim_tracer

    def test_vocabularies_match(self):
        eng_tracer, sim_tracer = self.traced_pair()
        eng_kinds = set(eng_tracer.counts())
        sim_kinds = set(sim_tracer.counts())
        # Steal rounds fire only with two or more machines, on virtual
        # time here (and on real network round trips in the cluster
        # runtime), so only those kinds may differ.
        # Observability kinds are timing-dependent too (which spans fire
        # depends on wall-clock spill/steal behaviour), so they are
        # likewise excluded from the vocabulary equality.
        timing_dependent = STEAL_KINDS | OBS_KINDS
        assert sim_kinds - timing_dependent == eng_kinds - timing_dependent
        # The workload is shaped to exercise the whole policy surface.
        assert {"spawn", "route_global", "route_local", "pop_global",
                "pop_local", "execute", "decompose", "finish"} <= sim_kinds
        assert sim_kinds <= set(KINDS)
        assert eng_kinds <= set(KINDS)

    def test_same_tasks_spawned_and_finished(self):
        eng_tracer, sim_tracer = self.traced_pair()
        for tracer in (eng_tracer, sim_tracer):
            spawned = {e.task_id for e in tracer.events(kind="spawn")}
            finished = {e.task_id for e in tracer.events(kind="finish")}
            assert spawned <= finished
        assert len(eng_tracer.events(kind="spawn")) == len(
            sim_tracer.events(kind="spawn")
        )

    def test_simulator_trace_off_by_default(self):
        g = make_random_graph(10, 0.5, seed=2)
        app = QuasiCliqueApp(gamma=0.75, min_size=3, sink=ResultSink())
        sim = GThinkerEngine(g, app, EngineConfig(**self.WORKLOAD))
        sim.run()
        assert isinstance(sim.core.tracer, NullTracer)


class TestEmittedVocabulary:
    """The KINDS tuple and the emit sites in src/ must agree exactly."""

    @staticmethod
    def _emitted_literals():
        import re
        from pathlib import Path

        import repro

        src_root = Path(repro.__file__).resolve().parent
        pattern = re.compile(r"""\.emit\(\s*["']([a-z_]+)["']""")
        emitted: dict[str, set[str]] = {}
        for path in src_root.rglob("*.py"):
            for match in pattern.finditer(path.read_text()):
                emitted.setdefault(match.group(1), set()).add(path.name)
        return emitted

    def test_every_emitted_kind_is_declared(self):
        emitted = self._emitted_literals()
        unknown = set(emitted) - set(KINDS)
        assert not unknown, (
            f"kinds emitted in src/ but missing from tracing.KINDS: "
            f"{ {k: sorted(emitted[k]) for k in unknown} }"
        )

    def test_every_declared_kind_has_an_emit_site(self):
        emitted = self._emitted_literals()
        dead = set(KINDS) - set(emitted)
        assert not dead, (
            f"kinds declared in tracing.KINDS but never emitted: {sorted(dead)}"
        )
