"""Timing probes installed from outside the program, and the span maths.

``Recorder.install`` wraps a fixed list of public callables of
``repro`` with timing wrappers for the length of a traced run. A
function is patched under every name it was imported as in any loaded
``repro.*`` module; ``uninstall`` puts the original objects back. Every
call becomes a span ``(id, parent, name, layer, start, end, job)`` kept
in memory. Forked workers inherit the wrappers, which pass straight
through in any process but the one that installed them, so on the
process and cluster backends the spans are the coordinator's.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

#: (module, attribute or Class.attribute, layer). The span name is the
#: attribute path. ``FileResultSink.flush`` lives in core but is the
#: runner's fsync, so it is booked to the runner.
TARGETS = (
    ("repro.graph.kcore", "k_core", "graph"),
    ("repro.graph.kcore", "peel_adjacency", "graph"),
    ("repro.graph.subgraph", "spawn_subgraph", "graph"),
    ("repro.graph.subgraph", "candidate_extension", "graph"),
    ("repro.core.domain", "TaskDomain.from_graph", "core"),
    ("repro.core.domain", "TaskDomain.from_access", "core"),
    ("repro.core.domain", "TaskDomain.from_adjacency", "core"),
    ("repro.core.domain", "TaskDomain.restrict", "core"),
    ("repro.core.iterative_bounding", "iterative_bounding_masked", "core"),
    ("repro.core.postprocess", "postprocess_results", "core"),
    ("repro.gthinker.app_quasiclique", "QuasiCliqueApp.spawn", "app"),
    ("repro.gthinker.app_quasiclique", "QuasiCliqueApp.compute", "app"),
    ("repro.gthinker.decompose", "time_delayed_mine_masked", "decompose"),
    ("repro.gthinker.engine", "mine_parallel", "scheduler"),
    ("repro.service.runner", "run_checkpointed", "runner"),
    ("repro.core.resultsio", "FileResultSink.flush", "runner"),
    ("repro.service.store", "ResultStore.index", "store"),
    ("repro.service.store", "ResultStore.communities", "store"),
)

#: Modules that import a target by name; loaded before patching so no
#: later import can bind an unwrapped original.
IMPORTERS = (
    "repro.core.miner", "repro.gthinker.engine_mp", "repro.gthinker.cluster",
    "repro.gthinker.cluster.reactor", "repro.service.jobs", "repro.service.server",
)

KCORE = ("k_core", "peel_adjacency")
DOMAIN_BUILDS = (
    "TaskDomain.from_graph", "TaskDomain.from_access",
    "TaskDomain.from_adjacency", "TaskDomain.restrict",
)


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    job: str | None


class Recorder:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Iteration-3 tasks seen entering ``QuasiCliqueApp.compute``.
        self.tasks: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        #: (job id, root span id) while a job span is open.
        self._job: tuple[str | None, int | None] = (None, None)
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, capture_tasks: bool = False):
        spans, tasks, ids, local, pid = (
            self.spans, self.tasks, self._ids, self._local, self._pid
        )
        getpid, clock = os.getpid, time.perf_counter

        def probe(*args, **kwargs):
            if getpid() != pid:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            job, root = self._job
            sid = next(ids)
            parent = stack[-1] if stack else root
            if capture_tasks and args[1].iteration == 3:
                tasks.append(args[1])
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, name, layer, start, end, job))

        probe.__wrapped__ = fn
        probe.__name__ = getattr(fn, "__name__", name)
        return probe

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Patch every target, or just the ``only`` named ones."""
        for module in IMPORTERS:
            importlib.import_module(module)
        for module_name, path, layer in TARGETS:
            if only is not None and path not in only:
                continue
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                capture = path == "QuasiCliqueApp.compute"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, path, layer))
                else:
                    wrapped = self.wrap(raw, path, layer, capture_tasks=capture)
                setattr(cls, attr, wrapped)
                self._patched.append((cls, attr, raw))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, path, layer)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self, only: tuple[str, ...] | None = None):
        self.install(only)
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def job(self, job_id: str, layer: str):
        """The span that covers one whole job; parent of every span in it."""
        sid = next(self._ids)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self._job = (job_id, sid)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._job = (None, None)
            self.spans.append(Span(sid, None, "job", layer, start, end, job_id))

    # -- folding -------------------------------------------------------------

    def job_spans(self, job_id: str) -> list[Span]:
        return [s for s in self.spans if s.job == job_id]

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")
        return len(self.spans)


class Fold:
    """Span arithmetic over one job's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        #: Self time of each span: its duration minus the part of it
        #: that its child spans cover.
        self._self: list[float] = []
        for s in spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            self._self.append((s.end - s.start) - covered)

    def self_by(self, attr: str) -> dict[str, float]:
        """Self time summed per ``layer`` or per ``name``."""
        out: dict[str, float] = defaultdict(float)
        for s, seconds in zip(self.spans, self._self):
            out[getattr(s, attr)] += seconds
        return dict(out)

    def inclusive(self, *names: str, under: str | None = None) -> tuple[int, float]:
        """(calls, seconds) of the named spans, outermost occurrences only.

        A span nested in another of the same names (``k_core`` inside
        ``spawn_subgraph`` counts under k-core, but a recursive
        ``time_delayed_mine_masked`` does not count twice) is skipped.
        With ``under``, only spans that have an ancestor of that name
        count.
        """
        by_id = self._by_id
        calls, seconds = 0, 0.0
        for s in self.spans:
            if s.name not in names:
                continue
            nested, below = False, under is None
            parent = by_id.get(s.parent)
            while parent is not None:
                if parent.name in names:
                    nested = True
                    break
                if parent.name == under:
                    below = True
                parent = by_id.get(parent.parent)
            if not nested and below:
                calls += 1
                seconds += s.end - s.start
        return calls, seconds
