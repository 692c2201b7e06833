"""Fault-injection hooks for the fault-tolerant process and cluster backends.

Chaos testing the master and the launcher's supervisor
(:mod:`repro.gthinker.cluster.launcher`) needs faults that are (a) *deterministic* — seeded test schedules must replay
— and (b) *picklable/importable* — under the ``spawn`` start method a
worker process re-imports everything it is handed, so the injection
spec and the misbehaving test applications must live in an importable
module, not in a test file.

Three fault flavours cover the failure modes the supervisor handles:

* :class:`FaultInjection` — the engine-level hook: a chosen worker
  SIGKILLs itself mid-run (hard death: queues are not flushed, exactly
  like an OOM-kill or machine loss);
* :class:`KillOnRootApp` — a poison *task*: whichever worker mines the
  poisoned root dies, so retries keep failing until the batch is
  quarantined;
* :class:`WedgeOnRootApp` — a wedged worker: mining the poisoned root
  blocks, so the worker stops heartbeating and is reclaimed after
  ``heartbeat_timeout``;
* :class:`ErrorOnRootApp` — an application bug: ``compute`` raises, the
  worker prints the traceback and exits (the soft-failure path).

Every app here spawns one trivial iteration-3 task per vertex and emits
the singleton ``{v}`` for healthy roots, so expected results are
obvious: all vertices except the poisoned one.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

from ..core.options import MiningStats, ResultSink
from .task import ComputeOutcome, Task

__all__ = [
    "ErrorOnRootApp",
    "FaultInjection",
    "KillOnRootApp",
    "SleepyBigTaskApp",
    "WedgeOnRootApp",
    "die_hard",
]


def die_hard() -> None:
    """Kill the calling process without any cleanup (no queue flush,
    no atexit) — the closest a test can get to an OOM-kill."""
    if hasattr(signal, "SIGKILL"):
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(1)  # Windows fallback; also unclean


@dataclass(frozen=True)
class FaultInjection:
    """Chaos schedule: worker `worker_id` SIGKILLs itself mid-run.

    `worker_id` is a launch slot of the localhost launcher. The slot's
    *first* incarnation dies the moment it receives a work unit after
    having completed `after_batches` of them (``after_batches=0`` → it
    dies holding its very first unit). Respawned incarnations ignore the
    injection, modeling a transient fault — an OOM-kill, a
    preempted container — rather than a permanently broken host. If the
    job is too small for the worker ever to receive a unit, the fault
    simply never fires; chaos tests must hold either way.
    """

    worker_id: int
    after_batches: int = 0

    def for_incarnation(
        self, worker_id: int, generation: int
    ) -> "FaultInjection | None":
        """The injection to arm for one worker incarnation, if any.

        Only the targeted slot's *first* incarnation (generation 0) is
        armed; respawned incarnations must run clean or the supervisor's
        recovery could never converge. The launcher calls this instead
        of re-encoding the gating rule.
        """
        if worker_id == self.worker_id and generation == 0:
            return self
        return None


class _SingletonRootApp:
    """Shared base: one finished task per vertex, emitting ``{root}``."""

    def __init__(self, poison_root: int):
        self.poison_root = poison_root
        self.sink = ResultSink()
        self.stats = MiningStats()

    def spawn(self, vertex, adjacency, task_id):
        return Task(task_id=task_id, root=vertex, iteration=3, s=[vertex], ext=[])

    def compute(self, task, frontier, ctx):
        if task.root == self.poison_root:
            self._trip(task)
        self.sink.emit([task.root])
        self.stats.candidates_emitted += 1
        return ComputeOutcome(finished=True, cost_ops=1)

    def _trip(self, task):  # pragma: no cover - overridden
        raise NotImplementedError


class KillOnRootApp(_SingletonRootApp):
    """SIGKILLs its worker when it mines `poison_root` — every time, so
    the poisoned batch fails all the way to quarantine."""

    def _trip(self, task):
        die_hard()


class WedgeOnRootApp(_SingletonRootApp):
    """Blocks on `poison_root` far past any heartbeat timeout.

    The sleep stands in for a runaway task; the master must declare the
    silent worker dead, and the launcher terminate and replace it.
    """

    def __init__(self, poison_root: int, wedge_seconds: float = 60.0):
        super().__init__(poison_root)
        self.wedge_seconds = wedge_seconds

    def _trip(self, task):
        import time

        time.sleep(self.wedge_seconds)


class ErrorOnRootApp(_SingletonRootApp):
    """Raises on `poison_root`: the worker prints the traceback and
    exits — the application-bug flavour of a poisoned task."""

    def _trip(self, task):
        raise ValueError(f"injected fault mining root {task.root}")


class SleepyBigTaskApp:
    """Uniform slow tasks that are all *big*: stealing's donor pool.

    Every spawned task carries a non-empty ``ext``, so with
    ``tau_split=0`` each one routes to Q_global, and every compute
    sleeps `sleep_seconds` of real wall time. Funnel the whole spawn
    range to one worker (every vertex in one partition, and
    ``cluster_chunk_size`` ≥ |V|) and its
    heartbeats show a mountain of pending big tasks while its peers
    report zero — exactly the asymmetry the master's stealing planner
    exists to flatten. Used by the steal-observability tests; results
    stay trivially checkable (the singleton ``{v}`` per vertex).
    """

    def __init__(self, sleep_seconds: float = 0.01):
        self.sleep_seconds = sleep_seconds
        self.sink = ResultSink()
        self.stats = MiningStats()

    def spawn(self, vertex, adjacency, task_id):
        return Task(
            task_id=task_id, root=vertex, iteration=3, s=[vertex], ext=[vertex]
        )

    def compute(self, task, frontier, ctx):
        import time

        time.sleep(self.sleep_seconds)
        self.sink.emit([task.root])
        self.stats.candidates_emitted += 1
        return ComputeOutcome(finished=True, cost_ops=1)
