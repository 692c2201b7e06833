"""The formal G-thinker application protocol (paper Section 5 UDFs).

The engines are generic over an *application* — exactly the programming
model of the original G-thinker (Yan et al.): a small object exposing
two UDFs plus two result/accounting attributes:

* ``spawn(vertex, adjacency, task_id)`` — create (or decline) the task
  seeded at one vertex of the local vertex table;
* ``compute(task, frontier, ctx)`` — run one iteration of a task given
  the adjacency lists it pulled last round;
* ``sink``  — a :class:`~repro.core.options.ResultSink` the executor
  collects at job end;
* ``stats`` — a :class:`~repro.core.options.MiningStats` merged into
  the run's :class:`~repro.gthinker.metrics.EngineMetrics`.

Every executor (the serial one at any M × T, and each process or
cluster worker) schedules apps through the same
:mod:`repro.gthinker.scheduler` core, so an app written against this
protocol runs on all of them unchanged.

Apps *declare* conformance with the :func:`gthinker_app` class
decorator, which checks the UDF surface at import time and registers
the class so the test suite can sweep every declared application.
Executors validate instances with :func:`ensure_app` at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, TypeVar, runtime_checkable

from ..core.options import MiningStats, ResultSink
from .config import EngineConfig
from .metrics import TaskRecord
from .task import ComputeOutcome, Task


@dataclass
class ComputeContext:
    """Per-execution services the scheduler hands to ``compute()``."""

    config: EngineConfig
    next_task_id: Callable[[], int]
    record: Callable[[TaskRecord], None] | None = None


@runtime_checkable
class GThinkerApp(Protocol):
    """Structural type of a G-thinker application."""

    sink: ResultSink
    stats: MiningStats

    def spawn(self, vertex: int, adjacency: list[int], task_id: int) -> Task | None:
        """Seed (or decline: ``None``) the task rooted at ``vertex``."""
        ...

    def compute(
        self, task: Task, frontier: dict[int, list[int]], ctx: ComputeContext
    ) -> ComputeOutcome:
        """Run one iteration; ``frontier`` maps pulled IDs to adjacency."""
        ...


#: Required instance surface, used by both the decorator and ensure_app.
_UDFS = ("spawn", "compute")
_ATTRS = ("sink", "stats")

_REGISTERED_APPS: list[type] = []

T = TypeVar("T", bound=type)


def gthinker_app(cls: T) -> T:
    """Class decorator: declare that ``cls`` implements :class:`GThinkerApp`.

    The two UDFs are checked at import time; ``sink`` / ``stats`` are
    usually per-instance (dataclass fields), so they are validated on
    instances by :func:`ensure_app` when an executor is built.
    """
    for name in _UDFS:
        if not callable(getattr(cls, name, None)):
            raise TypeError(
                f"{cls.__name__} declares GThinkerApp but does not "
                f"implement {name}()"
            )
    _REGISTERED_APPS.append(cls)
    return cls


def registered_apps() -> tuple[type, ...]:
    """All classes that declared the protocol via :func:`gthinker_app`."""
    return tuple(_REGISTERED_APPS)


def ensure_app(app: object) -> GThinkerApp:
    """Validate an app instance against the protocol; returns it typed."""
    missing = [
        name for name in (*_UDFS, *_ATTRS) if not hasattr(app, name)
    ]
    if missing:
        raise TypeError(
            f"{type(app).__name__} does not implement the GThinkerApp "
            f"protocol (missing: {', '.join(missing)})"
        )
    return app  # type: ignore[return-value]
