"""The task abstraction ⟨S, ext(S)⟩ plus its subgraph (paper Section 5).

A G-thinker task carries the state of one unit of mining work. Tasks
spawned from a vertex walk three iterations (paper Algorithms 4–7):

1. pull the root's larger-ID neighbors, start building the subgraph;
2. pull the 2-hop frontier, finish the k-core ego subgraph;
3. mine — possibly decomposing into iteration-3 subtasks that carry a
   materialized subgraph of their own.

Tasks must survive disk spilling and (in the real system) network
shipping for work stealing, so they are plain picklable records.

Iteration-3 mining tasks carry their subgraph as a compact bitmask
:class:`~repro.core.domain.TaskDomain`: two tuples of ints (the
local→global ID table once per task, plus one adjacency mask per
vertex), which pickles far smaller than a ``Graph`` — the blobs shipped
by the spill files and the cluster wire protocol shrink accordingly. The ``graph`` field remains for apps that need mutable
adjacency (the maximum-clique app).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from ..core.domain import TaskDomain
from ..graph.adjacency import Graph


@dataclass
class Task:
    """One unit of mining work flowing through the engine."""

    task_id: int
    root: int
    iteration: int = 1
    s: list[int] = field(default_factory=list)
    ext: list[int] = field(default_factory=list)
    #: Materialized subgraph for iteration-3 tasks; during iterations
    #: 1–2 `building` holds the half-built adjacency (may reference
    #: destination-only vertices — see kcore.peel_adjacency).
    graph: Graph | None = None
    #: Compact bitmask subgraph for iteration-3 tasks on the bitset
    #: mining path (exactly one of `graph`/`domain` is set post-build).
    domain: TaskDomain | None = None
    building: dict[int, set[int]] | None = None
    pulls: list[int] = field(default_factory=list)  # pending vertex requests
    #: Decomposition depth: 0 for spawned roots, +1 per split generation.
    generation: int = 0

    def is_big(self, tau_split: int) -> bool:
        """Queue routing rule: |ext(S)| > τ_split → global big-task queue.

        Pre-mining tasks (iterations 1–2) are sized by the larger of
        their pending pull batch and their half-built subgraph — a task
        about to pull a huge 2-hop frontier is big work in flight and
        must be visible to every thread of the machine.
        """
        if self.iteration < 3:
            scope = max(len(self.pulls), len(self.building or ()))
            return scope > tau_split
        return len(self.ext) > tau_split

    def encode(self) -> bytes:
        """Serialize for disk spill / steal shipping."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def decode(blob: bytes) -> "Task":
        task = pickle.loads(blob)
        if not isinstance(task, Task):
            raise TypeError(f"spill blob decoded to {type(task).__name__}, not Task")
        return task

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.domain is not None:
            size = self.domain.num_vertices
        else:
            size = self.graph.num_vertices if self.graph else 0
        return (
            f"Task(id={self.task_id}, root={self.root}, it={self.iteration}, "
            f"|S|={len(self.s)}, |ext|={len(self.ext)}, |g|={size})"
        )


@dataclass
class ComputeOutcome:
    """Result of one compute() call on a task."""

    finished: bool
    new_tasks: list[Task] = field(default_factory=list)
    #: Abstract work performed by this call — the virtual-clock cost
    #: model of the serial executor's M × T loop (deterministic,
    #: machine-independent).
    cost_ops: int = 0

    @property
    def continues(self) -> bool:
        return not self.finished
