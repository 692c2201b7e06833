"""The reforged G-thinker runtime and the quasi-clique application."""

from .app_protocol import ComputeContext, GThinkerApp, ensure_app, gthinker_app, registered_apps
from .app_quasiclique import QuasiCliqueApp
from .chaos import FaultInjection
from .clock import AlwaysExpired, NeverExpires, OpBudget, WallClockBudget, make_budget
from .cluster import ClusterMaster, ClusterWorker, run_cluster_app
from .config import EngineConfig
from .engine import GThinkerEngine, MiningRunResult, mine_parallel, quasiclique_job
from .scheduler import (
    MachineState,
    QuantumResult,
    SchedulerCore,
    ThreadSlot,
    build_machines,
)
from .metrics import EngineMetrics, TaskRecord
from .spill import SpillableQueue, SpillFileList
from .stealing import StealMove, plan_steals
from .partition import Partitioner, make_partitioner
from .task import ComputeOutcome, Task
from .tracing import NullTracer, TraceEvent, Tracer
from .vertex_store import (
    LocalVertexTable,
    RemoteGraphAccess,
    RemoteVertexCache,
    owner_of,
)

__all__ = [
    "AlwaysExpired",
    "ComputeContext",
    "ComputeOutcome",
    "GThinkerApp",
    "MachineState",
    "QuantumResult",
    "SchedulerCore",
    "ThreadSlot",
    "build_machines",
    "ensure_app",
    "gthinker_app",
    "registered_apps",
    "ClusterMaster",
    "ClusterWorker",
    "run_cluster_app",
    "EngineConfig",
    "EngineMetrics",
    "FaultInjection",
    "GThinkerEngine",
    "LocalVertexTable",
    "MiningRunResult",
    "NeverExpires",
    "OpBudget",
    "QuasiCliqueApp",
    "RemoteGraphAccess",
    "RemoteVertexCache",
    "SpillFileList",
    "SpillableQueue",
    "StealMove",
    "Task",
    "Partitioner",
    "make_partitioner",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "TaskRecord",
    "WallClockBudget",
    "make_budget",
    "mine_parallel",
    "quasiclique_job",
    "owner_of",
    "plan_steals",
]
