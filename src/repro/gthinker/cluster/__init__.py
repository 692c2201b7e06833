"""Distributed runtime: TCP master/worker engine of two backends.

The real-network counterpart of the serial executor's M × T loop
(:mod:`repro.gthinker.engine`): a master process owns the work
ledger and the big-task stealing plan, workers own local schedulers
built from the same :class:`~repro.gthinker.scheduler.SchedulerCore`
as every other executor, and everything in between is a small framed
pickle protocol over TCP (:mod:`.protocol`).

``EngineConfig(backend='cluster')`` runs it on localhost with cold
workers that receive a partition and fetch the rest;
``backend='process'`` runs it with warm-start workers that hold the
whole graph. :func:`repro.gthinker.engine.mine_parallel` reaches both
through :func:`run_cluster_app`, which supervises the worker
processes; the ``repro cluster-master`` / ``repro cluster-worker`` CLI
entry points run the same master and workers across hosts.
"""

from .launcher import run_cluster_app
from .master import ClusterMaster
from .protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    VERSION,
    MessageStream,
    ProtocolError,
    encode_frame,
)
from .worker import ClusterWorker

__all__ = [
    "ClusterMaster",
    "ClusterWorker",
    "MessageStream",
    "ProtocolError",
    "MESSAGE_TYPES",
    "MAX_FRAME_BYTES",
    "VERSION",
    "encode_frame",
    "run_cluster_app",
]
