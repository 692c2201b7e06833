"""Engine configuration (the paper's hyperparameters plus system knobs)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one G-thinker job.

    The two hyperparameters the paper sweeps (Tables 3–4):

    * ``tau_split`` — |ext(S)| threshold routing a task to the machine's
      global big-task queue instead of a thread's local queue; in
      size-threshold decomposition mode it is also the split trigger.
    * ``tau_time``  — the time-delayed decomposition budget per task
      execution. Interpreted in seconds when ``time_unit='wall'`` or in
      abstract mining operations when ``time_unit='ops'`` (deterministic;
      default, and mandatory for the simulated cluster).
    """

    num_machines: int = 1
    threads_per_machine: int = 1
    tau_split: int = 64
    tau_time: float = float("inf")
    time_unit: str = "ops"
    #: 'timed' (Alg. 10), 'size' (Alg. 8), or 'none' (never decompose).
    decompose: str = "timed"
    queue_capacity: int = 512
    batch_size: int = 16
    cache_capacity: int = 1 << 16
    spill_dir: str | None = None
    steal_period_seconds: float = 0.02
    #: Reforge ablation: the global big-task queue. (Big-task stealing
    #: is always on when there are two or more machines.)
    use_global_queue: bool = True
    #: Simulated-cluster only: virtual cost added per remote message.
    sim_message_cost: float = 0.0
    #: Vertex-table partition strategy: 'hash' (paper), 'range', or
    #: 'balanced_degree' (see repro.gthinker.partition).
    partition: str = "hash"
    #: Executor selection for dispatching front-ends (mine_parallel, the
    #: CLI): 'auto' keeps the historical rule (serial fast path at 1×1,
    #: threaded otherwise); 'serial'/'threaded' force one driver;
    #: 'process' runs workers in a multiprocessing pool (engine_mp);
    #: 'cluster' runs the TCP master/worker runtime (repro.gthinker.
    #: cluster) on localhost; 'simulated' marks a config for the
    #: virtual-time cluster.
    backend: str = "auto"
    #: Process/cluster-backend worker count; 0 means os.cpu_count().
    num_procs: int = 0
    #: Process-backend fault tolerance: how many times a task may be
    #: dispatched before its batch is quarantined as poisoned.
    max_attempts: int = 3
    #: Wall-clock slack (seconds) added to a batch lease on top of its
    #: tau_time-derived budget; past the deadline the worker is treated
    #: as wedged and its leases are reclaimed.
    lease_slack: float = 10.0
    #: Base (seconds) of the exponential backoff between dispatch
    #: attempts of a reclaimed task.
    retry_backoff: float = 0.05
    #: Leases kept in flight per worker on the distributed backends
    #: (pipelining without hoarding: a dead worker forfeits at most this
    #: many leases' worth of work).
    lease_window: int = 2
    #: Cluster backend: how often a worker reports liveness and its
    #: pending-big count to the master (the stealing planner's input).
    heartbeat_period: float = 0.25
    #: Cluster backend: a worker whose last heartbeat is older than this
    #: is declared dead and its leased work is reclaimed (socket EOF is
    #: the fast path; this is the backup for wedged-but-connected
    #: workers).
    heartbeat_timeout: float = 10.0
    #: Cluster backend: spawn vertices per SpawnRange work unit; 0 sizes
    #: chunks automatically (~8 units per worker) so dead-worker
    #: reassignment has useful granularity.
    cluster_chunk_size: int = 0
    #: Seconds between live-progress snapshots emitted by the process-pool
    #: parent and the cluster master (`progress` trace event + on_progress
    #: callback). 0 = automatic: 1s whenever a callback or tracer is
    #: attached, otherwise off.
    progress_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.num_machines < 1 or self.threads_per_machine < 1:
            raise ValueError("need at least one machine and one thread")
        if self.backend not in (
            "auto", "serial", "threaded", "process", "cluster", "simulated"
        ):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.num_procs < 0:
            raise ValueError("num_procs must be >= 0 (0 = cpu count)")
        if self.decompose not in ("timed", "size", "none"):
            raise ValueError(f"unknown decompose mode {self.decompose!r}")
        if self.time_unit not in ("wall", "ops"):
            raise ValueError(f"unknown time_unit {self.time_unit!r}")
        if self.batch_size < 1 or self.queue_capacity < self.batch_size:
            raise ValueError("need queue_capacity >= batch_size >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.tau_split < 0:
            raise ValueError("tau_split must be non-negative")
        if self.partition not in ("hash", "range", "balanced_degree"):
            raise ValueError(f"unknown partition strategy {self.partition!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.lease_slack < 0:
            raise ValueError("lease_slack must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.lease_window < 1:
            raise ValueError("lease_window must be >= 1")
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if self.heartbeat_timeout <= self.heartbeat_period:
            raise ValueError("heartbeat_timeout must exceed heartbeat_period")
        if self.cluster_chunk_size < 0:
            raise ValueError("cluster_chunk_size must be >= 0 (0 = auto)")
        if self.progress_interval < 0:
            raise ValueError("progress_interval must be >= 0 (0 = auto)")

    @classmethod
    def from_payload(cls, payload: dict) -> "EngineConfig":
        """Build a config from a JSON-shaped dict (the service submit body).

        Unknown keys are rejected (a typoed knob must not silently run
        with defaults), and ``"inf"`` is accepted for ``tau_time`` since
        JSON has no infinity literal. Field validation then runs in
        ``__post_init__`` as usual.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - names)
        if unknown:
            raise ValueError(f"unknown engine config keys: {', '.join(unknown)}")
        kwargs = dict(payload)
        if isinstance(kwargs.get("tau_time"), str):
            kwargs["tau_time"] = float(kwargs["tau_time"])
        return cls(**kwargs)

    @property
    def total_threads(self) -> int:
        return self.num_machines * self.threads_per_machine

    @property
    def resolved_num_procs(self) -> int:
        """Process-backend worker count with the 0 = cpu-count default."""
        if self.num_procs:
            return self.num_procs
        import os

        return os.cpu_count() or 1

    # -- fault-tolerance arithmetic (process backend) ----------------------

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-dispatching a task that failed `attempt` times.

        Exponential: ``retry_backoff × 2^(attempt−1)`` seconds, so the
        sequence for the default base is 0.05, 0.1, 0.2, … (delegates to
        the control plane's :func:`~repro.gthinker.runtime.backoff_delay`).
        """
        from .runtime.retry import backoff_delay

        return backoff_delay(self.retry_backoff, attempt)

    def lease_timeout(self, batch_len: int) -> float:
        """Wall-clock lease granted to a dispatched batch of `batch_len` tasks.

        Time-delayed decomposition (Alg. 10) promises no task legitimately
        runs past its tau_time budget, so when tau_time is a wall-clock
        bound the lease is one budget per task plus `lease_slack` for
        shipping and scheduling; with an ops-based or unbounded tau_time
        only the slack applies.
        """
        per_task = (
            self.tau_time
            if self.time_unit == "wall" and self.tau_time != float("inf")
            else 0.0
        )
        return per_task * batch_len + self.lease_slack
