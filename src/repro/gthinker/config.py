"""Engine configuration (the paper's hyperparameters plus system knobs)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


#: The executors a config can select (``EngineConfig.backend``).
BACKENDS = ("serial", "process", "cluster")


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
      default, and mandatory above one machine × one thread).
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
    #: Serial backend only: virtual cost added per remote message.
    sim_message_cost: float = 0.0
    #: Vertex-table partition strategy: 'hash' (paper), 'range', or
    #: 'balanced_degree' (see repro.gthinker.partition).
    partition: str = "hash"
    #: Executor selection for dispatching front-ends (mine_parallel, the
    #: CLI, the service): 'serial' runs M × T in the calling thread on
    #: virtual time (engine); 'cluster' runs the TCP master/worker
    #: runtime (repro.gthinker.cluster) on localhost; 'process' runs the
    #: same runtime with warm-start workers that hold the whole graph.
    backend: str = "serial"
    #: Process/cluster-backend worker count; 0 means os.cpu_count().
    num_procs: int = 0
    #: Process/cluster fault tolerance: how many times a work unit may
    #: be dispatched before it is quarantined as poisoned.
    max_attempts: int = 3
    #: Base (seconds) of the exponential backoff between dispatch
    #: attempts of a reclaimed work unit.
    retry_backoff: float = 0.05
    #: Leases kept in flight per worker on the distributed backends
    #: (pipelining without hoarding: a dead worker forfeits at most this
    #: many leases' worth of work).
    lease_window: int = 2
    #: Process/cluster backends: how often a worker reports liveness
    #: and its pending-big count to the master (the stealing planner's
    #: input).
    heartbeat_period: float = 0.25
    #: Process/cluster backends: a worker whose last heartbeat is older
    #: than this is declared dead and its leased work is reclaimed
    #: (socket EOF is the fast path; this catches wedged-but-connected
    #: workers, including one stuck in compute, since a worker's driver
    #: is single-threaded).
    heartbeat_timeout: float = 10.0
    #: Process/cluster backends: spawn vertices per SpawnRange work
    #: unit; 0 sizes chunks automatically (~8 units per worker) so
    #: dead-worker reassignment has useful granularity.
    cluster_chunk_size: int = 0

    def __post_init__(self) -> None:
        if self.num_machines < 1 or self.threads_per_machine < 1:
            raise ValueError("need at least one machine and one thread")
        if self.backend not in BACKENDS:
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

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-dispatching a unit that failed `attempt` times.

        Exponential: ``retry_backoff × 2^(attempt−1)`` seconds, so the
        sequence for the default base is 0.05, 0.1, 0.2, … (delegates to
        the work ledger's :func:`~repro.gthinker.runtime.ledger.backoff_delay`).
        """
        from .runtime.ledger import backoff_delay

        return backoff_delay(self.retry_backoff, attempt)


def check_topology(config: EngineConfig) -> None:
    """Raise ValueError if `config` asks for a topology its backend cannot run.

    The one place the rules live: the CLI, :func:`mine_parallel`, the
    localhost launcher and the service's job admission all call it.

    * Only the serial backend schedules onto M machines × T threads (on
      virtual time); each process or cluster worker runs one local
      scheduler, and those backends scale with ``num_procs``.
    * Above 1 × 1 a task's cost is its virtual duration, so
      ``time_unit='wall'`` is legal at 1 × 1 only: decomposition points
      must be deterministic operation counts.
    """
    if config.total_threads == 1:
        return
    shape = f"{config.num_machines}x{config.threads_per_machine}"
    if config.backend != "serial":
        raise ValueError(
            f"backend {config.backend!r} runs one machine x one thread, not "
            f"{shape} (process and cluster workers scale with num_procs); "
            f"for an M x T topology use backend 'serial'"
        )
    if config.time_unit != "ops":
        raise ValueError(
            f"an M x T topology ({shape}) runs on virtual time and needs "
            f"time_unit='ops' (deterministic task costs and decomposition "
            f"points); time_unit='wall' (--wall-clock) runs at 1x1 only"
        )
