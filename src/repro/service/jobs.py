"""The durable job registry: admission, execution, crash recovery.

A *job* is one mining run — graph source, γ, τ_size, and an engine
config — owned end-to-end by the daemon. Each job gets a working
directory ``<root>/jobs/<id>/`` holding everything the daemon knows
about it:

* ``job.json``        the job document (spec, state, timestamps,
                      error), rewritten atomically on every state
                      transition;
* ``candidates.txt``  streamed candidates (the runner's checkpoint);
* ``roots.journal``   completed spawn roots (the runner's checkpoint);
* ``result.txt``      final maximal communities (written atomically on
                      completion — the :class:`~repro.service.store.
                      ResultStore` serves queries from this file);
* ``metrics.json``    the run's merged :class:`EngineMetrics`.

Lifecycle: ``pending → running → completed | failed | cancelled``.
Admission is FIFO under a bounded running-job limit (``max_running``
worker threads drain one shared queue). Cancellation is cooperative:
a pending job cancels immediately, a running one at its next
checkpoint boundary.

Crash recovery: the daemon can die at any instant (``kill -9``). On
restart :meth:`JobManager.recover` scans the job directories; jobs
found ``pending`` or ``running`` are re-queued in ID (= submission)
order and resume from their checkpoint via the runner — completed
roots are never re-mined.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.quasiclique import check_params
from ..core.resultsio import write_results, write_text_atomic
from ..datasets.registry import build_dataset, dataset_names
from ..graph.adjacency import Graph
from ..graph.io import read_edge_list
from ..gthinker.config import EngineConfig, check_topology
from ..gthinker.metrics import EngineMetrics
from ..gthinker.obs.progress import ProgressSnapshot, progress_json
from .runner import DEFAULT_CHUNK_ROOTS, run_checkpointed

PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (PENDING, RUNNING, COMPLETED, FAILED, CANCELLED)
TERMINAL = (COMPLETED, FAILED, CANCELLED)


class ServiceError(RuntimeError):
    """Service-level failure with an HTTP status code attached."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class JobSpec:
    """A validated submit payload.

    Exactly one graph source: ``dataset`` (a built-in synthetic analog
    name), ``graph_path`` (a server-side edge-list file), or ``edges``
    (an inline edge list, optionally with an explicit ``vertices``
    list so isolated vertices exist). ``engine`` carries
    :class:`EngineConfig` fields verbatim — backend, num_procs,
    tau_split, …  — so a job can target any executor; ``spill_dir``
    is the one field it may not carry.
    """

    gamma: float
    min_size: int
    dataset: str | None = None
    graph_path: str | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    vertices: tuple[int, ...] | None = None
    engine: dict = field(default_factory=dict)
    chunk_roots: int | None = None
    label: str = ""

    _KEYS = (
        "gamma", "min_size", "dataset", "graph_path", "edges", "vertices",
        "engine", "chunk_roots", "label",
    )

    @classmethod
    def parse(cls, payload: Any) -> "JobSpec":
        """Validate a JSON submit body; raises ServiceError(400) on junk."""
        if not isinstance(payload, dict):
            raise ServiceError(400, "submit body must be a JSON object")
        unknown = sorted(set(payload) - set(cls._KEYS))
        if unknown:
            raise ServiceError(400, f"unknown job fields: {', '.join(unknown)}")
        for req in ("gamma", "min_size"):
            if req not in payload:
                raise ServiceError(400, f"missing required field {req!r}")
        try:
            gamma = float(payload["gamma"])
            min_size = int(payload["min_size"])
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"bad gamma/min_size: {exc}") from exc
        try:
            check_params(gamma, min_size)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from exc

        sources = [k for k in ("dataset", "graph_path", "edges") if payload.get(k) is not None]
        if len(sources) != 1:
            raise ServiceError(
                400, "exactly one graph source required: dataset | graph_path | edges"
            )
        dataset = payload.get("dataset")
        if dataset is not None and dataset not in dataset_names():
            raise ServiceError(
                400, f"unknown dataset {dataset!r}; known: {', '.join(dataset_names())}"
            )
        edges = payload.get("edges")
        if edges is not None:
            try:
                edges = tuple((int(u), int(v)) for u, v in edges)
            except (TypeError, ValueError) as exc:
                raise ServiceError(
                    400, f"edges must be a list of [u, v] integer pairs: {exc}"
                ) from exc
        vertices = payload.get("vertices")
        if vertices is not None:
            if edges is None:
                raise ServiceError(400, "vertices is only valid with inline edges")
            try:
                vertices = tuple(int(v) for v in vertices)
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, f"bad vertices list: {exc}") from exc

        engine = payload.get("engine") or {}
        try:
            # Reject bad knobs at admission, not inside the job's thread.
            if "spill_dir" in engine:  # no client picks paths on the daemon's host
                raise ValueError("spill_dir is not accepted from a client")
            check_topology(EngineConfig.from_payload(engine))
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"bad engine config: {exc}") from exc

        chunk_roots = payload.get("chunk_roots")
        if chunk_roots is not None and (
            not isinstance(chunk_roots, int) or isinstance(chunk_roots, bool)
            or chunk_roots < 1
        ):
            raise ServiceError(
                400, f"chunk_roots must be an integer >= 1, got {chunk_roots!r}"
            )

        return cls(
            gamma=gamma,
            min_size=min_size,
            dataset=dataset,
            graph_path=payload.get("graph_path"),
            edges=edges,
            vertices=vertices,
            engine=dict(engine),
            chunk_roots=chunk_roots,
            label=str(payload.get("label") or ""),
        )

    def to_payload(self) -> dict:
        """The JSON-shaped spec persisted in job.json (round-trips parse)."""
        out: dict[str, Any] = {"gamma": self.gamma, "min_size": self.min_size}
        if self.dataset is not None:
            out["dataset"] = self.dataset
        if self.graph_path is not None:
            out["graph_path"] = self.graph_path
        if self.edges is not None:
            out["edges"] = [list(e) for e in self.edges]
        if self.vertices is not None:
            out["vertices"] = list(self.vertices)
        if self.engine:
            out["engine"] = self.engine
        if self.chunk_roots is not None:
            out["chunk_roots"] = self.chunk_roots
        if self.label:
            out["label"] = self.label
        return out

    def build_graph(self) -> Graph:
        """Materialize the graph (raises ServiceError 400 on a bad path)."""
        if self.dataset is not None:
            return build_dataset(self.dataset).graph
        if self.graph_path is not None:
            if not os.path.isfile(self.graph_path):
                raise ServiceError(400, f"graph file not found: {self.graph_path}")
            return read_edge_list(self.graph_path)
        assert self.edges is not None
        return Graph.from_edges(self.edges, vertices=self.vertices)

    def build_config(self) -> EngineConfig:
        return EngineConfig.from_payload(self.engine)


@dataclass
class Job:
    """In-memory mirror of one job (the durable copy is job.json)."""

    job_id: str
    spec: JobSpec
    work_dir: str
    state: str = PENDING
    error: str | None = None
    submitted: float = 0.0
    started: float | None = None
    finished: float | None = None
    resumed: bool = False
    results: int | None = None
    roots_total: int | None = None
    roots_done: int = 0
    progress: ProgressSnapshot | None = None
    cancel_event: threading.Event = field(default_factory=threading.Event)

    @property
    def result_path(self) -> str:
        return os.path.join(self.work_dir, "result.txt")

    @property
    def metrics_path(self) -> str:
        return os.path.join(self.work_dir, "metrics.json")


class JobManager:
    """Durable FIFO job registry with a bounded running-job limit."""

    def __init__(
        self,
        root_dir: str,
        *,
        max_running: int = 2,
        chunk_roots: int = DEFAULT_CHUNK_ROOTS,
    ):
        if max_running < 1:
            raise ValueError("max_running must be >= 1")
        self.root_dir = root_dir
        self.jobs_dir = os.path.join(root_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.max_running = max_running
        self.chunk_roots = chunk_roots
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._queue: queue.Queue[str] = queue.Queue()
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._next_id = 1
        #: Engine metrics aggregated over jobs completed by this daemon
        #: process (per-job metrics live in each job dir). TaskRecords
        #: are dropped from the aggregate to keep /metricsz bounded.
        self._metrics = EngineMetrics()

    # -- lifecycle ---------------------------------------------------------

    def recover(self) -> list[str]:
        """Load job.json files; re-queue interrupted jobs. Returns their IDs."""
        requeued: list[str] = []
        with self._lock:
            for name in sorted(os.listdir(self.jobs_dir)):
                path = os.path.join(self.jobs_dir, name, "job.json")
                if not os.path.isfile(path):
                    continue
                try:
                    with open(path) as f:
                        doc = json.load(f)
                    job = self._job_from_doc(doc, os.path.join(self.jobs_dir, name))
                except (ValueError, KeyError, ServiceError):
                    continue  # unreadable doc: leave the dir for forensics
                self._jobs[job.job_id] = job
                num = _id_number(job.job_id)
                if num is not None:
                    self._next_id = max(self._next_id, num + 1)
                if job.state in (PENDING, RUNNING):
                    # Interrupted by a crash (or never started): resume
                    # from the checkpoint, counting prior progress.
                    job.resumed = job.state == RUNNING or job.roots_done > 0
                    job.state = PENDING
                    self._persist(job)
                    self._queue.put(job.job_id)
                    requeued.append(job.job_id)
        return requeued

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._workers:
                return
            for i in range(self.max_running):
                t = threading.Thread(
                    target=self._worker_loop, name=f"job-worker-{i}", daemon=True
                )
                t.start()
                self._workers.append(t)

    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop the workers; running jobs stop at their next checkpoint."""
        self._stop.set()
        if wait:
            for t in self._workers:
                t.join(timeout=timeout)

    # -- public registry API ----------------------------------------------

    def submit(self, payload: Any) -> dict:
        spec = JobSpec.parse(payload)
        with self._lock:
            job_id = f"job-{self._next_id:06d}"
            self._next_id += 1
            work_dir = os.path.join(self.jobs_dir, job_id)
            os.makedirs(work_dir, exist_ok=True)
            job = Job(
                job_id=job_id, spec=spec, work_dir=work_dir,
                submitted=time.time(),
            )
            self._jobs[job_id] = job
            self._persist(job)
            self._queue.put(job_id)
            return self._doc(job)

    def get(self, job_id: str) -> dict:
        with self._lock:
            return self._doc(self._require(job_id))

    def list(self) -> list[dict]:
        with self._lock:
            return [self._doc(j) for j in sorted(
                self._jobs.values(), key=lambda j: j.job_id
            )]

    def cancel(self, job_id: str) -> dict:
        with self._lock:
            job = self._require(job_id)
            if job.state == PENDING:
                job.state = CANCELLED
                job.finished = time.time()
                self._persist(job)
            elif job.state == RUNNING:
                job.cancel_event.set()
            # Terminal states: cancel is a no-op, return the doc as-is.
            return self._doc(job)

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def merged_metrics(self) -> dict:
        """Aggregate EngineMetrics (JSON-shaped) over completed jobs."""
        with self._lock:
            doc = dataclasses.asdict(self._metrics)
        doc.pop("task_records", None)
        return doc

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.05) -> dict:
        """Block until the job reaches a terminal state (test/CLI helper)."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.get(job_id)
            if doc["state"] in TERMINAL:
                return doc
            if time.monotonic() > deadline:
                raise TimeoutError(f"{job_id} still {doc['state']} after {timeout}s")
            time.sleep(poll)

    # -- worker machinery --------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != PENDING:
                    continue  # cancelled while queued
                if job.cancel_event.is_set():
                    job.state = CANCELLED
                    job.finished = time.time()
                    self._persist(job)
                    continue
                job.state = RUNNING
                job.started = time.time()
                self._persist(job)
            self._execute(job)

    def _execute(self, job: Job) -> None:
        try:
            graph = job.spec.build_graph()
            config = job.spec.build_config()

            def on_progress(snapshot: ProgressSnapshot) -> None:
                with self._lock:
                    job.progress = snapshot
                    job.roots_done = snapshot.tasks_done
                    job.roots_total = (
                        snapshot.tasks_done + snapshot.tasks_pending
                        + snapshot.tasks_leased
                    )

            outcome = run_checkpointed(
                graph, job.spec.gamma, job.spec.min_size, config,
                work_dir=job.work_dir,
                chunk_roots=job.spec.chunk_roots or self.chunk_roots,
                should_stop=lambda: (
                    job.cancel_event.is_set() or self._stop.is_set()
                ),
                on_progress=on_progress,
            )
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            with self._lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
                self._persist(job)
            return

        with self._lock:
            job.roots_done = outcome.roots_done
            job.roots_total = outcome.roots_total
            job.resumed = job.resumed or outcome.roots_recovered > 0
            if outcome.completed:
                write_results(
                    outcome.maximal, job.result_path,
                    header=(
                        f"{job.job_id} gamma={job.spec.gamma} "
                        f"min_size={job.spec.min_size}"
                    ),
                )
                write_text_atomic(
                    job.metrics_path,
                    json.dumps(_metrics_doc(outcome.metrics), indent=2, sort_keys=True) + "\n",
                )
                outcome.metrics.task_records.clear()
                self._metrics.merge(outcome.metrics)
                # merge() treats these as per-run gauges; the daemon
                # aggregate sums them across jobs.
                self._metrics.results += outcome.metrics.results
                self._metrics.wall_seconds += outcome.metrics.wall_seconds
                job.state = COMPLETED
                job.results = len(outcome.maximal)
                job.finished = time.time()
            elif job.cancel_event.is_set():
                job.state = CANCELLED
                job.finished = time.time()
            else:
                # Daemon shutdown mid-job: leave the durable state as
                # "running" so the next recover() resumes it.
                job.state = RUNNING
            self._persist(job)

    # -- documents and persistence ----------------------------------------

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(404, f"no such job: {job_id}")
        return job

    def _doc(self, job: Job) -> dict:
        return {
            "id": job.job_id,
            "state": job.state,
            "label": job.spec.label,
            "spec": job.spec.to_payload(),
            "submitted": job.submitted,
            "started": job.started,
            "finished": job.finished,
            "error": job.error,
            "resumed": job.resumed,
            "cancel_requested": job.cancel_event.is_set(),
            "roots_total": job.roots_total,
            "roots_done": job.roots_done,
            "results": job.results,
            "progress": progress_json(job.progress) if job.progress else None,
        }

    def _persist(self, job: Job) -> None:
        doc = self._doc(job)
        doc.pop("progress", None)  # live-only; reconstructed from the journal
        doc.pop("cancel_requested", None)
        write_text_atomic(
            os.path.join(job.work_dir, "job.json"),
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    def _job_from_doc(self, doc: dict, work_dir: str) -> Job:
        spec = JobSpec.parse(doc["spec"])
        state = doc.get("state", PENDING)
        if state not in STATES:
            raise ValueError(f"bad state {state!r}")
        return Job(
            job_id=str(doc["id"]),
            spec=spec,
            work_dir=work_dir,
            state=state,
            error=doc.get("error"),
            submitted=float(doc.get("submitted") or 0.0),
            started=doc.get("started"),
            finished=doc.get("finished"),
            resumed=bool(doc.get("resumed", False)),
            results=doc.get("results"),
            roots_total=doc.get("roots_total"),
            roots_done=int(doc.get("roots_done") or 0),
        )


def _id_number(job_id: str) -> int | None:
    if job_id.startswith("job-"):
        try:
            return int(job_id[4:])
        except ValueError:
            return None
    return None


def _metrics_doc(metrics: EngineMetrics) -> dict:
    doc = dataclasses.asdict(metrics)
    # TaskRecords are per-task tuples useful for figures, not ops; the
    # service keeps job metrics summary-sized.
    doc.pop("task_records", None)
    return doc
