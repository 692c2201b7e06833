"""Cross-executor equivalence: one scheduling policy, three backends.

The serial engine (at 1 x 1 and at M x T on virtual time), the process
backend (warm-start workers) and the TCP cluster backend (cold
workers) all schedule through `repro.gthinker.scheduler.SchedulerCore`.
Whatever graph and (γ, τ_size) Hypothesis draws, all of them must
produce exactly the oracle-checked maximal quasi-clique family — the
property that makes "a scheduling change can never silently apply to
one executor but not the other" testable.
"""

import dataclasses
import itertools
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import launch_mining

from repro.core.miner import mine_maximal_quasicliques
from repro.core.naive import enumerate_maximal_quasicliques
from repro.core.options import MinerOptions
from repro.core.quasiclique import kcore_threshold
from repro.graph.adjacency import Graph
from repro.graph.kcore import k_core
from repro.gthinker.chaos import FaultInjection
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel
from repro.gthinker.tracing import Tracer


@st.composite
def small_graphs(draw, max_vertices: int = 10):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(
        [p for p, keep in zip(pairs, mask) if keep], vertices=range(n)
    )


def policy_config(**kwargs) -> EngineConfig:
    """A config that exercises every policy piece: big-task routing,
    decomposition, small queues (spill refill), and ready buffers."""
    base = dict(
        decompose="timed", tau_time=10, time_unit="ops", tau_split=3,
        queue_capacity=4, batch_size=2,
    )
    base.update(kwargs)
    return EngineConfig(**base)


@given(
    graph=small_graphs(),
    gamma=st.sampled_from([0.5, 2 / 3, 0.75, 0.9, 1.0]),
    min_size=st.integers(min_value=1, max_value=4),
    kcore_preprocess=st.booleans(),
    machines=st.integers(min_value=1, max_value=3),
    threads=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_only_roots_that_can_reach_mining_spawn(
    graph, gamma, min_size, kcore_preprocess, machines, threads
):
    """Every backend mines the Theorem 2 core (the input itself with the
    peel off) and spawns exactly its roots with at least k larger-ID
    neighbours — the only roots iteration 1 does not peel.

    The topology moves only the schedule, never the search tree: under
    op budgets the serial engine at a drawn M x T executes the same
    tasks and counts the same MiningStats, field for field, as at 1 x 1.
    """
    options = MinerOptions(kcore_preprocess=kcore_preprocess)
    k = kcore_threshold(gamma, min_size)
    base = k_core(graph, k) if kcore_preprocess else graph
    roots = sum(
        1 for v in base.vertices()
        if sum(1 for u in base.neighbors(v) if u > v) >= k
    )
    expected = mine_maximal_quasicliques(graph, gamma, min_size, options).maximal
    one = mine_parallel(graph, gamma, min_size, policy_config(), options=options)
    mxt = mine_parallel(
        graph, gamma, min_size,
        policy_config(num_machines=machines, threads_per_machine=threads),
        options=options,
    )
    for out in (one, mxt):
        assert out.metrics.tasks_spawned == roots
        assert out.maximal == expected
    assert mxt.metrics.tasks_executed == one.metrics.tasks_executed
    assert dataclasses.asdict(mxt.metrics.mining_stats) == dataclasses.asdict(
        one.metrics.mining_stats
    )


@given(
    graph=small_graphs(),
    gamma=st.sampled_from([0.5, 2 / 3, 0.75, 0.9, 1.0]),
    min_size=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_serial_threaded_process_simulated_all_match_oracle(graph, gamma, min_size):
    """Serial at 1 x 1 and at 2 x 2, and the process backend's two
    workers, against the oracle on the same draws."""
    expected = enumerate_maximal_quasicliques(graph, gamma, min_size)
    serial = mine_parallel(graph, gamma, min_size, policy_config())
    process = mine_parallel(
        graph, gamma, min_size,
        policy_config(backend="process", num_procs=2),
    )
    mxt = mine_parallel(
        graph, gamma, min_size,
        policy_config(num_machines=2, threads_per_machine=2),
    )
    assert serial.maximal == expected
    assert process.maximal == expected
    assert mxt.maximal == expected


@given(
    graph=small_graphs(),
    gamma=st.sampled_from([0.5, 2 / 3, 0.75, 0.9, 1.0]),
    min_size=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cluster_backend_matches_oracle(graph, gamma, min_size):
    """The TCP cluster is executor number four of the same property: a
    2-worker localhost cluster must reproduce the brute-force family
    exactly, with master-side dedup absorbing at-least-once delivery.
    Fewer examples than the in-process property — each run pays for two
    real worker processes plus a socket handshake."""
    expected = enumerate_maximal_quasicliques(graph, gamma, min_size)
    clustered = launch_mining(
        graph, gamma, min_size,
        policy_config(
            backend="cluster", num_procs=2,
            heartbeat_period=0.02, heartbeat_timeout=5.0,
        ),
        start_method=os.environ.get("REPRO_MP_START_METHOD") or None,
        timeout=120.0,
    )
    assert clustered.maximal == expected


@given(
    graph=small_graphs(),
    gamma=st.sampled_from([0.5, 0.75, 0.9]),
    min_size=st.integers(min_value=2, max_value=4),
    kill_worker=st.integers(min_value=0, max_value=1),
    after_batches=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cluster_backend_chaos_equivalence(
    graph, gamma, min_size, kill_worker, after_batches
):
    """The chaos property with cold workers: a SIGKILLed cluster worker
    must be invisible in the result set (the master reclaims its leases;
    re-mined candidates deduplicate)."""
    expected = enumerate_maximal_quasicliques(graph, gamma, min_size)
    tracer = Tracer()
    out = launch_mining(
        graph, gamma, min_size,
        policy_config(
            backend="cluster", num_procs=2, cluster_chunk_size=1,
            heartbeat_period=0.02, heartbeat_timeout=5.0, max_attempts=5,
        ),
        tracer=tracer,
        start_method=os.environ.get("REPRO_MP_START_METHOD") or None,
        fault_injection=FaultInjection(
            worker_id=kill_worker, after_batches=after_batches
        ),
        timeout=120.0,
    )
    if out.maximal != expected:
        trace_dir = os.environ.get("CHAOS_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            tracer.dump_jsonl(os.path.join(
                trace_dir,
                f"cluster-chaos-w{kill_worker}-a{after_batches}"
                f"-g{gamma}-m{min_size}.jsonl",
            ))
    assert out.maximal == expected
    assert out.metrics.tasks_quarantined == 0  # one-shot fault: no poison


@given(
    graph=small_graphs(),
    gamma=st.sampled_from([0.5, 0.75, 0.9]),
    min_size=st.integers(min_value=2, max_value=4),
    kill_worker=st.integers(min_value=0, max_value=1),
    after_batches=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_process_backend_chaos_equivalence(
    graph, gamma, min_size, kill_worker, after_batches
):
    """Chaos property: SIGKILLing worker `kill_worker` after it has
    completed `after_batches` work units must leave the process backend's
    results exactly equal to the serial miner's — the at-least-once
    retry path may re-mine tasks, but dedup and stale-lease dropping
    make the outcome indistinguishable from a fault-free run. (On jobs
    too small for the targeted worker to receive a batch, the fault
    never fires; equivalence must hold either way.)

    Seeded in CI via --hypothesis-seed; on failure the scheduler trace
    is dumped as JSONL under $CHAOS_TRACE_DIR for post-mortem.
    """
    expected = enumerate_maximal_quasicliques(graph, gamma, min_size)
    tracer = Tracer()
    out = launch_mining(
        graph, gamma, min_size,
        policy_config(backend="process", num_procs=2, batch_size=1,
                      retry_backoff=0.001),
        tracer=tracer,
        start_method=os.environ.get("REPRO_MP_START_METHOD") or None,
        fault_injection=FaultInjection(
            worker_id=kill_worker, after_batches=after_batches
        ),
    )
    if out.maximal != expected:
        trace_dir = os.environ.get("CHAOS_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            tracer.dump_jsonl(os.path.join(
                trace_dir,
                f"chaos-w{kill_worker}-a{after_batches}-g{gamma}-m{min_size}.jsonl",
            ))
    assert out.maximal == expected
    assert out.metrics.tasks_quarantined == 0  # one-shot fault: no poison
