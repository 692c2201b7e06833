"""Deterministic-simulation tests of the cluster control plane.

These are the virtual-time ports of the real-TCP chaos scenarios in
test_cluster.py (which keeps one smoke-level TCP test per scenario):
the same shipping reactors, driven by :mod:`repro.gthinker.sim` under
explicit :class:`FaultPlan`s — so a crash can land *exactly* between a
steal request and its grant, rather than whenever the OS scheduler
happens to put it.

Every ``run_sim`` already asserts ledger invariants after each
delivered frame and oracle equality + metrics/trace consistency at
quiescence; a test here only needs ``report.ok`` plus scenario markers
proving the path it documents actually ran.
"""

from __future__ import annotations

from dataclasses import replace
import random

from repro.gthinker.sim import (
    FaultPlan,
    LinkFaults,
    PartitionWindow,
    WorkerFaults,
    run_sim,
)
from repro.gthinker.sim.harness import _sim_config


CLEAN = FaultPlan()


def sim_config(**overrides):
    cfg = _sim_config(random.Random(0), 2)
    return replace(cfg, **overrides) if overrides else cfg


def run_ok(seed, **kwargs):
    report = run_sim(seed, **kwargs)
    assert report.ok, f"seed {seed}: {report.failure}"
    return report


class TestSimOracle:
    def test_clean_plan_matches_serial_oracle(self):
        report = run_ok(0, plan=CLEAN, num_workers=2,
                        config=sim_config(), graph_seed=0)
        assert report.result.maximal  # the job actually mined something
        assert report.metrics.workers_died == 0

    def test_fuzz_smoke(self):
        # A slice of the CI sweep, kept small enough for tier-1.
        for seed in range(25):
            run_ok(seed)


class TestSimChaos:
    """Virtual-time ports of the TCP fault-tolerance scenarios."""

    def test_worker_crash_mid_job_reclaims_and_matches_oracle(self):
        # Port of test_sigkill_one_worker_mid_job: worker 1 (slowed so
        # it still holds leases) dies mid-job; the master must reclaim
        # and re-mine.
        plan = FaultPlan(
            workers=(WorkerFaults(worker=1, crash_at=0.3, speed=5.0),),
        )
        report = run_ok(1, plan=plan, num_workers=2,
                        config=sim_config(cluster_chunk_size=1),
                        graph_seed=1)
        m = report.metrics
        assert m.workers_died == 1
        assert m.tasks_retried >= 1
        assert m.tasks_quarantined == 0
        assert report.tracer.events(kind="worker_died")

    def test_crashed_worker_restarts_as_fresh_worker(self):
        # The TCP suite cannot test rejoin at all (a SIGKILLed process
        # stays dead); in virtual time the restart is one timer.
        plan = FaultPlan(
            workers=(WorkerFaults(worker=1, crash_at=0.2, restart_at=0.4,
                                  speed=5.0),),
        )
        report = run_ok(2, plan=plan, num_workers=2,
                        config=sim_config(cluster_chunk_size=1),
                        graph_seed=1)
        welcomed = {
            line.split("deliver ")[1].split(".")[0]
            for line in report.log
            if " deliver " in line and line.endswith("Welcome")
        }
        assert len(welcomed) == 3, welcomed  # 2 initial links + 1 rejoin
        assert report.metrics.workers_died == 1
        assert report.metrics.tasks_retried >= 1

    def test_wedged_worker_is_declared_dead_and_its_leases_reclaimed(self):
        # A wedge longer than heartbeat_timeout reads as a death even
        # though the socket never closes.
        plan = FaultPlan(workers=(WorkerFaults(worker=1, wedge_at=0.2),))
        report = run_ok(3, plan=plan, num_workers=2,
                        config=sim_config(cluster_chunk_size=1),
                        graph_seed=2)
        assert report.metrics.workers_died == 1
        assert any("heartbeat" in e.detail
                   for e in report.tracer.events(kind="worker_died"))

    def test_partition_healing_within_timeout_kills_nobody(self):
        # Frames stall for 1s < heartbeat_timeout (2s): the stall must
        # read as latency, not death.
        plan = FaultPlan(
            partitions=(PartitionWindow(start=0.2, end=1.2, workers=(1,)),),
        )
        report = run_ok(4, plan=plan, num_workers=2,
                        config=sim_config(cluster_chunk_size=1),
                        graph_seed=2)
        assert report.metrics.workers_died == 0

    def test_asymmetric_load_triggers_steals(self):
        # Port of test_asymmetric_load_triggers_observable_steals: a
        # 20x-straggler donor under an all-big config must shed work to
        # its idle peer through the master. (The straggler factor is
        # larger than the TCP port's: the cold-start vertex fetches
        # overlap part of the skew, so a milder donor finishes its
        # backlog before the steal period fires.)
        plan = FaultPlan(workers=(WorkerFaults(worker=1, speed=20.0),))
        report = run_ok(
            5, plan=plan, num_workers=2,
            config=sim_config(tau_split=0, steal_period_seconds=0.2),
            graph_seed=0,
        )
        m = report.metrics
        assert m.steals_planned >= 1
        assert m.steals_sent >= 1
        # steals_sent == steals_received is already asserted for every
        # run by the harness's metrics/trace consistency check.

    def test_fetch_faults_slow_and_duplicated(self):
        # Vertex-fetch traffic under its own fault knobs: slow fetches
        # keep tasks parked for visible virtual time, and duplicating
        # every fetch frame exercises the master's stateless re-serve
        # plus the worker's drop-by-request-id discipline. Oracle
        # equality (asserted by run_ok) proves no duplicated reply is
        # double-admitted and no parked task is lost.
        plan = FaultPlan(
            links={1: LinkFaults(latency=0.002, fetch_latency=0.02,
                                 fetch_dup_rate=1.0)},
        )
        report = run_ok(8, plan=plan, num_workers=2,
                        config=sim_config(cluster_chunk_size=1),
                        graph_seed=1)
        requested = report.tracer.events(kind="vertex_requested")
        served = report.tracer.events(kind="vertex_served")
        assert requested, "no remote vertex fetch happened"
        # Duplicated requests are re-served statelessly, so serves can
        # only meet or exceed the requests that survived the link.
        assert len(served) >= 1

    def test_tiny_cache_forces_evictions_but_not_livelock(self):
        # A 2-entry remote cache under an 8+-vertex graph must evict;
        # the pin overlay keeps every parked task's fetched entries
        # alive until its quantum, so the job still quiesces and
        # matches the oracle.
        report = run_ok(9, plan=CLEAN, num_workers=2,
                        config=sim_config(cache_capacity=2), graph_seed=2)
        assert report.metrics.remote_vertex_evictions >= 1
        assert all(n <= 11 for n in report.resident.values())

    def test_lossy_duplicating_link_changes_nothing(self):
        # Frame duplication on every non-handshake frame: dedup and the
        # stale-grant re-pend must absorb all of it.
        plan = FaultPlan(
            links={1: LinkFaults(latency=0.005, jitter=0.01, dup_rate=1.0)},
        )
        run_ok(6, plan=plan, num_workers=2,
               config=sim_config(cluster_chunk_size=1), graph_seed=3)

    def test_reordering_link_changes_nothing(self):
        # Harsher than TCP: per-link FIFO is lifted entirely.
        plan = FaultPlan(
            links={1: LinkFaults(latency=0.002, jitter=0.05, reorder=True)},
        )
        run_ok(7, plan=plan, num_workers=2,
               config=sim_config(cluster_chunk_size=1), graph_seed=4)


class TestDeterminism:
    def test_same_seed_reproduces_the_event_log_byte_for_byte(self):
        for seed in (0, 414):
            a, b = run_sim(seed), run_sim(seed)
            assert a.log == b.log
            assert a.ok == b.ok


class TestWarmStart:
    """The process backend's configuration under the simulator: workers
    that hold the whole graph, ask for no partition, fetch nothing."""

    def test_a_share_of_fuzz_seeds_runs_warm_without_fetching(self):
        reports = [run_ok(seed) for seed in range(25)]
        warm = [r for r in reports if r.warm_start]
        assert 0 < len(warm) < len(reports)
        for report in warm:
            counts = report.tracer.counts()
            assert counts.get("vertex_requested", 0) == 0
            assert counts.get("vertex_served", 0) == 0
            assert report.metrics.remote_messages == 0

    def test_warm_choice_leaves_cold_schedules_unchanged(self):
        """The choice has its own stream: forcing a cold seed cold again
        replays its event log byte for byte."""
        cold = next(s for s in range(25) if not run_sim(s).warm_start)
        assert run_sim(cold).log == run_sim(cold, warm_start=False).log

    def test_crashed_warm_worker_is_replaced(self):
        """The launcher's respawn, on the virtual clock: a crashed warm
        worker rejoins as a fresh warm worker and the job still matches
        the oracle."""
        plan = FaultPlan(
            workers=(WorkerFaults(worker=1, crash_at=0.2, restart_at=0.4,
                                  speed=5.0),),
        )
        report = run_ok(2, plan=plan, num_workers=2, config=sim_config(),
                        graph_seed=1, warm_start=True)
        assert report.metrics.workers_died == 1
        assert report.tracer.counts().get("vertex_requested", 0) == 0


class TestPinnedRegressions:
    def test_seed_414_duplicated_steal_request(self):
        """Found by `repro sim-fuzz`: a duplicated StealRequest frame
        made the donor evict a *second* batch for an already-answered
        request; the master dropped the resulting stale StealGrant and
        its payload — candidates {5,7,9,10} were permanently lost.
        Fixed by (a) donor-side request-id dedup and (b) re-pending
        stale grant payloads instead of dropping them. Found with cold
        workers, so it replays with cold workers."""
        run_ok(414, warm_start=False)

    def test_partition_during_steal_with_stale_grant(self):
        """Satellite regression: an all-big (tau_split=0) job where the
        donor's link duplicates every frame and a partition window
        overlaps the steal period. Exercises (1) the
        enforce_window=False steal-forwarding path and (2) stale
        StealGrant absorption, and proves no candidate is lost or
        double-folded (run_ok asserts exact candidate-set equality
        against the serial oracle)."""
        cfg = sim_config(tau_split=0, steal_period_seconds=0.3)
        plan = FaultPlan(
            links={
                0: LinkFaults(latency=0.002),
                1: LinkFaults(latency=0.02, dup_rate=1.0),
            },
            default_link=LinkFaults(latency=0.002),
            partitions=(PartitionWindow(start=0.6, end=1.4, workers=(1,)),),
            workers=(WorkerFaults(worker=1, speed=10.0),),
        )
        report = run_ok(414, plan=plan, num_workers=2, config=cfg,
                        graph_seed=0)
        m = report.metrics
        assert m.steals_received >= 1, "enforce_window=False path not taken"
        assert report.stale_steal_grants >= 1, "no stale StealGrant absorbed"
        assert m.steals_sent == m.steals_received
