"""Parallel cluster runner: one report at any worker count or schedule.

The contract (PERFORMANCE.md, "Parallel execution contract"): the
epoch-parallel runner's :class:`~repro.cluster.report.ClusterReport` is
byte-identical across worker counts (including the inline
single-process path) and across the adaptive epoch schedule and the
fixed grid.  For snapshot-independent placement it also equals the
serial :class:`~repro.cluster.session.ClusterSession`'s report on the
pinned scenarios below, not on every run: shard clocks and energy can
run past the fleet settle instant (PERFORMANCE.md, *Caveats*).  On those
scenarios fault reroutes stay serial-exact because every fault time is
an epoch boundary and evicted backlog is re-adopted at exactly the
eviction instant.
"""

import json
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterSession,
    ParallelClusterSession,
    ParallelConfig,
)
from repro.cluster.parallel import (
    build_epoch_schedule,
    pack_shard_result,
    unpack_shard_result,
)
from repro.eval.cluster import ClusterExperimentSpec
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec

SCENARIO = ServingScenario(
    process="poisson", offered_rps=80.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))

CONFIG = PlatformConfig(input_scale=0.01)


def canonical_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def run_parallel(cluster, workers, adaptive=True, scenario=SCENARIO):
    return ParallelClusterSession(
        scenario, cluster,
        ParallelConfig(workers=workers, adaptive=adaptive)).run()


# --------------------------------------------------------------------------- #
# Serial byte-identity (the headline contract)                                  #
# --------------------------------------------------------------------------- #
def test_fault_free_fleet_matches_serial_byte_for_byte():
    cluster = ClusterConfig.homogeneous(2, CONFIG)
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 2):
        for adaptive in (True, False):
            assert canonical_bytes(
                run_parallel(cluster, workers, adaptive)) == serial


def test_mid_run_failure_matches_serial_byte_for_byte():
    # A mid-run hard failure exercises the full reroute machinery:
    # queued traffic on the dead shard is evicted at the forced fault
    # boundary and re-placed on survivors at exactly the fault instant.
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 2, 3):
        for adaptive in (True, False):
            assert canonical_bytes(
                run_parallel(cluster, workers, adaptive)) == serial


def test_failure_and_recovery_matches_serial_byte_for_byte():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),
                           FaultSpec(0.3, 1, "healthy")))
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 3):
        assert canonical_bytes(run_parallel(cluster, workers)) == serial


def test_late_fault_during_backlog_drain_matches_serial():
    # Heavy overload leaves deep backlogs past the arrival horizon; a
    # fault near the horizon strikes while survivors are still draining.
    # The schedule must keep issuing fault boundaries after arrivals
    # are exhausted for the eviction to reroute at the serial instant.
    scenario = ServingScenario(
        process="poisson", offered_rps=400.0, duration_s=0.3, seed=5,
        tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)))
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.25, 0, "failed"),
                           FaultSpec(0.29, 2, "degraded")))
    serial = canonical_bytes(ClusterSession(scenario, cluster).run())
    for workers in (1, 3):
        for adaptive in (True, False):
            assert canonical_bytes(run_parallel(
                cluster, workers, adaptive, scenario=scenario)) == serial


def test_tenant_affinity_matches_serial_byte_for_byte():
    # The other snapshot-independent policy: adaptive epochs widen to
    # the fault/horizon boundaries only, and the report must still be
    # serial-exact.
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, placement="tenant_affinity",
        faults=(FaultSpec(0.15, 1, "failed"),))
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    for workers in (1, 3):
        for adaptive in (True, False):
            assert canonical_bytes(
                run_parallel(cluster, workers, adaptive)) == serial


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("device_count, faults", [
    # The failure must be in effect before the first epoch routes.
    pytest.param(3, (FaultSpec(0.0, 1, "failed"),), id="failed-at-t0"),
    # A repeated failure is a no-op; the recovery still applies.
    pytest.param(2, (FaultSpec(0.1, 0, "failed"),
                     FaultSpec(0.2, 0, "failed"),
                     FaultSpec(0.3, 0, "healthy")),
                 id="failed-failed-healthy"),
])
def test_fault_timeline_matches_serial_byte_for_byte(device_count, faults,
                                                     workers):
    cluster = ClusterConfig.homogeneous(device_count, CONFIG, faults=faults)
    serial = canonical_bytes(ClusterSession(SCENARIO, cluster).run())
    assert canonical_bytes(run_parallel(cluster, workers)) == serial


def test_whole_fleet_failure_keeps_serial_accounting():
    # No peer is left to adopt a backlog and later arrivals are rejected
    # at the cluster edge.  makespan_s is not compared: idle shard
    # clocks can run past the fleet settle instant (ROADMAP item 2).
    cluster = ClusterConfig.homogeneous(
        3, CONFIG,
        faults=tuple(FaultSpec(0.15, device, "failed")
                     for device in range(3)))
    serial = ClusterSession(SCENARIO, cluster).run()
    assert serial.placement_stats["cluster_rejected"] > 0
    for workers in (1, 2):
        parallel = run_parallel(cluster, workers)
        assert parallel.offered == parallel.admitted + parallel.rejected
        assert parallel.completed == parallel.admitted
        assert parallel.placement_stats == serial.placement_stats
        assert parallel.health_events == serial.health_events


# --------------------------------------------------------------------------- #
# Worker-count / schedule independence                                          #
# --------------------------------------------------------------------------- #
def test_worker_counts_and_schedules_agree_across_a_device_failure():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    reference = canonical_bytes(run_parallel(cluster, 1))
    for workers in (2, 3):
        for adaptive in (True, False):
            assert canonical_bytes(
                run_parallel(cluster, workers, adaptive)) == reference


def test_snapshot_dependent_policies_are_worker_count_invariant():
    # JSQ/least-outstanding/power-aware route on epoch snapshots, so
    # they are not serial-identical — but they must still be invariant
    # to worker count and to the adaptive flag (which never widens
    # their schedule).
    for placement in ("join_shortest_queue", "least_outstanding",
                      "power_aware"):
        cluster = ClusterConfig.homogeneous(
            3, CONFIG, placement=placement,
            faults=(FaultSpec(0.15, 1, "failed"),))
        reference = canonical_bytes(run_parallel(cluster, 1))
        for workers in (2, 3):
            for adaptive in (True, False):
                assert canonical_bytes(run_parallel(
                    cluster, workers, adaptive)) == reference, placement


def test_parallel_run_is_deterministic():
    cluster = ClusterConfig.homogeneous(
        2, CONFIG, faults=(FaultSpec(0.2, 0, "degraded"),))
    assert canonical_bytes(run_parallel(cluster, 2)) == \
        canonical_bytes(run_parallel(cluster, 2))


# --------------------------------------------------------------------------- #
# Epoch schedule                                                                #
# --------------------------------------------------------------------------- #
def test_adaptive_schedule_collapses_to_faults_and_horizon():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    schedule = build_epoch_schedule(SCENARIO, cluster, ParallelConfig())
    assert schedule == [(0.15, True), (SCENARIO.duration_s, False)]


def test_ordered_faults_replay_by_time_then_config_order():
    faults = (FaultSpec(0.3, 0, "healthy"), FaultSpec(0.1, 2, "failed"),
              FaultSpec(0.1, 0, "failed"))
    cluster = ClusterConfig.homogeneous(3, CONFIG, faults=faults)
    assert cluster.ordered_faults() == [
        (0, faults[1]), (1, faults[2]), (2, faults[0])]


def test_fault_at_t0_gets_a_zero_length_first_epoch():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.0, 1, "failed"),))
    schedule = build_epoch_schedule(SCENARIO, cluster, ParallelConfig())
    assert schedule == [(0.0, True), (SCENARIO.duration_s, False)]


def test_fixed_schedule_keeps_the_grid():
    cluster = ClusterConfig.homogeneous(3, CONFIG)
    schedule = build_epoch_schedule(
        SCENARIO, cluster, ParallelConfig(adaptive=False, epoch_s=0.2))
    assert [end for end, _ in schedule] == [0.2, 0.4]
    assert not any(is_fault for _, is_fault in schedule)


def test_snapshot_dependent_placement_never_widens():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, placement="join_shortest_queue")
    adaptive = build_epoch_schedule(SCENARIO, cluster, ParallelConfig())
    fixed = build_epoch_schedule(
        SCENARIO, cluster, ParallelConfig(adaptive=False))
    assert adaptive == fixed


def test_execution_stats_record_strategy_not_report():
    cluster = ClusterConfig.homogeneous(
        3, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    session = ParallelClusterSession(SCENARIO, cluster,
                                     ParallelConfig(workers=1))
    report = session.run()
    stats = session.execution_stats
    assert stats["mode"] == "inline"
    assert stats["epochs"] >= 1
    assert stats["adaptive"] is True
    # Strategy metadata must NOT leak into the report: the report is
    # byte-identical across strategies, so it cannot describe one.
    assert "epoch_s" not in report.placement_stats
    assert "epochs" not in report.placement_stats


# --------------------------------------------------------------------------- #
# Accounting invariants                                                         #
# --------------------------------------------------------------------------- #
#: Slow service + heavy load: the failed device has a deep queue at the
#: fault instant, so the eviction genuinely reroutes backlog.
BACKLOG_SCENARIO = ServingScenario(
    process="poisson", offered_rps=400.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 32}))
SLOW_CONFIG = PlatformConfig(input_scale=0.05)


@pytest.fixture(scope="module")
def failed_report():
    cluster = ClusterConfig.homogeneous(
        3, SLOW_CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    return ParallelClusterSession(
        BACKLOG_SCENARIO, cluster, ParallelConfig(workers=2)).run()


def test_rerouted_backlog_matches_serial_byte_for_byte(failed_report):
    cluster = ClusterConfig.homogeneous(
        3, SLOW_CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    serial = ClusterSession(BACKLOG_SCENARIO, cluster).run()
    assert serial.placement_stats["reroutes"] >= 1
    assert canonical_bytes(failed_report) == canonical_bytes(serial)


def test_overload_with_admission_rejections_matches_serial():
    # Shard-level admission rejections exercise the routed-vs-assigned
    # distinction: the serial dispatcher only counts admitted arrivals
    # as routed.
    scenario = replace(BACKLOG_SCENARIO, offered_rps=800.0)
    cluster = ClusterConfig.homogeneous(
        3, SLOW_CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    serial = ClusterSession(scenario, cluster).run()
    assert serial.rejected > 0
    for workers in (1, 3):
        parallel = run_parallel(cluster, workers, scenario=scenario)
        assert canonical_bytes(parallel) == canonical_bytes(serial)


def test_traffic_conservation(failed_report):
    report = failed_report
    assert report.offered == report.admitted + report.rejected
    assert report.completed <= report.admitted
    assert report.placement_stats["reroutes"] >= 1


def test_failure_lands_in_health_events(failed_report):
    # Events are [time_s, device, state] rows, same as the serial path.
    assert any(event[1] == 1 and event[2] == "failed"
               for event in failed_report.health_events)


# --------------------------------------------------------------------------- #
# Refusals (serial-only run shapes)                                             #
# --------------------------------------------------------------------------- #
def test_learned_placement_is_refused_exactly():
    cluster = ClusterConfig.homogeneous(2, CONFIG,
                                        placement="linucb_placement")
    with pytest.raises(ValueError, match="learned.*linucb_placement"):
        ParallelClusterSession(SCENARIO, cluster)


def test_elastic_cluster_is_refused():
    cluster = ClusterConfig.homogeneous(
        2, CONFIG, autoscaler_spec="queue_depth_threshold")
    with pytest.raises(ValueError, match="elastic"):
        ParallelClusterSession(SCENARIO, cluster)


# --------------------------------------------------------------------------- #
# Wire codec                                                                    #
# --------------------------------------------------------------------------- #
def test_pack_unpack_round_trips_boundary_payloads():
    payload = {
        "snapshot": (3, 1, 4, 2.5, "healthy"),
        "admitted": {0: 5, 1: 2},
        "rejected": {1: 1},
        "completions": [(0.125, 0, 0.03, False), (0.25, 1, 0.6, True)],
        "evicted": [(0, [(7, 0.1, 0), (9, None, 2)])],
        "health_events": [[0, 0.15, 1, "failed"]],
    }
    assert unpack_shard_result(pack_shard_result(payload)) == payload
    settled = dict(payload, settled_s=0.375)
    assert unpack_shard_result(pack_shard_result(settled)) == settled


# --------------------------------------------------------------------------- #
# Experiment-spec plumbing                                                      #
# --------------------------------------------------------------------------- #
def test_spec_key_semantics():
    cluster = ClusterConfig.homogeneous(2, CONFIG)
    plain = ClusterExperimentSpec(SCENARIO, cluster)
    one = ClusterExperimentSpec(SCENARIO, cluster,
                                parallel=ParallelConfig(workers=1))
    many = ClusterExperimentSpec(SCENARIO, cluster,
                                 parallel=ParallelConfig(workers=4))
    # Worker count is an execution strategy: same key either way.
    assert one.key == many.key
    # The parallel report is not always byte-identical to serial (shard
    # clocks and energy can run past the fleet settle instant), so a
    # parallel spec never shares the serial cache entry.
    assert plain.key != one.key


def test_spec_key_folds_epoch_for_snapshot_dependent_placement():
    cluster = ClusterConfig.homogeneous(2, CONFIG,
                                        placement="join_shortest_queue")
    plain = ClusterExperimentSpec(SCENARIO, cluster)
    one = ClusterExperimentSpec(SCENARIO, cluster,
                                parallel=ParallelConfig(workers=1))
    many = ClusterExperimentSpec(SCENARIO, cluster,
                                 parallel=ParallelConfig(workers=4))
    coarse = ClusterExperimentSpec(
        SCENARIO, cluster, parallel=ParallelConfig(workers=1, epoch_s=0.5))
    # JSQ routes on epoch snapshots: epoch_s is semantic, and the
    # parallel run is not serial-identical, so keys stay distinct.
    assert one.key == many.key
    assert coarse.key != one.key
    assert plain.key != one.key


def test_parallel_config_round_trips():
    config = ParallelConfig(workers=3, epoch_s=0.5)
    restored = ParallelConfig.from_dict(config.to_dict())
    assert restored.epoch_s == config.epoch_s
    # to_dict deliberately drops the worker count and the adaptive flag
    # (execution strategy: results are byte-identical either way).
    assert "workers" not in config.to_dict()
    assert "adaptive" not in config.to_dict()
