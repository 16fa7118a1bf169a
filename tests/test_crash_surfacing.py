"""A crash inside any simulation process must stop the run with its own error.

Faults are injected by monkeypatching one call site to raise on its k-th
call.  The exception must come out of the public entry point with its
original type and message, not as a stall, a hang or a silently short
report.  Two groups:

* request execution (worker loops, per-request offload and serve
  processes, the baseline's batch driver) on every driver:
  single-device serving, batch, the serial fleet and the in-process
  parallel fleet;
* the long-lived processes a session owns (dispatch loop, arrival and
  fault drivers, Storengine, the autoscaler, the metrics sampler, the
  parallel runner's epoch feeders).

The stall watchdog of ``drive_until_settled`` and the batch run's wedge
check are covered at the end.
"""

import signal
from contextlib import contextmanager

import pytest

from repro.baseline.system import BaselineSystem
from repro.cluster import ParallelConfig, run_cluster, run_cluster_parallel
from repro.cluster.autoscale import AutoscaleController
from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.health import DeviceShard
from repro.core.accelerator import FlashAbacusAccelerator
from repro.core.flashvisor import Flashvisor
from repro.core.offload import OffloadController
from repro.core.storengine import Storengine
from repro.eval.runner import run_system
from repro.obs import MetricsBus, ObsConfig
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec, build_policy, policy_class
from repro.serve import Request, ServingScenario, TenantSpec, run_serving
from repro.serve import session as serve_session
from repro.serve.frontend import ServingFrontend
from repro.serve.session import drive_until_settled
from repro.serve.slo import SLOTracker
from repro.sim.engine import Environment
from repro.workloads.mixes import heterogeneous_workload
from repro.workloads.polybench import homogeneous_workload

from helpers import StubBackend

SCENARIO = ServingScenario(
    process="poisson", offered_rps=80.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)),
    admission=PolicySpec("queue_depth", {"max_tenant_depth": 16}))
CONFIG = PlatformConfig(input_scale=0.01)
BUSY = ServingScenario(
    process="poisson", offered_rps=1000.0, duration_s=0.4, seed=11,
    tenants=(TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25)))


class InjectedFault(Exception):
    """The error every injected fault raises."""


def crash_on_call(monkeypatch, owner, name, k, generator=False):
    """Make ``owner.name`` raise :class:`InjectedFault` on its k-th call.

    ``generator=True`` keeps a process-generator method one: the error
    is raised when the simulation first resumes the k-th call.
    """
    original = getattr(owner, name)
    calls = [0]

    def should_fail():
        calls[0] += 1
        return calls[0] == k

    if generator:
        def patched(*args, **kwargs):
            if should_fail():
                raise InjectedFault(f"{name} failed on call {k}")
            return (yield from original(*args, **kwargs))
    else:
        def patched(*args, **kwargs):
            if should_fail():
                raise InjectedFault(f"{name} failed on call {k}")
            return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, patched)
    return f"{name} failed on call {k}"


def run_batch(system="IntraO3"):
    return run_system(system, heterogeneous_workload(
        "MX1", instances_per_kernel=1, input_scale=0.01))


def run_serial_fleet():
    return run_cluster(SCENARIO, ClusterConfig.homogeneous(2, CONFIG))


def run_parallel_fleet(scenario=SCENARIO, cluster=None):
    return run_cluster_parallel(
        scenario, cluster or ClusterConfig.homogeneous(2, CONFIG),
        ParallelConfig(workers=1))


# --------------------------------------------------------------------------- #
# Request execution                                                            #
# --------------------------------------------------------------------------- #
REQUEST_PATHS = {
    "serving": lambda: run_serving(SCENARIO, CONFIG),
    "cluster": run_serial_fleet,
    "parallel": run_parallel_fleet,
}


@pytest.mark.parametrize("path", sorted(REQUEST_PATHS))
def test_worker_loop_crash_propagates(monkeypatch, path):
    message = crash_on_call(monkeypatch, Flashvisor, "map_for_read", 7,
                            generator=True)
    with pytest.raises(InjectedFault, match=message):
        REQUEST_PATHS[path]()


@pytest.mark.parametrize("path", sorted(REQUEST_PATHS))
def test_offload_crash_propagates(monkeypatch, path):
    message = crash_on_call(monkeypatch, OffloadController,
                            "offload_kernel", 5, generator=True)
    with pytest.raises(InjectedFault, match=message):
        REQUEST_PATHS[path]()


def test_baseline_serve_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, BaselineSystem, "serve_kernel", 4,
                            generator=True)
    with pytest.raises(InjectedFault, match=message):
        run_serving(SCENARIO, PlatformConfig(system="SIMD",
                                             input_scale=0.01))


def test_batch_worker_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, Flashvisor, "map_for_read", 3,
                            generator=True)
    with pytest.raises(InjectedFault, match=message):
        run_batch()


def test_batch_offload_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, OffloadController,
                            "offload_batch", 1, generator=True)
    with pytest.raises(InjectedFault, match=message):
        run_batch()


@pytest.mark.parametrize("path", ["batch", "serving"])
def test_storengine_drain_crash_propagates(monkeypatch, path):
    message = crash_on_call(monkeypatch, Storengine, "drain", 1,
                            generator=True)
    with pytest.raises(InjectedFault, match=message):
        run_batch() if path == "batch" else run_serving(SCENARIO, CONFIG)


def test_batch_baseline_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, BaselineSystem, "_run_kernel", 3,
                            generator=True)
    with pytest.raises(InjectedFault, match=message):
        run_batch("SIMD")


# --------------------------------------------------------------------------- #
# Session-owned long-lived processes                                           #
# --------------------------------------------------------------------------- #
def test_dispatch_loop_crash_propagates(monkeypatch):
    # The kernel factory runs inside the front-end's dispatch loop.
    message = crash_on_call(monkeypatch, serve_session,
                            "build_workload_kernel", 5)
    with pytest.raises(InjectedFault, match=message):
        run_serving(SCENARIO, CONFIG)


def test_arrival_driver_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, ServingFrontend, "submit", 5)
    with pytest.raises(InjectedFault, match=message):
        run_serving(SCENARIO, CONFIG)


def test_cluster_arrival_driver_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, ClusterDispatcher, "submit", 5)
    with pytest.raises(InjectedFault, match=message):
        run_serial_fleet()


def test_storengine_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, Storengine, "_flush_some", 2,
                            generator=True)
    with pytest.raises(InjectedFault, match=message):
        run_serving(SCENARIO, CONFIG)


def test_metrics_sampler_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, MetricsBus, "sample", 3)
    with pytest.raises(InjectedFault, match=message):
        run_serving(SCENARIO, CONFIG,
                    obs=ObsConfig(tracing=False, cadence_s=0.01))


@pytest.mark.parametrize("runner", [run_cluster, run_parallel_fleet],
                         ids=["cluster", "parallel"])
def test_fault_driver_crash_propagates(monkeypatch, runner):
    cluster = ClusterConfig.homogeneous(
        2, CONFIG, faults=(FaultSpec(0.15, 1, "degraded"),))
    message = crash_on_call(monkeypatch, DeviceShard, "apply_health", 1)
    with pytest.raises(InjectedFault, match=message):
        runner(SCENARIO, cluster)


def test_autoscaler_crash_propagates(monkeypatch):
    cluster = ClusterConfig.homogeneous(
        2, PlatformConfig(system="IntraO3", input_scale=0.01),
        autoscaler_spec=PolicySpec("queue_depth_threshold",
                                   {"scale_up_depth": 3.0,
                                    "scale_down_depth": 0.5}),
        min_devices=1, max_devices=4, warmup_s=0.05,
        autoscale_interval_s=0.05)
    message = crash_on_call(monkeypatch, AutoscaleController, "tick", 2)
    with pytest.raises(InjectedFault, match=message):
        run_cluster(SCENARIO, cluster)


def test_parallel_epoch_arrivals_crash_propagates(monkeypatch):
    message = crash_on_call(monkeypatch, ServingFrontend, "submit", 5)
    with pytest.raises(InjectedFault, match=message):
        run_parallel_fleet()


def test_parallel_adoption_crash_propagates(monkeypatch):
    # Device 1 fails under a backlog; its queued requests are adopted by
    # device 0 through the parallel runner's adoption process.
    cluster = ClusterConfig.homogeneous(
        2, CONFIG, faults=(FaultSpec(0.15, 1, "failed"),))
    message = crash_on_call(monkeypatch, ServingFrontend, "enqueue_record",
                            1)
    with pytest.raises(InjectedFault, match=message):
        run_parallel_fleet(BUSY, cluster)


# --------------------------------------------------------------------------- #
# Stall watchdog                                                               #
# --------------------------------------------------------------------------- #
class NeverCompletes(StubBackend):
    """Accepts every dispatch and never finishes one."""

    def dispatch(self, record, on_complete):
        self.in_flight += 1
        self.dispatched += 1


def stalled_frontend(env, requests):
    tracker = SLOTracker(["a"])
    frontend = ServingFrontend(env, NeverCompletes(env),
                               build_policy("admission", "none"),
                               tracker, ["a"])
    for request_id in range(requests):
        frontend.submit(Request(request_id=request_id, tenant="a",
                                workload="ATAX", arrival_s=0.0))
    return tracker


def test_watchdog_raises_when_the_queue_runs_dry():
    env = Environment()
    tracker = stalled_frontend(env, 3)
    with pytest.raises(RuntimeError, match=r"stalled: 0/3 requests"):
        drive_until_settled(env, tracker, 3, duration_s=1.0)


def test_watchdog_raises_when_nothing_settles_for_the_stall_horizon():
    env = Environment()
    tracker = stalled_frontend(env, 3)

    def heartbeat():
        # Perpetual background polling, like Storengine's.
        while True:
            yield env.timeout(1.0)

    env.process(heartbeat())
    with pytest.raises(RuntimeError,
                       match=r"stalled: no request settled for 60 "
                             r"simulated seconds"):
        drive_until_settled(env, tracker, 3, duration_s=1.0)
    assert env.now == pytest.approx(61.0)


class Hung(Exception):
    """Raised by :func:`deadline` when a run outlives its wall-clock cap."""


@contextmanager
def deadline(seconds):
    """Turn a hang into a test failure after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_batch_run_raises_when_every_worker_exits_early(monkeypatch):
    # Workers that return without taking work leave kernels that can
    # never complete, while Storengine's polling keeps events pending.
    def idle_worker(self, worker_index, lwp):
        return
        yield

    monkeypatch.setattr(FlashAbacusAccelerator, "_worker_loop",
                        idle_worker)
    with deadline(20), pytest.raises(RuntimeError,
                                     match="no worker can take work"):
        run_system("IntraO3", homogeneous_workload(
            "ATAX", instances=2, input_scale=0.01))


def test_batch_run_raises_when_every_worker_parks_forever(monkeypatch):
    # A scheduler that never hands out work parks every worker on the
    # wake event; nothing is left to wake them.
    monkeypatch.setattr(policy_class("scheduler", "IntraO3"), "next_work",
                        lambda self, worker_index: None)
    with deadline(20), pytest.raises(RuntimeError,
                                     match="no worker can take work"):
        run_batch()
