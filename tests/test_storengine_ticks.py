"""Storengine's idle skip is invisible: same reports as a tick-by-tick loop.

When idle, Storengine sleeps straight to the first poll tick at which a
poll can find work (``Storengine._idle_sleep``).  The reference below
keeps the loop it replaced, which sleeps one poll interval at a time and
so processes one engine event per idle tick.  Every execution path that
runs an accelerator must produce byte-identical reports with either
loop, for any poll and journal interval, including a poll interval that
does not divide the journal interval.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ParallelConfig, run_cluster, run_cluster_parallel
from repro.core import accelerator as accelerator_module
from repro.core.flashvisor import Flashvisor
from repro.core.storengine import Storengine
from repro.eval import run_system
from repro.flash.backbone import FlashBackbone
from repro.hw.interconnect import Interconnect
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.platform import ClusterConfig, FaultSpec, PlatformConfig
from repro.policy import PolicySpec
from repro.serve import ServingScenario, TenantSpec, run_serving
from repro.serve.fastforward import run_serving_fastforward
from repro.sim import Environment
from repro.sim.fastforward import FastForwardConfig
from repro.workloads import heterogeneous_workload


class TickByTickStorengine(Storengine):
    """Reference: the idle loop without the skip."""

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped:
            did_work = False
            if self.flashvisor.pending_flush_bytes > 0:
                yield from self._flush_some()
                did_work = True
            if self.flashvisor.allocator.needs_gc():
                yield from self._collect_garbage()
                did_work = True
            if (self.env.now - self._last_journal) >= self.journal_interval_s:
                yield from self._journal_metadata()
                did_work = True
            if not did_work:
                yield self.env.timeout(self.poll_interval_s)


@contextmanager
def accelerators_use(storengine_class, poll_s, journal_s):
    """Build every accelerator's Storengine from ``storengine_class``."""

    class Configured(storengine_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, poll_interval_s=poll_s,
                             journal_interval_s=journal_s, **kwargs)

    with mock.patch.object(accelerator_module, "Storengine", Configured):
        yield


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_same_as_reference(run, poll_s, journal_s):
    with accelerators_use(Storengine, poll_s, journal_s):
        skipping = canonical(run())
    with accelerators_use(TickByTickStorengine, poll_s, journal_s):
        reference = canonical(run())
    assert skipping == reference


#: 2 ms / 50 ms is the default; 3 ms does not divide 50 ms, and 0.7 ms
#: divides neither journal interval.
POLLS = st.sampled_from([2e-3, 3e-3, 0.7e-3])
JOURNALS = st.sampled_from([50e-3, 10e-3])
CONFIG = PlatformConfig(input_scale=0.01)
TENANTS = (TenantSpec("a", 1.0, 0.25), TenantSpec("b", 1.0, 0.25))


def scenario(seed, rate, duration_s=0.5):
    return ServingScenario(process="poisson", offered_rps=rate,
                           duration_s=duration_s, seed=seed,
                           tenants=TENANTS, admission=PolicySpec(
                               "queue_depth", {"max_tenant_depth": 16}))


def test_patch_reaches_the_accelerator():
    with accelerators_use(TickByTickStorengine, 3e-3, 10e-3):
        storengine = accelerator_module.FlashAbacusAccelerator(
            config=CONFIG).storengine
    assert isinstance(storengine, TickByTickStorengine)
    assert storengine.poll_interval_s == 3e-3


@settings(max_examples=10, deadline=None)
@given(mix=st.sampled_from(["MX1", "MX5", "MX9", "MX14"]),
       instances=st.integers(1, 2),
       input_scale=st.sampled_from([0.01, 0.1, 0.3]),
       poll_s=POLLS, journal_s=JOURNALS)
def test_batch_mix_matches_tick_by_tick(mix, instances, input_scale, poll_s,
                                        journal_s):
    def run():
        kernels = heterogeneous_workload(mix, instances_per_kernel=instances,
                                         input_scale=input_scale)
        return run_system(PlatformConfig(system="IntraO3",
                                         input_scale=input_scale), kernels)

    assert_same_as_reference(run, poll_s, journal_s)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 200), rate=st.floats(20.0, 240.0),
       poll_s=POLLS, journal_s=JOURNALS)
def test_serving_matches_tick_by_tick(seed, rate, poll_s, journal_s):
    assert_same_as_reference(
        lambda: run_serving(scenario(seed, rate), CONFIG), poll_s, journal_s)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 200), rate=st.floats(120.0, 240.0),
       poll_s=POLLS, journal_s=JOURNALS)
def test_fastforward_matches_tick_by_tick(seed, rate, poll_s, journal_s):
    fastforward = FastForwardConfig(enabled=True, warmup_s=0.5,
                                    min_samples=30)
    assert_same_as_reference(
        lambda: run_serving_fastforward(scenario(seed, rate, 1.5), CONFIG,
                                        fastforward),
        poll_s, journal_s)


FLEET = ClusterConfig.homogeneous(
    3, CONFIG, faults=(FaultSpec(0.1, 1, "failed"),
                       FaultSpec(0.25, 1, "healthy")))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 200), rate=st.floats(40.0, 200.0),
       poll_s=POLLS, journal_s=JOURNALS)
def test_cluster_paths_match_tick_by_tick(seed, rate, poll_s, journal_s):
    fleet_scenario = scenario(seed, rate, 0.4)
    assert_same_as_reference(lambda: run_cluster(fleet_scenario, FLEET),
                             poll_s, journal_s)
    for workers in (1, 2):
        for adaptive in (True, False):
            parallel = ParallelConfig(workers=workers, adaptive=adaptive)
            assert_same_as_reference(
                lambda: run_cluster_parallel(fleet_scenario, FLEET,
                                             parallel),
                poll_s, journal_s)


# --------------------------------------------------------------------------- #
# stop() in the middle of a skip                                              #
# --------------------------------------------------------------------------- #
def bare_storengine(storengine_class, spec, poll_s):
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, spec.lwp, energy)
    backbone = FlashBackbone(env, spec.flash, energy)
    flashvisor = Flashvisor(
        env, cluster.flashvisor_lwp, backbone,
        DDR3L(env, spec.memory, energy), Scratchpad(env, spec.memory, energy),
        Interconnect(env, spec.interconnect).new_queue("fv"), energy)
    storengine = storengine_class(env, cluster.storengine_lwp, flashvisor,
                                  backbone, energy, poll_interval_s=poll_s,
                                  journal_interval_s=1.0)
    return env, storengine


@pytest.mark.parametrize("storengine_class",
                         [Storengine, TickByTickStorengine])
def test_stop_between_skipped_ticks_exits_at_the_next_tick(storengine_class,
                                                           spec):
    poll_s = 2e-3
    env, storengine = bare_storengine(storengine_class, spec, poll_s)
    while env.peek() == 0.0:
        env.step()          # Storengine starts and goes idle at t=0
    if storengine_class is Storengine:
        # Nothing else is pending, so the sleep runs to the journal tick.
        assert env.peek() > 0.5
    env.run(until=0.0101)   # between the 5th and 6th tick
    storengine.stop()
    env.run()
    tick = 0.0
    for _ in range(6):
        tick += poll_s
    assert env.now == tick
    assert storengine._process.triggered
