"""Cluster session: run one serving scenario on a sharded fleet.

:class:`ClusterSession` is the fleet counterpart of
:class:`~repro.serve.session.ServingSession`: it builds every device of a
:class:`~repro.platform.cluster.ClusterConfig` on one shared
:class:`~repro.sim.engine.Environment` (each device its own
``PlatformBuilder`` product — backend, admission controller, per-tenant
queues), puts a :class:`~repro.cluster.dispatcher.ClusterDispatcher` in
front, schedules the arrival trace and the fault timeline, drives the
simulation until every request has settled, and rolls the per-device
results into a :class:`~repro.cluster.report.ClusterReport`.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import MetricsBus, ObsConfig, Tracer, wire_cluster_metrics
from ..platform.cluster import ClusterConfig
from ..policy import learned_snapshot, wire_feedback
from ..serve.session import (
    ServingScenario,
    arrival_driver,
    drive_until_settled,
)
from ..serve.slo import SLOTracker
from ..sim.engine import Environment, raise_on_failure
from .autoscale import AutoscaleController
from .dispatcher import ClusterDispatcher, ShardTracker
from .health import DeviceHealth, DeviceShard, build_shard, fault_driver
from .report import ClusterReport, assemble_cluster_report, device_report


class ClusterSession:
    """Runs one :class:`ServingScenario` on one configured fleet.

    ``obs`` opts into the observability layer (:mod:`repro.obs`): with
    tracing on, every shard's front-end/backend spans are tagged with its
    device index and the dispatcher adds edge-reject and evict/reroute
    spans; with metrics on, the fleet instrument set (per-shard
    outstanding/queue depth/energy plus fleet rates) samples into a
    timeline serialized as the report's ``metrics`` field.  ``obs=None``
    (the default) is the byte-identical pre-observability path.
    """

    def __init__(self, scenario: ServingScenario, cluster: ClusterConfig,
                 obs: Optional[ObsConfig] = None):
        self.scenario = scenario
        self.cluster = cluster
        self.obs = obs
        self.tracer: Optional[Tracer] = None
        self.metrics = None
        self.autoscaler: Optional[AutoscaleController] = None
        # The last run's shards: learned-policy evaluation (learning
        # curves) reads their front-end records after the run.
        self.shards: Optional[List[DeviceShard]] = None

    # ------------------------------------------------------------------ #
    # Fleet assembly                                                      #
    # ------------------------------------------------------------------ #
    def _build_shard(self, env: Environment, fleet: SLOTracker,
                     index: int) -> DeviceShard:
        """Device shard ``index`` on the shared environment.

        Positions past the configured ``devices`` (elastic scale-up)
        clone the device template.
        """
        shard = build_shard(self.scenario, self.cluster, index, env,
                            ShardTracker, fleet=fleet)
        if self.tracer is not None:
            # Tag every span with the shard's device index so trace
            # tracks separate per device.
            shard.frontend.trace_device = shard.index
            shard.backend.bind_trace_device(shard.index)
        return shard

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def run(self) -> ClusterReport:
        """Execute the scenario on the fleet; returns the report."""
        scenario = self.scenario
        obs = self.obs
        env = Environment()
        if obs is not None and obs.tracing:
            # Attached before the shards are built, so every front-end
            # and backend captures the tracer.
            self.tracer = Tracer(obs.trace_capacity)
            env.tracer = self.tracer
        tenants = [t.name for t in scenario.tenants]
        fleet = SLOTracker(tenants,
                           reservoir_capacity=scenario.reservoir_capacity,
                           seed=scenario.seed)
        shards = [self._build_shard(env, fleet, index)
                  for index in range(len(self.cluster.devices))]
        dispatcher = ClusterDispatcher(env, shards, self.cluster, fleet,
                                       seed=scenario.seed)
        # Learned-policy feedback: each shard's own learned admission/
        # dispatch policies, plus the fleet-level placement policy on
        # *every* shard front-end (a placement decision's outcome
        # surfaces wherever the request completes).
        for shard in shards:
            wire_feedback(shard.frontend, extra=(dispatcher.policy,))
        self.shards = shards
        bus: Optional[MetricsBus] = None
        if obs is not None and obs.metrics:
            bus = MetricsBus(cadence_s=obs.cadence_s)
            wire_cluster_metrics(bus, fleet, shards, dispatcher)
            bus.install(env)
        controller: Optional[AutoscaleController] = None
        if self.cluster.elastic:
            # Built after metrics wiring so its latency tap chains onto
            # (rather than replaces) the bus's histogram hook.
            def shard_factory(index: int) -> DeviceShard:
                shard = self._build_shard(env, fleet, index)
                # Scale-up shards join the feedback loop like the
                # initially provisioned ones.
                wire_feedback(shard.frontend, extra=(dispatcher.policy,))
                shard.backend.start()
                return shard

            controller = AutoscaleController(env, dispatcher, self.cluster,
                                             fleet, shard_factory)
            controller.install(env)
        self.autoscaler = controller
        requests = scenario.make_arrivals().generate(scenario.duration_s)
        for shard in shards:
            shard.backend.start()
        raise_on_failure(env.process(arrival_driver(env, dispatcher,
                                                    requests)))
        if self.cluster.faults:
            raise_on_failure(env.process(fault_driver(
                env, self.cluster.ordered_faults(),
                lambda _, fault: dispatcher.set_health(
                    fault.device, DeviceHealth(fault.state)))))
        drive_until_settled(env, fleet, len(requests), scenario.duration_s,
                            label="cluster run")
        if bus is not None:
            # Final sample at settle time, then retire the sampler
            # (de-scheduling its pending tick) so the drain loop below
            # terminates — and ends at the same clock reading as an
            # unobserved run.
            bus.stop(env)
        if controller is not None:
            # Same treatment for the control loop's pending tick and any
            # outstanding warm-up timers.
            controller.stop(env)
        for shard in shards:
            if not shard.retired:   # retired at scale-down: already finished
                shard.backend.finish()
        # Drain background work (Storengine flush/GC) on every device so
        # energy accounting covers every byte served fleet-wide.
        env.run()
        report = assemble_cluster_report(
            scenario, dispatcher,
            [device_report(scenario, shard) for shard in shards], env.now)
        if bus is not None:
            self.metrics = bus.timeline
            report.metrics = bus.timeline.to_dict()
        if controller is not None:
            report.autoscaler = controller.summary(env.now)
        report.learned = learned_snapshot({"placement": dispatcher.policy})
        return report


def run_cluster(scenario: ServingScenario,
                cluster: ClusterConfig,
                obs: Optional[ObsConfig] = None) -> ClusterReport:
    """Convenience wrapper: run one scenario on one fleet."""
    return ClusterSession(scenario, cluster, obs=obs).run()
