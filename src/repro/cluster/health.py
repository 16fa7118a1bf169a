"""Per-device health modeling for the cluster layer.

Each device of the fleet is wrapped in a :class:`DeviceShard`: the built
backend + front-end pair plus a health state and routing counters.  Health
transitions come from the cluster's fault timeline
(:class:`~repro.platform.cluster.FaultSpec`) and change how the dispatcher
treats the device:

* ``HEALTHY`` — full dispatch capacity, receives new traffic.
* ``DEGRADED`` — a slow board: its dispatch capacity is derated by the
  cluster's ``degraded_capacity_factor``, so placement policies see a
  smaller device and route proportionally less work to it.
* ``FAILED`` — out of rotation: receives no new traffic; its queued
  backlog is evicted and rerouted; requests already in flight drain on
  the device (fail-stop with drain — no admitted request is dropped).

:func:`build_shard` and :func:`fault_driver` are shared by both cluster
drivers, the serial session and the epoch-parallel runner.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from ..platform.cluster import ClusterConfig, FaultSpec
from ..platform.config import PlatformConfig
from ..serve.backends import ServingBackend
from ..serve.frontend import ServingFrontend
from ..serve.session import ServingScenario, build_serving_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.slo import SLOTracker
    from ..sim.engine import Environment


class DeviceHealth(Enum):
    """Health state of one device shard."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


class DeviceShard:
    """One device of the fleet: backend + front-end + health + counters."""

    def __init__(self, index: int, config: PlatformConfig,
                 backend: ServingBackend, frontend: ServingFrontend,
                 tracker: "SLOTracker"):
        self.index = index
        self.config = config
        self.backend = backend
        self.frontend = frontend
        self.tracker = tracker
        self.health = DeviceHealth.HEALTHY
        # Routing counters (cluster-level bookkeeping, not SLO accounting).
        self.routed = 0          # requests the dispatcher sent here
        self.rerouted_in = 0     # backlog records adopted from failed peers
        self.rerouted_out = 0    # backlog records evicted on failure
        # Elastic-fleet lifecycle (all no-ops on a static fleet).
        self.warming = False     # provisioned but still out of placement
        self.draining = False    # scale-down victim: no new traffic
        self.retired = False     # drained and finished; meter stopped
        self.activated_at = 0.0  # when the device started costing
        self.retired_at: float | None = None

    # -- ShardView surface (what placement policies observe) ----------------
    @property
    def queued(self) -> int:
        """Requests waiting in this shard's front-end queues."""
        return self.frontend.total_queued

    @property
    def in_flight(self) -> int:
        """Requests executing on this shard's backend."""
        return self.backend.in_flight

    @property
    def capacity(self) -> int:
        """Current dispatch capacity (health derating applied)."""
        return self.frontend.dispatch_capacity

    @property
    def energy_j(self) -> float:
        """Energy this shard's device has consumed (joules)."""
        return self.backend.energy_j

    # -- health ---------------------------------------------------------------
    @property
    def routable(self) -> bool:
        """Whether the dispatcher may send this shard new traffic.

        Failed devices are out of rotation (PR-3 fault path); elastic
        fleets additionally exclude devices still warming up and
        scale-down victims draining toward retirement.
        """
        return (self.health is not DeviceHealth.FAILED
                and not self.warming and not self.draining
                and not self.retired)

    def apply_health(self, state: DeviceHealth,
                     degraded_capacity_factor: float) -> bool:
        """Switch health state and derate/restore dispatch capacity.

        Returns ``False`` and changes nothing when a failed device fails
        again: re-zeroing its capacity would wedge a device that is
        self-draining its backlog (the no-peer fallback restores it).
        What happens to a failed shard's backlog is the driver's job
        (it owns the placement policy); this only flips the local state.
        """
        if state is DeviceHealth.FAILED \
                and self.health is DeviceHealth.FAILED:
            return False
        self.health = state
        if state is DeviceHealth.HEALTHY:
            self.frontend.capacity_limit = None
        elif state is DeviceHealth.DEGRADED:
            self.frontend.capacity_limit = max(
                1, int(self.backend.capacity * degraded_capacity_factor))
        else:  # FAILED: no new dispatches; in-flight work drains.
            self.frontend.capacity_limit = 0
        # Capacity may have grown: let the dispatcher re-evaluate.
        self.frontend._kick()
        return True


def build_shard(scenario: ServingScenario, cluster: ClusterConfig,
                index: int, env: "Environment", tracker_cls: type, /,
                **tracker_args) -> DeviceShard:
    """Device shard ``index`` of ``cluster``, built on ``env``.

    The one shard factory of both cluster drivers: the serial session
    passes a fleet-forwarding tracker class, the parallel runner an
    epoch-buffering one (``tracker_args`` are that class's own
    arguments).  The tracker's reservoir seed is a pure function of the
    scenario seed and the index, offset past the fleet tracker's
    per-tenant range, so elastic and parallel runs stay byte-comparable
    with serial ones.
    """
    tenants = [t.name for t in scenario.tenants]
    config = cluster.device_config(index)
    backend = build_serving_backend(scenario, config, env=env)
    tracker = tracker_cls(tenants=tenants,
                          reservoir_capacity=scenario.reservoir_capacity,
                          seed=scenario.seed + 1000 * (index + 1),
                          **tracker_args)
    frontend = ServingFrontend(env, backend, scenario.make_admission(),
                               tracker, tenants,
                               dispatch=scenario.make_dispatch())
    return DeviceShard(index, config, backend, frontend, tracker)


def fault_driver(env: "Environment",
                 faults: Sequence[Tuple[int, FaultSpec]],
                 apply: Callable[[int, FaultSpec], None]):
    """Process generator: call ``apply(ordinal, fault)`` at each fault time.

    ``faults`` are :meth:`~repro.platform.cluster.ClusterConfig.
    ordered_faults` pairs (or a per-device slice of them).
    """
    for ordinal, fault in faults:
        delay = fault.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        apply(ordinal, fault)
