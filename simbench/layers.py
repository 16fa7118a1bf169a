"""The traced run: per-layer host-time budget from :class:`LayerTracer`.

Per-layer metrics, all measured on the workload's traced op list:

* ``<layer>.self_share`` — the layer's self time over the traced ops'
  host time; with ``unattributed_share`` these add up to 1.
* ``<layer>.calls`` — invocations of the layer's public functions.
* ``<layer>.self_us_per_call`` — self time per public call.
* counters read from the reports (``core.range_lock.conflicts``,
  ``cluster.health.rerouted``, ``serve.admission.rejected_ratio``) and
  from the tracer (``core.storengine.gc_runs``, ``platform.builder.builds``,
  ``cluster.parallel.epochs``).
* ``trace_overhead_pct`` — traced over untraced host time of the same
  ops, minus one.

Under the traced run the fleet's parallel runner uses one worker, so
every shard runs in this process and no epoch payload crosses a pipe.
:class:`CodecProbe` therefore packs, pickles, unpickles and unpacks each
epoch's payloads exactly as a forked worker pool would, inside its own
span, to measure ``cluster.parallel.codec_share`` and
``cluster.parallel.ipc_bytes_per_epoch``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from layertrace import LayerTracer
from workloads import Checks, Op

#: Modules whose self time is reported as ``<module>.self_share``.
SHARE_LAYERS = (
    "sim.engine", "sim.resources", "sim.stats", "sim.fastforward",
    "hw.lwp", "hw.power", "hw.memory", "hw.pcie", "hw.interconnect",
    "flash.ftl", "flash.geometry", "flash.backbone", "flash.channel",
    "flash.package", "flash.controller",
    "core.accelerator", "core.flashvisor", "core.range_lock",
    "core.execution_chain", "core.storengine", "core.schedulers",
    "core.kernel", "core.offload",
    "baseline.system", "baseline.ssd", "baseline.storage_stack",
    "baseline.host",
    "platform.builder", "platform.config",
    "serve.session", "serve.frontend", "serve.admission", "serve.dispatch",
    "serve.backends", "serve.slo", "serve.arrivals", "serve.fastforward",
    "cluster.session", "cluster.dispatcher", "cluster.health",
    "cluster.placement", "cluster.parallel",
)

#: ``(layer, "calls" | "self_us_per_call")`` pairs reported by name.
CALL_METRICS = (
    ("sim.resources", "calls"),
    ("hw.lwp", "calls"),
    ("flash.ftl", "calls"), ("flash.ftl", "self_us_per_call"),
    ("flash.geometry", "calls"),
    ("core.flashvisor", "calls"), ("core.flashvisor", "self_us_per_call"),
    ("core.range_lock", "calls"), ("core.range_lock", "self_us_per_call"),
    ("core.execution_chain", "calls"),
)

#: Every per-layer metric: ``(name, unit, better)``.
PER_LAYER: List[Tuple[str, str, str]] = (
    [("sim.engine.events_per_op", "count", "lower"),
     ("sim.engine.self_us_per_event", "us", "lower")]
    + [(f"{layer}.{kind}", "count" if kind == "calls" else "us", "lower")
       for layer, kind in CALL_METRICS]
    + [(f"{layer}.self_share", "fraction", "lower")
       for layer in SHARE_LAYERS]
    + [("core.range_lock.conflicts", "count", "lower"),
       ("core.storengine.gc_runs", "count", "lower"),
       ("platform.builder.builds", "count", "lower"),
       ("platform.builder.ms_per_build", "ms", "lower"),
       ("serve.arrivals.generate_ms", "ms", "lower"),
       ("serve.frontend.self_us_per_submit", "us", "lower"),
       ("serve.slo.self_us_per_completion", "us", "lower"),
       ("serve.admission.rejected_ratio", "fraction", "lower"),
       ("serve.fastforward.warmup_share", "fraction", "lower"),
       ("cluster.dispatcher.self_us_per_route", "us", "lower"),
       ("cluster.health.rerouted", "count", "lower"),
       ("cluster.parallel.epochs", "count", "lower"),
       ("cluster.parallel.ipc_bytes_per_epoch", "bytes", "lower"),
       ("cluster.parallel.codec_share", "fraction", "lower"),
       ("cluster.parallel.coordinator_share", "fraction", "lower"),
       ("unattributed_share", "fraction", "lower"),
       ("trace_overhead_pct", "%", "lower")])

_WARMUP_FN = ("serve.session", "drive_until_settled")
_CODEC = ("cluster.parallel", "codec (pack, pickle, unpickle, unpack)")


class CodecProbe:
    """Ships every parallel-runner epoch payload through the worker codec."""

    def __init__(self) -> None:
        self.bytes = 0
        self.epochs = 0

    def install(self, tracer: LayerTracer) -> None:
        from repro.cluster import parallel

        def roundtrip(results: Dict[int, Dict[str, Any]]) -> int:
            blob = pickle.dumps(
                {index: parallel.pack_shard_result(payload)
                 for index, payload in results.items()},
                protocol=pickle.HIGHEST_PROTOCOL)
            for packed in pickle.loads(blob).values():
                parallel.unpack_shard_result(packed)
            return len(blob)
        codec = tracer.traced(*_CODEC, roundtrip)

        def ship(results: Dict[int, Dict[str, Any]]) -> None:
            self.bytes += codec(results)
            self.epochs += 1

        for method in ("run_epoch", "settle"):
            tracer.wrap_after(parallel._ShardGroup, method, ship)


@dataclass
class TracedOp:
    name: str
    wall_s: float
    result: Any
    warmup_s: float


def run_ops(ops: Sequence[Op], tracer: LayerTracer = None
            ) -> List[TracedOp]:
    """Run each op once; with a tracer, also note its warm-up time.

    Checks are left to :func:`check_runs`, so that with a tracer
    installed only the ops themselves are traced.
    """
    runs = []
    for name, call, _ in ops:
        before = tracer.function(*_WARMUP_FN)[2] if tracer else 0.0
        start = perf_counter()
        _, result = call()
        wall = perf_counter() - start
        after = tracer.function(*_WARMUP_FN)[2] if tracer else 0.0
        runs.append(TracedOp(name, wall, result, after - before))
    return runs


def check_runs(ops: Sequence[Op], runs: Sequence[TracedOp],
               checks: Checks) -> None:
    for (name, _, check), run in zip(ops, runs):
        checks.op(name, check(run.result))


def per_layer_metrics(tracer: LayerTracer, traced: Sequence[TracedOp],
                      reference: Sequence[TracedOp], probe: CodecProbe,
                      events: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where a layer did no work)."""
    wall = sum(run.wall_s for run in traced)
    totals = tracer.layer_totals()

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return int(totals.get(layer, {}).get("calls", 0))

    def per(numerator: float, denominator: float, scale: float = 1.0
            ) -> float:
        return scale * numerator / denominator if denominator else 0.0

    def fn(layer: str, qualname: str) -> Tuple[int, float, float]:
        try:
            return tracer.function(layer, qualname)
        except KeyError:
            return 0, 0.0, 0.0

    metrics: Dict[str, float] = {
        "sim.engine.events_per_op": per(events, len(traced)),
        "sim.engine.self_us_per_event": per(self_s("sim.engine"), events,
                                            1e6),
    }
    for layer, kind in CALL_METRICS:
        metrics[f"{layer}.{kind}"] = (
            calls(layer) if kind == "calls"
            else per(self_s(layer), calls(layer), 1e6))
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = per(self_s(layer), wall)

    offered = rejected = completed = conflicts = reroutes = 0
    for report in (run.result for run in traced):
        stats = [report.scheduler_stats] if hasattr(
            report, "scheduler_stats") else []
        stats += [device.scheduler_stats
                  for device in getattr(report, "devices", [])]
        conflicts += sum(s.get("lock_conflicts", 0) for s in stats)
        if hasattr(report, "offered"):
            offered += report.offered
            rejected += report.rejected
            completed += report.completed
        reroutes += getattr(report, "reroutes", 0)
    metrics["core.range_lock.conflicts"] = int(conflicts)
    metrics["core.storengine.gc_runs"] = fn(
        "core.storengine", "Storengine._collect_garbage")[0]

    builds = [fn("platform.builder", f"PlatformBuilder.{name}")
              for name in ("build_flashabacus_substrate",
                           "build_baseline_substrate")]
    build_count = sum(b[0] for b in builds)
    metrics["platform.builder.builds"] = build_count
    metrics["platform.builder.ms_per_build"] = per(
        sum(b[2] for b in builds), build_count, 1e3)
    generate = [fn("serve.arrivals", f"{cls}.generate")
                for cls in ("ArrivalProcess", "TraceArrivals")]
    metrics["serve.arrivals.generate_ms"] = per(
        sum(g[2] for g in generate), sum(g[0] for g in generate), 1e3)
    metrics["serve.frontend.self_us_per_submit"] = per(
        self_s("serve.frontend"), fn("serve.frontend",
                                     "ServingFrontend.submit")[0], 1e6)
    metrics["serve.slo.self_us_per_completion"] = per(
        self_s("serve.slo"), completed, 1e6)
    metrics["serve.admission.rejected_ratio"] = per(rejected, offered)
    fast_forward = [run for run in traced
                    if getattr(run.result, "fastforward", None)]
    metrics["serve.fastforward.warmup_share"] = per(
        sum(run.warmup_s for run in fast_forward),
        sum(run.wall_s for run in fast_forward))
    metrics["cluster.dispatcher.self_us_per_route"] = per(
        self_s("cluster.dispatcher"), fn("cluster.dispatcher",
                                         "ClusterDispatcher.submit")[0], 1e6)
    metrics["cluster.health.rerouted"] = int(reroutes)
    metrics["cluster.parallel.epochs"] = probe.epochs
    metrics["cluster.parallel.ipc_bytes_per_epoch"] = per(probe.bytes,
                                                          probe.epochs)
    metrics["cluster.parallel.codec_share"] = per(fn(*_CODEC)[2], wall)
    metrics["cluster.parallel.coordinator_share"] = per(
        sum(row[1] for key, row in tracer.snapshot().items()
            if key[0] == "cluster.parallel"
            and key[1].startswith("_Coordinator.")), wall)
    metrics["unattributed_share"] = per(wall - tracer.covered_s(), wall)
    reference_wall = sum(run.wall_s for run in reference)
    metrics["trace_overhead_pct"] = per(wall - reference_wall,
                                        reference_wall, 100.0)
    return metrics
