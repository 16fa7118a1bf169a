#!/usr/bin/env python3
"""The simulator's benchmark: one workload, timed or traced, checked.

Run from the repository root::

    python3 simbench/run.py --workload serve_steady --seed 11 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload's exact and fast paths for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs the workload's
traced op list once untraced and once under :class:`LayerTracer` and
prints the per-layer metrics.  Either way every op's output is checked,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Human-readable notes go to the lines before it.  The traced run also
writes its per-function table and kept spans to
``.simbench_out/trace-<workload>-seed<seed>.json``.  See
``simbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh-process set-up probes per run (after one untimed warm-up probe
#: that fills the bytecode cache); ``setup_s`` is their median.
SETUP_PROBES = 5

WORKLOAD_NAMES = ("batch_mixes", "serve_steady", "fleet_faults")

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact_items_per_s": "1/s",
    "fast_items_per_s": "1/s",
    "fast_p99_error_factor": "ratio",
    "fast_energy_error_factor": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh process that imports ``repro`` and
    generates the workload's inputs, each probe divided by the mean host
    slowdown measured just before and just after it."""
    from workloads import host_slowdown

    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    subprocess.run(command, check=True, cwd=ROOT, timeout=120)
    samples = []
    before = host_slowdown()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, timeout=120)
        elapsed = perf_counter() - start
        after = host_slowdown()
        samples.append(elapsed / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def timed_run(workload, args, checks):
    setup_s = setup_seconds(args.workload, workload.seed)
    metrics, notes = workload.measure(args.seconds, checks)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in sorted(metrics.items())}, notes


def traced_run(workload, args, checks):
    from layers import PER_LAYER, CodecProbe, check_runs, \
        per_layer_metrics, run_ops
    from layertrace import LayerTracer
    from workloads import OUTPUT_DIR

    # The untraced pass comes first so both passes see warm caches; the
    # wrappers go in after it, before the traced pass builds anything.
    ops = workload.trace_ops(checks)
    reference = run_ops(ops)
    check_runs(ops, reference, checks)
    ops = workload.trace_ops(checks)
    tracer = LayerTracer()
    probe = CodecProbe()
    tracer.install()
    try:
        probe.install(tracer)
        traced = run_ops(ops, tracer)
        events = tracer.take_events()
    finally:
        tracer.uninstall()
    check_runs(ops, traced, checks)
    values = per_layer_metrics(tracer, traced, reference, probe, events)
    path = OUTPUT_DIR / f"trace-{args.workload}-seed{workload.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": workload.seed,
                        "ops": [[run.name, run.wall_s] for run in traced],
                        "metrics": values})
    notes = [f"per-function trace written to {path.relative_to(ROOT)}"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {SRC / 'repro'}; run "
              f"from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Checks

    cls = WORKLOADS[args.workload]
    workload = cls(cls.default_seed if args.seed is None else args.seed)
    if args.setup_probe:
        workload.generate_inputs()
        return 0
    checks = Checks()
    run = traced_run if args.trace else timed_run
    metrics, notes = run(workload, args, checks)
    for line in notes + checks.violations:
        print(line)
    if checks.unpinned:
        print(f"{len(checks.unpinned)} input(s) have no pinned digest; "
              f"checked for run-to-run equality instead")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
