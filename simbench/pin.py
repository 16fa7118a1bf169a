#!/usr/bin/env python3
"""Pin the reference-path report digests the benchmark checks against.

Run from the repository root after a change that is *meant* to alter
simulated results (the change must say so; a speed-only change must
leave every pin untouched)::

    python3 simbench/pin.py --workload batch_mixes
    python3 simbench/pin.py --workload serve_steady --seeds 0-31
    python3 simbench/pin.py --workload fleet_faults --seeds 0-31

Each call runs the workload's reference path (``run_system`` per
(mix, system), ``run_serving``, serial ``run_cluster``) for the given
seeds plus the default seed, and merges the digests into
``simbench/pins.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import PINS_PATH, WORKLOADS, digest  # noqa: E402


def seed_list(text: str):
    seeds = set()
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return sorted(seeds)


def pins_for(name: str, seeds):
    pins = {}
    for seed in seeds:
        workload = WORKLOADS[name](seed)
        for key in workload.reference_keys():
            if key not in pins:
                pins[key] = digest(workload.reference_op(key)[1])
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", default="",
                        help="e.g. 0-31,40 (the default seed is added)")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds) if args.seeds else []
    seeds = sorted(set(seeds) | {WORKLOADS[args.workload].default_seed})
    fresh = pins_for(args.workload, seeds)
    # Read just before writing, so pinning workloads concurrently is safe.
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    pins.setdefault(args.workload, {}).update(fresh)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: pinned {len(fresh)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
