#!/usr/bin/env python3
"""Count the non-blank lines of ``src/`` per package and in total.

Prints a Markdown table: one row per top-level package of ``repro``
(subpackages fold into their parent; modules directly under ``repro/``
count as ``repro``) and a total row.  It is a report, not a gate: the
CI perf-smoke job appends it to the job summary next to the perf
numbers, so the size of the code is tracked alongside its speed.  Run
locally with:

    python tools/src_lines.py
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def count_lines(src: Path = SRC) -> Counter:
    """Non-blank lines of every ``*.py`` file under ``src``, per package."""
    counts: Counter = Counter()
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).parts
        package = ".".join(parts[:2]) if len(parts) > 2 else parts[0]
        text = path.read_text(encoding="utf-8")
        counts[package] += sum(1 for line in text.splitlines()
                               if line.strip())
    return counts


def main() -> None:
    counts = count_lines()
    print("## Source lines (non-blank, `src/`)")
    print()
    print("| package | lines |")
    print("|---|---:|")
    for package, lines in sorted(counts.items()):
        print(f"| `{package}` | {lines:,} |")
    print(f"| **total** | **{sum(counts.values()):,}** |")


if __name__ == "__main__":
    main()
