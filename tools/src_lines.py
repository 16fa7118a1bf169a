#!/usr/bin/env python3
"""Count the non-blank lines of ``src/`` per package and in total.

Prints a Markdown table: one row per top-level package of ``repro``
(subpackages fold into their parent; modules directly under ``repro/``
count as ``repro``) and a total row.  With ``--base <git-ref>`` the
table adds the count at that ref (read with ``git ls-tree``/``git show``,
no second checkout) and the change from it, so a pull request shows
what it added and deleted.  It is a report, not a gate: the CI
perf-smoke job appends it to the job summary next to the perf numbers,
so the size of the code is tracked alongside its speed.  Run locally
with:

    python tools/src_lines.py
    python tools/src_lines.py --base origin/main
"""

from __future__ import annotations

import argparse
import subprocess
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _package(parts: Tuple[str, ...]) -> str:
    """Package a file under ``src/`` counts toward, from its path parts."""
    return ".".join(parts[:2]) if len(parts) > 2 else parts[0]


def _non_blank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def _tally(files: Iterable[Tuple[Tuple[str, ...], str]]) -> Counter:
    counts: Counter = Counter()
    for parts, text in files:
        counts[_package(parts)] += _non_blank(text)
    return counts


def count_lines(src: Path = SRC) -> Counter:
    """Non-blank lines of every ``*.py`` file under ``src``, per package."""
    return _tally((path.relative_to(src).parts,
                   path.read_text(encoding="utf-8"))
                  for path in sorted(src.rglob("*.py")))


def _git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def count_lines_at(ref: str) -> Counter:
    """Like :func:`count_lines`, for ``src/`` as committed at ``ref``."""
    paths = [path for path in _git("ls-tree", "-r", "--name-only", ref,
                                   "--", "src").splitlines()
             if path.endswith(".py")]
    return _tally((Path(path).relative_to("src").parts,
                   _git("show", f"{ref}:{path}")) for path in paths)


def format_table(counts: Counter, base: Optional[Counter] = None) -> str:
    """The Markdown report; ``base`` adds the base and delta columns."""
    lines = ["## Source lines (non-blank, `src/`)", ""]
    if base is None:
        lines += ["| package | lines |", "|---|---:|"]
        lines += [f"| `{package}` | {count:,} |"
                  for package, count in sorted(counts.items())]
        lines.append(f"| **total** | **{sum(counts.values()):,}** |")
        return "\n".join(lines)
    lines += ["| package | base | lines | Δ |", "|---|---:|---:|---:|"]
    for package in sorted(set(counts) | set(base)):
        lines.append(f"| `{package}` | {base[package]:,} | "
                     f"{counts[package]:,} | "
                     f"{counts[package] - base[package]:+,} |")
    total, base_total = sum(counts.values()), sum(base.values())
    lines.append(f"| **total** | **{base_total:,}** | **{total:,}** | "
                 f"**{total - base_total:+,}** |")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="GIT_REF",
                        help="also count src/ at this git ref and show "
                             "the change from it")
    args = parser.parse_args()
    base = count_lines_at(args.base) if args.base else None
    print(format_table(count_lines(), base))


if __name__ == "__main__":
    main()
