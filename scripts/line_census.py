#!/usr/bin/env python
"""Line census: the executable lines of ``src/repro`` tier-1 never runs.

Runs the test suite in this process under a ``sys.settrace`` hook (and
``threading.settrace``, so the wire server's threads count too).  The
global hook hands a local tracer only to frames whose code lives under
``src/repro``, so test code and third-party frames cost one call each.
A module's executable lines are the line numbers its compiled code
objects map to (``co_lines``); a line is *unrun* when no traced frame
ever reported it.

It needs no package beyond the standard library and pytest, and takes a
few times tier-1's wall time; it is kept out of tier-1.

Usage::

    python scripts/line_census.py

Prints, for every module with an unrun line, its executable and unrun
line counts and the unrun line numbers.
"""

import os
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PREFIX = str(PACKAGE) + os.sep


def executable_lines(path: Path) -> Set[int]:
    """Line numbers the module's code objects can report as run."""
    lines: Set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace() -> Dict[str, Set[int]]:
    """Run the test suite under the tracer; filename -> lines that ran."""
    import pytest

    seen: Dict[str, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        # the def/class line of a function runs when it is entered
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code not in (0, 1):
        raise SystemExit(f"pytest exited with {code}")
    return seen


def ranges(lines: Iterable[int]) -> str:
    """``1-3,7`` form of a set of line numbers."""
    out: List[str] = []
    start = prev = None
    for n in sorted(lines):
        if prev is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = n
    if start is not None:
        out.append(str(start) if start == prev else f"{start}-{prev}")
    return ",".join(out)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    seen = trace()

    total = unrun_total = 0
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        unrun = lines - seen.get(str(path), set())
        total += len(lines)
        unrun_total += len(unrun)
        rows.append((path.relative_to(PACKAGE).as_posix(), lines, unrun))
    print()
    print(f"{'module':<40} {'lines':>6} {'unrun':>6}")
    for name, lines, unrun in rows:
        if not unrun:
            continue
        print(f"{name:<40} {len(lines):>6} {len(unrun):>6}")
        print(f"    {ranges(unrun)}")
    print(f"{'total':<40} {total:>6} {unrun_total:>6} "
          f"({100.0 * unrun_total / max(total, 1):.1f} % unrun)")


if __name__ == "__main__":
    main()
