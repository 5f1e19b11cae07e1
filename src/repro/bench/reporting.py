"""Plain-text reporting helpers for the benchmark harness.

Each figure bench prints the same rows/series the paper plots, as aligned
text tables, so ``pytest benchmarks/ --benchmark-only -s`` regenerates the
full evaluation section on stdout.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                title: Optional[str] = None) -> None:
    print()
    print(format_table(headers, rows, title))
    print()


def _fmt(cell: Any) -> str:
    if cell is None:
        return "OOM"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def speedup(baseline_ms: float, other_ms: float) -> float:
    """How many times faster ``other`` is than ``baseline``."""
    if other_ms <= 0:
        return float("inf")
    return baseline_ms / other_ms
