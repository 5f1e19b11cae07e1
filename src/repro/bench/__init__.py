"""Benchmark harness: experiment runners + text reporting."""

from .reporting import format_table, print_table, speedup
from .hotpath import (
    PROFILES,
    check_regression,
    format_report,
    load_bench_json,
    merge_entry,
    run_hotpath_bench,
    write_bench_json,
)
from .schedbench import format_scheduler_report, run_scheduler_bench
from . import figures
from .figures import *  # noqa: F401,F403

__all__ = [
    "format_table",
    "print_table",
    "speedup",
    *figures.__all__,
    "run_hotpath_bench",
    "format_report",
    "write_bench_json",
    "load_bench_json",
    "merge_entry",
    "check_regression",
    "PROFILES",
    "run_scheduler_bench",
    "format_scheduler_report",
]
