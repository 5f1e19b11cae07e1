"""Small measuring helpers: order statistics, memory, environment and
the quiet-machine guard."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from . import ROOT

#: percentiles above the median are reported only from this many samples
P90_MIN_SAMPLES = 100


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def typical(samples: Mapping[Any, Sequence[float]]) -> float:
    """The typical sample of a mix of kinds: each kind's median,
    averaged with the kinds' sample counts as weights.

    Job walls here are multi-modal — a cache hit, a warm start and a
    cold PageRank differ by an order of magnitude — so the plain median
    of all samples sits in a gap between two modes and jumps with the
    slightest change of the mix.  Medians within a kind shrug off
    outliers; the weighted mean across kinds moves smoothly.
    """
    total = sum(len(v) for v in samples.values())
    if not total:
        return 0.0
    return sum(median(v) * len(v) for v in samples.values()) / total


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, or 0 with fewer than
    :data:`P90_MIN_SAMPLES` samples (too few lie beyond it)."""
    if len(values) < P90_MIN_SAMPLES:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), 90))


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water RSS of ``pid`` (default: this process) in MiB."""
    path = f"/proc/{pid if pid is not None else os.getpid()}/status"
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def reset_peak_rss() -> None:
    """Start this process's high-water RSS afresh: ``all`` runs every
    workload in one process, and the mark is the process's."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass        # the mark then covers the earlier workloads too


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _probe_s() -> float:
    """One fixed numpy probe: sort + matmul on constant inputs."""
    rng = np.random.default_rng(0)
    a = rng.random(200_000)
    m = rng.random((160, 160))
    t0 = time.perf_counter()
    np.sort(a)
    (m @ m).sum()
    return time.perf_counter() - t0


def quiet_guard(max_wait_s: float = 3.0) -> Dict[str, Any]:
    """Check the machine is quiet before timing anything.

    Runs the probe a few times for its best, then requires one more
    probe within 1.5x of that best and ``load1 <= nproc``; otherwise
    waits (at most ``max_wait_s``) and re-checks.  A machine that stays
    busy is stamped ``noisy`` rather than silently measured.
    """
    nproc = os.cpu_count() or 1
    best = min(_probe_s() for _ in range(5))
    deadline = time.monotonic() + max_wait_s
    while True:
        load1 = os.getloadavg()[0]
        now = _probe_s()
        best = min(best, now)
        noisy = load1 > nproc or now > 1.5 * best
        if not noisy or time.monotonic() >= deadline:
            return {"noisy": noisy, "load1": load1,
                    "probe_ms": now * 1e3, "probe_best_ms": best * 1e3}
        time.sleep(0.5)


def environment(seed: int, guard: Dict[str, Any]) -> Dict[str, Any]:
    """The ``env.json`` document of one run."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "argv": sys.argv[1:],
        "load1_at_start": guard["load1"],
        "noisy": guard["noisy"],
        "probe_ms": guard["probe_ms"],
        "probe_best_ms": guard["probe_best_ms"],
    }
