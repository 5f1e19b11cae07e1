"""``python3 -m perfbench compare <runs-A> <runs-B>``: did B get worse?

Each argument is a directory holding run directories (anything with a
``metrics.json`` of an untraced, full-size run below it).  Per workload
and end-to-end metric the tool prints both sides' medians and quartiles
and a verdict against the metric's bound in ``BENCHMARK.json``:

``same``        medians within the bound of each other
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  the run-to-run spread is wider than the bound, so a
                difference of the bound's size cannot be seen — unless
                every run of one side beats every run of the other

The exit code is non-zero when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

from . import measure
from .spec import Manifest, MetricDef

Runs = Dict[str, Dict[str, List[float]]]   # workload -> metric -> values


def load_runs(path: str) -> Runs:
    """End-to-end values of every untraced full-size run under ``path``."""
    runs: Runs = {}
    for dirpath, _, files in sorted(os.walk(path)):
        if "metrics.json" not in files:
            continue
        with open(os.path.join(dirpath, "metrics.json"), "r",
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("trace") or doc.get("quick"):
            continue
        per_metric = runs.setdefault(doc["workload"], {})
        for name, m in doc["end_to_end"].items():
            per_metric.setdefault(name, []).append(float(m["value"]))
    return runs


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median; (max - min) over the
    median when there are too few runs for quartiles to mean much."""
    mid = measure.median(values)
    if mid == 0 or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = measure.quartiles(values)
    return (q3 - q1) / abs(mid)


def verdict(a: Sequence[float], b: Sequence[float], metric: MetricDef
            ) -> str:
    """Compare side B to side A for one metric (see the module doc)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    med_a, med_b = measure.median(a), measure.median(b)
    if med_a == 0:
        return "same" if med_b == 0 else "unresolved"
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if max(spread(a), spread(b)) > metric.bound:
        # too noisy for the medians to speak; a clean separation of
        # every run still does
        if all(sign * (y - x) < 0 for x in a for y in b) \
                and worse_by < -metric.bound:
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b) \
                and worse_by > metric.bound:
            return "worse"
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def _cell(values: Sequence[float]) -> str:
    q1, mid, q3 = measure.quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(runs_a: str, runs_b: str, manifest: Manifest) -> int:
    a, b = load_runs(runs_a), load_runs(runs_b)
    worse = 0
    print(f"{'workload':18s} {'metric':22s} {'verdict':11s} "
          f"A median [q1, q3]  |  B median [q1, q3]")
    for workload in manifest.workloads:
        for metric in manifest.end_to_end:
            va = a.get(workload, {}).get(metric.name)
            vb = b.get(workload, {}).get(metric.name)
            if not va or not vb:
                print(f"{workload:18s} {metric.name:22s} {'missing':11s}")
                continue
            result = verdict(va, vb, metric)
            worse += result == "worse"
            print(f"{workload:18s} {metric.name:22s} {result:11s} "
                  f"{_cell(va)}  |  {_cell(vb)}  {metric.unit}")
    return 1 if worse else 0
