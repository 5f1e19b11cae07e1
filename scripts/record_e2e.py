#!/usr/bin/env python
"""The end-to-end trajectory as data: one record per PR, workload, metric.

``record_e2e.py RUNS_A RUNS_B --pr N`` reads the two run directories
``python3 -m perfbench compare RUNS_A RUNS_B`` reads (A = parent, B =
change) and appends to the committed ``BENCH_e2e.json``, per workload
and end-to-end metric of ``BENCHMARK.json``::

    {"pr": N, "parent_commit": "5fa7f4a", "commit": null,
     "workload": "serve-read", "metric": "jobs_per_s",
     "parent": [q1, median, q3, n], "change": [q1, median, q3, n],
     "verdict": "better"}

Recorded from a clean tree, ``commit`` is HEAD and ``parent_commit``
HEAD~1; from a dirty tree the change has no hash yet, so ``commit`` is
``null`` (the commit that adds the record is the one it measures) and
``parent_commit`` is HEAD.  Loading and judging are ``perfbench.compare``'s
(``load_runs`` / ``verdict``); nothing is re-parsed here.

``record_e2e.py --check`` (CI) fails on a schema error, a workload or
metric ``BENCHMARK.json`` does not name, or a ``pr`` sequence that
ever steps down.  On a valid file it also prints, per workload and
metric, the chained change/parent median ratio since the first
record's parent: levels move with the host, but each record's ratio
is measured on one host, so their product reads the trajectory across
hosts.

Usage: python scripts/record_e2e.py RUNS_A RUNS_B --pr N
       python scripts/record_e2e.py --check
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import measure  # noqa: E402
from perfbench.compare import load_runs, verdict  # noqa: E402
from perfbench.spec import load_manifest  # noqa: E402

BENCH_FILE = os.path.join(ROOT, "BENCH_e2e.json")
VERDICTS = ("same", "better", "worse", "unresolved")
FIELDS = ("pr", "parent_commit", "commit", "workload", "metric",
          "parent", "change", "verdict")


def _git(*args: str) -> str:
    return subprocess.run(("git", "-C", ROOT) + args, check=True,
                          capture_output=True, text=True).stdout.strip()


def _summary(values):
    # six significant digits: what `compare` can tell apart, not noise
    return [*(float(f"{q:.6g}") for q in measure.quartiles(values)),
            len(values)]


def load_records():
    if not os.path.exists(BENCH_FILE):
        return []
    with open(BENCH_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(records, manifest):
    """Every reason ``records`` is not a valid trajectory."""
    if not isinstance(records, list):
        return ["top level is not a list"]
    problems = []
    metrics = {m.name for m in manifest.end_to_end}
    last_pr = None
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or tuple(rec) != FIELDS:
            problems.append(f"record {i}: fields are not {list(FIELDS)}")
            continue
        where = f"record {i} (pr {rec['pr']!r})"
        if type(rec["pr"]) is not int:
            problems.append(f"{where}: pr is not an int")
        elif last_pr is not None and rec["pr"] < last_pr:
            problems.append(f"{where}: pr steps down from {last_pr}")
        else:
            last_pr = rec["pr"]
        if not isinstance(rec["parent_commit"], str):
            problems.append(f"{where}: parent_commit is not a string")
        if not isinstance(rec["commit"], (str, type(None))):
            problems.append(f"{where}: commit is not a string or null")
        if rec["workload"] not in manifest.workloads:
            problems.append(f"{where}: unknown workload "
                            f"{rec['workload']!r}")
        if rec["metric"] not in metrics:
            problems.append(f"{where}: unknown metric {rec['metric']!r}")
        for side in ("parent", "change"):
            cell = rec[side]
            if not (isinstance(cell, list) and len(cell) == 4
                    and all(type(x) in (int, float) for x in cell)
                    and type(cell[3]) is int and cell[3] >= 1
                    and cell[0] <= cell[1] <= cell[2]):
                problems.append(f"{where}: {side} is not "
                                f"[q1 <= median <= q3, n >= 1]")
        if rec["verdict"] not in VERDICTS:
            problems.append(f"{where}: unknown verdict "
                            f"{rec['verdict']!r}")
    return problems


def chained(records):
    """``{(workload, metric): (product of change/parent medians, PRs)}``
    over every record whose parent median is not zero."""
    out = {}
    for rec in records:
        parent, change = rec["parent"][1], rec["change"][1]
        if parent:
            key = (rec["workload"], rec["metric"])
            ratio, prs = out.get(key, (1.0, 0))
            out[key] = (ratio * change / parent, prs + 1)
    return out


def record(runs_a, runs_b, pr, parent_commit, commit, manifest):
    a, b = load_runs(runs_a), load_runs(runs_b)
    out = []
    for workload in manifest.workloads:
        for metric in manifest.end_to_end:
            va = a.get(workload, {}).get(metric.name)
            vb = b.get(workload, {}).get(metric.name)
            if not va or not vb:
                continue
            out.append({"pr": pr, "parent_commit": parent_commit,
                        "commit": commit, "workload": workload,
                        "metric": metric.name, "parent": _summary(va),
                        "change": _summary(vb),
                        "verdict": verdict(va, vb, metric)})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="*", metavar="RUNS",
                        help="RUNS_A (parent) and RUNS_B (change)")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--check", action="store_true",
                        help="validate BENCH_e2e.json and exit")
    args = parser.parse_args(argv)
    manifest = load_manifest()
    records = load_records()
    if args.check:
        problems = check(records, manifest)
        for problem in problems:
            print(f"BENCH_e2e.json: {problem}")
        if not problems:
            print(f"BENCH_e2e.json: {len(records)} records OK")
            if records:
                print(f"change/parent median, chained since pr "
                      f"{records[0]['pr']}'s parent:")
            for (workload, metric), (ratio, prs) in sorted(
                    chained(records).items()):
                print(f"  {workload:<18} {metric:<12} {ratio:6.3f}x "
                      f"over {prs} PRs")
        return 1 if problems else 0
    if len(args.runs) != 2 or args.pr is None:
        parser.error("recording needs RUNS_A RUNS_B --pr N")
    # a dirty tree is the change itself, measured before it has a hash
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    parent = _git("rev-parse", "--short", "HEAD" if dirty else "HEAD~1")
    commit = None if dirty else _git("rev-parse", "--short", "HEAD")
    new = record(*args.runs, args.pr, parent, commit, manifest)
    if not new:
        print("no workload has runs on both sides; nothing recorded")
        return 1
    records += new
    problems = check(records, manifest)
    if problems:
        print("\n".join(problems))
        return 1
    with open(BENCH_FILE, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records)
                 + "\n]\n")
    print(f"BENCH_e2e.json: +{len(new)} records for pr {args.pr} "
          f"({len(records)} total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
