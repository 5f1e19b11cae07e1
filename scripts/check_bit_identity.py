#!/usr/bin/env python
"""Bit-identity oracle: every figure runner, batched core vs per-event.

Runs each experiment twice — once with the default batched event loop
(``BatchedScheduler``) and once with the per-event oracle forced — and
asserts the returned rows are *exactly* equal (repr comparison, so
float outputs must match bit for bit).  Shrunk parameters keep the
sweep CI-sized while still covering every figure family plus the
fault/straggler/topology/serve soaks (fault injection included).

``--dump rows.json`` also writes the batched rows (``repr`` per runner
name); ``--against rows.json`` additionally compares them with a dump
taken elsewhere — "parent vs change" is ``--dump`` at the parent commit
and ``--against`` at the change.

Usage: PYTHONPATH=src python scripts/check_bit_identity.py
           [--dump rows.json] [--against rows.json]
"""

import argparse
import json
import sys
import tempfile

import repro.core.agent as agent_mod
from repro import bench
from repro.ipc import BatchedScheduler, Scheduler


EXPERIMENTS = [
    ("fig8", lambda: bench.run_fig8(num_nodes=2)),
    ("fig9a", lambda: bench.run_fig9a(gpu_counts=(1, 2))),
    ("fig9b", lambda: bench.run_fig9b(datasets=("twitter",),
                                      gpu_counts=(2, 3))),
    ("fig9c", lambda: bench.run_fig9c(gpu_counts=(1, 2))),
    ("fig9d", lambda: bench.run_fig9d()),
    ("fig10", lambda: bench.run_fig10(num_nodes=2)),
    ("fig11a", lambda: bench.run_fig11a(num_nodes=2)),
    ("fig11b", lambda: bench.run_fig11b(num_nodes=2)),
    ("fig12a", lambda: bench.run_fig12a()),
    ("fig12b", lambda: bench.run_fig12b(
        load_splits=((0.5, 0.5), (0.7, 0.3)))),
    ("fig13", lambda: bench.run_fig13(iterations=3)),
    ("fig14", lambda: bench.run_fig14(node_counts=(1, 2),
                                      engines=("powergraph",))),
    ("fig15", lambda: bench.run_fig15(s_values=(1, 5, 20))),
    ("table1", bench.run_table1),
    ("fault_overhead", lambda: bench.run_fault_overhead(num_nodes=2)),
    ("fault_soak", lambda: bench.run_fault_soak(rates=(0.0, 0.2),
                                                max_iter=6)),
    ("fault_soak_topo", lambda: bench.run_fault_soak(
        rates=(0.0, 0.2), max_iter=6, topology="rack:2x1")),
    ("straggler_soak", lambda: bench.run_straggler_soak(passes=4,
                                                       max_iter=6)),
    ("topology_soak", lambda: bench.run_topology_soak(passes=30,
                                                      max_iter=8)),
    ("serve_soak", lambda: bench.run_serve_soak(waves=2, max_iter=6)),
    ("serve_chaos", lambda: bench.run_serve_chaos(
        seeds=(11, 23), max_iter=6,
        journal_dir=tempfile.mkdtemp(prefix="bitid-chaos-"))),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="ROWS_JSON",
                        help="write {runner: repr(rows)} to this file")
    parser.add_argument("--against", metavar="ROWS_JSON",
                        help="also require rows equal to this dump")
    args = parser.parse_args(argv)
    reference = None
    if args.against:
        with open(args.against) as fh:
            reference = json.load(fh)
    rows = {}
    failures = []
    for name, fn in EXPERIMENTS:
        agent_mod.BatchedScheduler = BatchedScheduler
        batched = fn()
        # force the per-event oracle
        agent_mod.BatchedScheduler = Scheduler
        per_event = fn()
        agent_mod.BatchedScheduler = BatchedScheduler
        ok = repr(batched) == repr(per_event)
        print(f"{name:18s} {'bit-identical' if ok else 'DIVERGED'}")
        if not ok:
            failures.append(name)
            print(f"  batched:   {batched!r}"[:400])
            print(f"  per-event: {per_event!r}"[:400])
        rows[name] = repr(batched)
        if reference is not None and reference.get(name) != rows[name]:
            failures.append(f"{name} (vs {args.against})")
            print(f"  {name}: rows differ from {args.against}")
            print(f"  here:  {rows[name]}"[:400])
            print(f"  there: {reference.get(name)}"[:400])
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(rows, fh, indent=1)
    if failures:
        print(f"FAIL: {len(failures)} diverged: {', '.join(failures)}")
        return 1
    print(f"OK: {len(EXPERIMENTS)} experiments bit-identical "
          f"across both event-loop cores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
