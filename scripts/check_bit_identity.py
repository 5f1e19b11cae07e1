#!/usr/bin/env python
"""Bit-identity oracle: every figure runner, batched core vs per-event.

Runs each experiment twice — once with the default batched event loop
(``BatchedScheduler``) and once with the per-event oracle forced — and
asserts the returned rows are *exactly* equal (repr comparison, so
float outputs must match bit for bit).  The experiments and their
CI-sized parameters are the registry's (``repro.bench.figures.FIGURES``
x each entry's ``quick`` sets): registering a figure adds its row here.

``--dump rows.json`` also writes the batched rows (``repr`` per runner
name); ``--against rows.json`` additionally compares them with a dump
taken elsewhere — "parent vs change" is ``--dump`` at the parent commit
and ``--against`` at the change; names only one side has are reported
(``new row`` passes, ``row gone`` fails), the rest must be equal.

Usage: PYTHONPATH=src python scripts/check_bit_identity.py
           [--dump rows.json] [--against rows.json]
"""

import argparse
import json
import sys

import repro.core.agent as agent_mod
from repro.bench.figures import FIGURES
from repro.ipc import BatchedScheduler, Scheduler


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
    for figure in FIGURES.values():
        for name, kwargs in figure.quick_rows():
            agent_mod.BatchedScheduler = BatchedScheduler
            batched = figure.run(**kwargs)
            # force the per-event oracle
            agent_mod.BatchedScheduler = Scheduler
            per_event = figure.run(**kwargs)
            agent_mod.BatchedScheduler = BatchedScheduler
            ok = repr(batched) == repr(per_event)
            print(f"{name:18s} {'bit-identical' if ok else 'DIVERGED'}")
            if not ok:
                failures.append(name)
                print(f"  batched:   {batched!r}"[:400])
                print(f"  per-event: {per_event!r}"[:400])
            rows[name] = repr(batched)
    if reference is not None:
        # only a name both sides have can differ; a row the reference
        # lacks is new here, one only it has is a lost experiment
        for name in sorted(set(rows) - set(reference)):
            print(f"  {name}: new row (not in {args.against})")
        for name in sorted(set(reference) - set(rows)):
            failures.append(f"{name} (row gone)")
            print(f"  {name}: row gone (in {args.against}, not here)")
        for name in sorted(set(rows) & set(reference)):
            if reference[name] != rows[name]:
                failures.append(f"{name} (vs {args.against})")
                print(f"  {name}: rows differ from {args.against}")
                print(f"  here:  {rows[name]}"[:400])
                print(f"  there: {reference[name]}"[:400])
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(rows, fh, indent=1)
    if failures:
        print(f"FAIL: {len(failures)} diverged: {', '.join(failures)}")
        return 1
    print(f"OK: {len(rows)} experiments bit-identical "
          f"across both event-loop cores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
