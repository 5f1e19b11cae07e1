#!/usr/bin/env python
"""Bit-identity gate: every figure runner's rows, parent vs change.

Runs each experiment of the registry (``repro.bench.figures.FIGURES``
x each entry's CI-sized ``quick`` sets: registering a figure adds its
row here) once.  ``--dump rows.json`` writes the rows (``repr`` per
runner name); ``--against rows.json`` requires them *exactly* equal
(repr comparison, so float outputs must match bit for bit) to a dump
taken elsewhere.  "Parent vs change" is ``--dump`` at the parent
commit and ``--against`` at the change; names only one side has are
reported (``new row`` passes, ``row gone`` fails), the rest must be
equal.

A change that means to move rows (a simulator fix, a new cost term)
names them with ``--changed fig8,fig14``: each named row must differ
from the dump, and a named row that does not differ fails too, so the
list cannot go stale.  CI takes the list from a line the change adds
to CHANGES.md, ``Bit-identity rows changed: fig8, fig14``.

Usage: PYTHONPATH=src python scripts/check_bit_identity.py
           [--dump rows.json] [--against rows.json [--changed NAMES]]
"""

import argparse
import json
import sys

from repro.bench.figures import FIGURES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="ROWS_JSON",
                        help="write {runner: repr(rows)} to this file")
    parser.add_argument("--against", metavar="ROWS_JSON",
                        help="require rows equal to this dump")
    parser.add_argument("--changed", metavar="NAMES", default="",
                        help="comma-separated rows that must differ "
                             "from the --against dump")
    args = parser.parse_args(argv)
    changed = {name.strip() for name in args.changed.split(",")
               if name.strip()}
    if changed and not args.against:
        parser.error("--changed needs --against")
    reference = None
    if args.against:
        with open(args.against) as fh:
            reference = json.load(fh)
        unknown = sorted(changed - set(reference))
        if unknown:
            parser.error(f"--changed names rows the dump lacks: "
                         f"{', '.join(unknown)}")
    rows = {}
    for figure in FIGURES.values():
        for name, kwargs in figure.quick_rows():
            rows[name] = repr(figure.run(**kwargs))
            print(f"{name:18s} ran")
    failures = []
    if reference is not None:
        # only a name both sides have can differ; a row the reference
        # lacks is new here, one only it has is a lost experiment
        for name in sorted(set(rows) - set(reference)):
            print(f"  {name}: new row (not in {args.against})")
        for name in sorted(set(reference) - set(rows)):
            failures.append(f"{name} (row gone)")
            print(f"  {name}: row gone (in {args.against}, not here)")
        for name in sorted(set(rows) & set(reference)):
            differs = reference[name] != rows[name]
            if differs and name in changed:
                print(f"  {name}: rows differ, as --changed declares")
            elif differs:
                failures.append(name)
                print(f"  {name}: rows differ from {args.against}")
                print(f"  here:  {rows[name]}"[:400])
                print(f"  there: {reference[name]}"[:400])
            elif name in changed:
                failures.append(f"{name} (declared changed, unchanged)")
                print(f"  {name}: --changed declares it, but it is "
                      f"identical")
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(rows, fh, indent=1)
    if failures:
        print(f"FAIL: {len(failures)} diverged: {', '.join(failures)}")
        return 1
    if reference is not None:
        print(f"OK: {len(rows) - len(changed)} experiments bit-identical "
              f"to {args.against}, {len(changed)} changed as declared")
    else:
        print(f"OK: {len(rows)} experiments ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
