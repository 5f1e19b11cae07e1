"""``repro-gxplug bench``: the wall-clock hot-path, scheduler and
partition benches."""

import argparse
import sys

from ..bench.hotpath import (DEFAULT_ALGORITHMS, PROFILES, check_regression,
                             format_report, load_bench_json, merge_entry,
                             run_hotpath_bench, write_bench_json)
from ..bench.partbench import format_partition_report, run_partition_bench
from ..bench.schedbench import format_scheduler_report, run_scheduler_bench
from ..errors import BenchmarkError


def add_parser(sub) -> None:
    bench = sub.add_parser(
        "bench", help="wall-clock hot-path throughput benchmark")
    bench.add_argument("--profile", choices=sorted(PROFILES),
                       default="default",
                       help="named bench shape: R-MAT hot path "
                            "(default/smoke), agent-daemon handshake "
                            "(scheduler/sched-smoke) or greedy vertex "
                            "cut (partition/partition-smoke)")
    bench.add_argument("--vertices", type=int, default=None,
                       help="override the profile's |V|")
    bench.add_argument("--edges", type=int, default=None,
                       help="override the profile's |E|")
    bench.add_argument("--algorithms", nargs="+", metavar="ALG",
                       choices=DEFAULT_ALGORITHMS,
                       default=list(DEFAULT_ALGORITHMS))
    bench.add_argument("--nodes", type=int, default=None,
                       help="override the profile's node count "
                            "(2 on the hot-path profiles)")
    bench.add_argument("--gpus", type=int, default=1)
    bench.add_argument("--cache-fraction", type=float, default=0.1,
                       help="vertex-cache capacity as a fraction of |V| "
                            "(default 0.1)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--repeats", type=int, default=1,
                       help="runs per workload; the fastest is kept")
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="merge this run into a BENCH_hotpath.json "
                            "document (entry named after --entry)")
    bench.add_argument("--entry", default=None,
                       help="entry name inside the JSON document "
                            "(default: the profile name)")
    bench.add_argument("--check", metavar="PATH", default=None,
                       help="gate against the committed entry in this "
                            "BENCH_hotpath.json instead of writing")
    bench.add_argument("--max-regression", type=float, default=0.3,
                       help="allowed fractional throughput drop for "
                            "--check (default 0.3 = 30%%)")
    bench.set_defaults(func=cmd_bench)


def cmd_bench(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    kind = profile.get("kind", "hotpath")
    vertices = args.vertices if args.vertices is not None \
        else profile.get("vertices")
    edges = args.edges if args.edges is not None else profile.get("edges")
    nodes = args.nodes if args.nodes is not None \
        else profile.get("nodes", 2)
    try:
        if kind == "scheduler":
            payload = run_scheduler_bench(
                blocks=profile["blocks"], passes=profile["passes"],
                repeats=args.repeats)
            report = format_scheduler_report(payload)
        elif kind == "partition":
            payload = run_partition_bench(
                vertices=vertices, edges=edges, nodes=nodes,
                seed=args.seed, repeats=args.repeats)
            report = format_partition_report(payload)
        else:
            payload = run_hotpath_bench(
                vertices=vertices, edges=edges,
                algorithms=tuple(args.algorithms),
                nodes=nodes, gpus=args.gpus,
                cache_fraction=args.cache_fraction,
                seed=args.seed, repeats=args.repeats)
            report = format_report(payload)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    entry = args.entry or args.profile
    if args.check:
        try:
            doc = load_bench_json(args.check)
            print(check_regression(doc, entry, payload,
                                   args.max_regression))
        except (OSError, BenchmarkError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        try:
            doc = load_bench_json(args.json)
        except OSError:
            doc = None  # first write creates the document
        except BenchmarkError as exc:
            print(f"error: refusing to overwrite {args.json}: {exc}",
                  file=sys.stderr)
            return 1
        doc = merge_entry(doc, entry, payload)
        write_bench_json(doc, args.json)
        print(f"bench entry {entry!r} written: {args.json}")
    return 0
