"""Command-line interface for the GX-Plug reproduction.

Subcommands::

    repro-gxplug datasets                    # Table I inventory
    repro-gxplug run --algorithm pagerank --dataset orkut \\
                     --nodes 4 --gpus 1 --engine powergraph
    repro-gxplug figure fig9a                # regenerate a paper figure
    repro-gxplug submit --jobs-file jobs.jsonl --graph wrn \\
                     --algorithm pagerank --tenant alice
    repro-gxplug serve --jobs-file jobs.jsonl --nodes 2  # drain them

Everything prints deterministic simulated-millisecond results.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .algorithms import (
    BFS,
    ConnectedComponents,
    KCore,
    LabelPropagation,
    MultiSourceSSSP,
    PageRank,
    WidestPath,
)
from .bench import print_table
from .bench.hotpath import (DEFAULT_ALGORITHMS, PROFILES, check_regression,
                            format_report, load_bench_json, merge_entry,
                            run_hotpath_bench, write_bench_json)
from .bench.trace import write_csv, write_json
from .cluster import Topology
from .core import ClusterSpec, GXPlug, MiddlewareConfig, StragglerConfig
from .engines import AsyncEngine, GraphXEngine, PowerGraphEngine
from .errors import SimulationError
from .fault import ALL_KINDS, FaultPlan
from .graph import dataset_names, load_dataset

ALGORITHMS = {
    "pagerank": lambda args: PageRank(),
    "sssp-bf": lambda args: MultiSourceSSSP(
        sources=tuple(args.sources)),
    "lp": lambda args: LabelPropagation(),
    "bfs": lambda args: BFS(source=args.sources[0]),
    "cc": lambda args: ConnectedComponents(),
    "kcore": lambda args: KCore(k=args.k),
    "widest-path": lambda args: WidestPath(source=args.sources[0]),
}

ENGINES = {
    "graphx": (GraphXEngine, "jvm"),
    "powergraph": (PowerGraphEngine, "native"),
    "async": (AsyncEngine, "native"),
}

FIGURES = (
    "table1", "fig8", "fig9a", "fig9b", "fig9c", "fig9d", "fig10",
    "fig11a", "fig11b", "fig12a", "fig12b", "fig13", "fig14", "fig15",
    "fault_soak", "straggler_soak", "topology_soak", "serve_soak",
    "serve_chaos", "wire_chaos", "mutation_soak",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gxplug",
        description="GX-Plug (ICDE 2022) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table I dataset twins")

    run = sub.add_parser("run", help="run one distributed graph job")
    run.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                     default="pagerank")
    run.add_argument("--dataset", choices=dataset_names(),
                     default="orkut")
    run.add_argument("--engine", choices=sorted(ENGINES),
                     default="powergraph")
    run.add_argument("--nodes", type=int, default=4)
    run.add_argument("--gpus", type=int, default=1,
                     help="GPUs per node (0 for none)")
    run.add_argument("--cpus", type=int, default=0,
                     help="CPU accelerators per node")
    run.add_argument("--max-iterations", type=int, default=None)
    run.add_argument("--sources", type=int, nargs="+",
                     default=[0, 1, 2, 3],
                     help="source vertices (sssp-bf/bfs/widest-path)")
    run.add_argument("--k", type=int, default=3, help="k for kcore")
    run.add_argument("--topology", metavar="SPEC", default=None,
                     help="rack topology, e.g. 'rack:2x4' (2 racks of 4 "
                          "nodes; cross-rack links are 4x slower than "
                          "intra-rack) or 'flat:8'; append "
                          "';link=SRC-DST:LAT_MS:MS_PER_BYTE' clauses to "
                          "pin individual directed links, e.g. "
                          "'rack:2x2;link=2-0:5.0:0.02'; default: flat "
                          "single-switch interconnect")
    run.add_argument("--no-middleware", action="store_true",
                     help="run on the bare engine (host compute)")
    run.add_argument("--no-pipeline", action="store_true")
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--no-skip", action="store_true")
    run.add_argument("--block-size", type=int, default=None)
    run.add_argument("--trace-json", metavar="PATH", default=None,
                     help="write per-iteration telemetry as JSON")
    run.add_argument("--trace-csv", metavar="PATH", default=None,
                     help="write per-iteration telemetry as CSV")
    run.add_argument("--fault-seed", type=int, default=None,
                     help="inject a deterministic random fault campaign "
                          "derived from this seed (enables the resilient "
                          "fault-tolerance stack)")
    run.add_argument("--fault-rate", type=float, default=0.05,
                     help="per-(superstep, node) fault probability for "
                          "the seeded campaign (default 0.05)")
    run.add_argument("--fault-kinds", nargs="+", metavar="KIND",
                     default=None,
                     help="fault kinds the campaign draws from "
                          f"(default: all of {', '.join(sorted(ALL_KINDS))})")
    run.add_argument("--straggler-ratio", type=float, default=None,
                     metavar="R",
                     help="EWMA inflation multiple over the cross-daemon "
                          "median that flags a daemon-agent pair as a "
                          "straggler (default 3.0; needs --fault-seed)")
    run.add_argument("--link-slow-ratio", type=float, default=None,
                     metavar="R",
                     help="per-link EWMA inflation multiple over the "
                          "cross-link median that flags an uplink as "
                          "gray-failed (default: --straggler-ratio; "
                          "needs --fault-seed)")
    run.add_argument("--speculate", action="store_true",
                     help="re-issue a flagged straggler's pending block "
                          "to the fastest idle daemon, first finisher "
                          "wins (needs --fault-seed and the pipelined "
                          "protocol)")

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("name", choices=FIGURES)

    submit = sub.add_parser(
        "submit", help="append a tenant job to a serving jobs file")
    submit.add_argument("--jobs-file", metavar="PATH", default=None,
                        help="JSON-lines file the serve command consumes "
                             "(required unless --connect)")
    submit.add_argument("--graph", required=True,
                        help="graph store key the job attaches to")
    submit.add_argument("--algorithm", default="pagerank",
                        help="serving algorithm name (see docs/serving.md)")
    submit.add_argument("--params", metavar="JSON", default=None,
                        help="algorithm parameters as a JSON object, "
                             "e.g. '{\"sources\": [0, 1]}'")
    submit.add_argument("--engine", default="powergraph",
                        choices=("powergraph", "graphx", "async"))
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=1,
                        help="fair-share weight (>= 1; higher drains "
                             "faster)")
    submit.add_argument("--max-iterations", type=int, default=None)
    submit.add_argument("--preset", default="full",
                        help="RuntimeConfig preset for the job "
                             "(full/baseline/resilient/network-resilient)")
    submit.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache for this job")
    submit.add_argument("--deadline-ms", type=float, default=None,
                        help="submit-to-finish budget on the service "
                             "clock; a job that blows it fails with "
                             "'deadline exceeded'")
    submit.add_argument("--max-retries", type=int, default=None,
                        help="retry budget: failed runs resume from "
                             "their last checkpoint up to N times "
                             "before quarantine (default 0)")
    submit.add_argument("--retry-backoff-ms", type=float, default=None,
                        help="base of the exponential retry backoff "
                             "(doubles per attempt; default 1.0)")
    submit.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="submit over the wire protocol to a "
                             "'serve --listen' server instead of "
                             "appending to --jobs-file")
    submit.add_argument("--idempotency-key", metavar="KEY", default=None,
                        help="with --connect: client-chosen key making "
                             "the submit exactly-once across "
                             "reconnects and server crashes")
    submit.add_argument("--wait", action="store_true",
                        help="with --connect: block until the job is "
                             "terminal and report its final state")
    submit.add_argument("--timeout-s", type=float, default=10.0,
                        help="with --connect: per-request timeout "
                             "(default 10s)")
    submit.add_argument("--fault-kind", default=None,
                        help="inject a single fault into this job "
                             "(e.g. crash); other tenants are isolated")
    submit.add_argument("--fault-superstep", type=int, default=1)
    submit.add_argument("--fault-node", type=int, default=0)
    submit.add_argument("--fault-repeat", type=int, default=1)

    mut = sub.add_parser(
        "mutate", help="apply a mutation batch to a served graph")
    mut.add_argument("--connect", metavar="HOST:PORT", required=True,
                     help="a 'serve --listen' server to mutate through "
                          "(mutations are service-side: versioned, "
                          "journaled, exactly-once)")
    mut.add_argument("--graph", required=True,
                     help="graph store key the batch applies to")
    mut.add_argument("--batch-file", metavar="PATH", required=True,
                     help="JSON mutation batch: any of 'add', 'remove', "
                          "'update' ({src, dst[, weights]} lists), "
                          "'add_vertices' (int), 'remove_vertices' "
                          "(list); see docs/streaming.md")
    mut.add_argument("--idempotency-key", metavar="KEY", default=None,
                     help="client-chosen key making the batch "
                          "exactly-once across reconnects and server "
                          "crashes (default: the batch's content "
                          "fingerprint)")
    mut.add_argument("--tenant", default="default",
                     help="client name for the session lease")
    mut.add_argument("--timeout-s", type=float, default=10.0,
                     help="per-request timeout (default 10s)")

    serve = sub.add_parser(
        "serve", help="run a multi-tenant serving session to completion")
    serve.add_argument("--jobs-file", metavar="PATH", default=None,
                       help="JSON-lines file written by submit "
                            "(required unless --recover)")
    serve.add_argument("--graph", action="append", metavar="KEY=DATASET",
                       default=None,
                       help="load DATASET into the store under KEY "
                            "(repeatable; default: treat each job's "
                            "graph key as a dataset name)")
    serve.add_argument("--nodes", type=int, default=2)
    serve.add_argument("--gpus", type=int, default=1)
    serve.add_argument("--topology", metavar="SPEC", default=None,
                       help="rack topology spec (same grammar as run)")
    serve.add_argument("--memory-budget-mb", type=float, default=None,
                       help="admission budget: resident graph MB, "
                            "counted once per shared graph")
    serve.add_argument("--daemon-budget", type=int, default=None,
                       help="admission budget: concurrently attached "
                            "daemons")
    serve.add_argument("--max-running", type=int, default=4,
                       help="max concurrently running jobs (default 4)")
    serve.add_argument("--cache-entries", type=int, default=64,
                       help="result-cache capacity (default 64)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="overload shed: refuse submissions once "
                            "this many jobs are pending")
    serve.add_argument("--max-pending-per-tenant", type=int,
                       default=None,
                       help="overload shed: per-tenant pending cap")
    serve.add_argument("--waiter-timeout-ms", type=float, default=None,
                       help="simulated ms a coalesced query waits for "
                            "its singleflight leader before the group "
                            "recomputes (default: wait forever)")
    serve.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="write one per-job trace JSON into DIR")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="write-ahead job journal; every lifecycle "
                            "transition is durable before the service "
                            "acts on it (see docs/serving.md)")
    serve.add_argument("--recover", action="store_true",
                       help="rebuild the service from --journal instead "
                            "of starting fresh: finished jobs re-serve "
                            "from their journaled results, in-flight "
                            "jobs resume from their last checkpoint")
    serve.add_argument("--drain-after", type=int, metavar="STEPS",
                       default=None,
                       help="run STEPS scheduling rounds, then drain: "
                            "finish running jobs, shed pending ones, "
                            "journal a clean-shutdown marker")
    serve.add_argument("--json", action="store_true",
                       help="print the final metrics as JSON")
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve the wire protocol on HOST:PORT "
                            "(JSONL over TCP) instead of draining a "
                            "jobs file; SIGTERM drains gracefully")
    serve.add_argument("--lease-ms", type=float, default=30_000.0,
                       help="with --listen: session lease; a client "
                            "silent this long is reaped as half-open")

    bench = sub.add_parser(
        "bench", help="wall-clock hot-path throughput benchmark")
    bench.add_argument("--profile", choices=sorted(PROFILES),
                       default="default",
                       help="named bench shape: R-MAT hot path "
                            "(default/smoke) or event-loop twin "
                            "(scheduler/sched-smoke)")
    bench.add_argument("--vertices", type=int, default=None,
                       help="override the profile's |V|")
    bench.add_argument("--edges", type=int, default=None,
                       help="override the profile's |E|")
    bench.add_argument("--algorithms", nargs="+", metavar="ALG",
                       choices=DEFAULT_ALGORITHMS,
                       default=list(DEFAULT_ALGORITHMS))
    bench.add_argument("--nodes", type=int, default=2)
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
    return parser


def cmd_datasets() -> int:
    from .bench import run_table1

    print_table(
        ["dataset", "paper |V|", "paper |E|", "type",
         "twin |V|", "twin |E|", "twin deg"],
        run_table1(), title="Table I datasets (paper vs twins)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    # fault-flag validation happens eagerly, before any graph loading or
    # cluster construction, so a typo fails in milliseconds.
    if args.fault_kinds is not None:
        unknown = sorted(set(args.fault_kinds) - set(ALL_KINDS))
        if unknown:
            print("error: unknown fault kind(s): "
                  + ", ".join(unknown) + "; valid kinds: "
                  + ", ".join(sorted(ALL_KINDS)), file=sys.stderr)
            return 2
        if args.fault_seed is None:
            print("error: --fault-kinds selects kinds for the seeded "
                  "campaign; it needs --fault-seed", file=sys.stderr)
            return 2
    if (args.straggler_ratio is not None or args.speculate
            or args.link_slow_ratio is not None) \
            and args.fault_seed is None:
        print("error: --straggler-ratio/--speculate/--link-slow-ratio "
              "tune the gray-failure stack of a seeded campaign; they "
              "need --fault-seed", file=sys.stderr)
        return 2
    if args.straggler_ratio is not None and args.straggler_ratio <= 1.0:
        print(f"error: --straggler-ratio must be > 1 (a pair is flagged "
              f"when it runs RATIO times slower than the median), got "
              f"{args.straggler_ratio}", file=sys.stderr)
        return 2
    if args.link_slow_ratio is not None and args.link_slow_ratio <= 1.0:
        print(f"error: --link-slow-ratio must be > 1 (a link is flagged "
              f"when its fragments run RATIO times slower than the "
              f"cross-link median), got {args.link_slow_ratio}",
              file=sys.stderr)
        return 2
    if args.topology is not None:
        try:
            racks = Topology.parse_spec(args.topology)
            link_overrides = Topology.parse_link_overrides(args.topology)
        except SimulationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spanned = sum(len(r) for r in racks)
        if spanned != args.nodes:
            print(f"error: --topology {args.topology!r} spans {spanned} "
                  f"node(s) but --nodes is {args.nodes}", file=sys.stderr)
            return 2
        bad_ends = sorted({end for pair in link_overrides for end in pair
                           if not 0 <= end < args.nodes})
        if bad_ends:
            print(f"error: --topology {args.topology!r} overrides links "
                  f"on node(s) {bad_ends} outside 0..{args.nodes - 1}",
                  file=sys.stderr)
            return 2
    if args.speculate and args.no_pipeline:
        print("error: speculative re-execution rides the pipelined "
              "protocol; drop --no-pipeline", file=sys.stderr)
        return 2

    graph = load_dataset(args.dataset)
    engine_cls, runtime = ENGINES[args.engine]
    algorithm = ALGORITHMS[args.algorithm](args)

    if args.engine == "async" and args.no_middleware:
        print("error: the async engine requires the middleware",
              file=sys.stderr)
        return 2
    if args.fault_seed is not None and args.no_middleware:
        print("error: --fault-seed targets the middleware fault "
              "subsystem; drop --no-middleware", file=sys.stderr)
        return 2

    campaign = None
    middleware = None
    if not args.no_middleware:
        if args.gpus == 0 and args.cpus == 0:
            print("error: middleware needs accelerators "
                  "(--gpus/--cpus) or use --no-middleware",
                  file=sys.stderr)
            return 2
        spec = ClusterSpec(nodes=args.nodes, gpus_per_node=args.gpus,
                           cpus_per_node=args.cpus, runtime=runtime,
                           topology=args.topology)
        cluster = spec.build()
        no_cache = args.no_cache
        config = MiddlewareConfig(
            pipeline=not args.no_pipeline,
            block_size=args.block_size,
            sync_cache=not no_cache,
            lazy_upload=not no_cache,
            sync_skip=not (no_cache or args.no_skip),
        )
        if args.fault_seed is not None:
            kinds = (tuple(args.fault_kinds) if args.fault_kinds
                     else ALL_KINDS)
            supersteps = (args.max_iterations
                          if args.max_iterations is not None
                          else algorithm.default_max_iterations)
            plan = FaultPlan.random(
                args.fault_seed, supersteps=supersteps,
                num_nodes=args.nodes, rate=args.fault_rate, kinds=kinds)
            if plan.requires_monitor and args.no_pipeline:
                print("error: the campaign drew stall faults "
                      "(hang/drop); detecting them needs the pipelined "
                      "protocol — drop --no-pipeline or restrict "
                      "--fault-kinds", file=sys.stderr)
                return 2
            straggler = StragglerConfig(
                enabled=True,
                ratio=(args.straggler_ratio
                       if args.straggler_ratio is not None else 3.0),
                link_ratio=args.link_slow_ratio,
                speculate=args.speculate,
                reestimate=True,
            )
            config = config.with_(
                fault_plan=plan,
                monitor_heartbeats=not args.no_pipeline,
                checkpoint_interval=2,
                degrade_to_host=True,
                rebalance_on_degrade=True,
                network_resilient=True,
                straggler=straggler,
            )
            # everything needed to replay this exact campaign later
            campaign = {
                "seed": args.fault_seed,
                "rate": args.fault_rate,
                "kinds": sorted(kinds),
                "supersteps": supersteps,
                "nodes": args.nodes,
                "events": len(plan.events),
                "straggler_ratio": straggler.ratio,
                "speculate": straggler.speculate,
            }
        middleware = GXPlug(cluster, config)
    else:
        spec = ClusterSpec(nodes=args.nodes, gpus_per_node=0,
                           runtime=runtime, topology=args.topology)
        cluster = spec.build()

    engine = engine_cls.build(graph, cluster, middleware=middleware)
    result = engine.run(algorithm, max_iterations=args.max_iterations)

    print(f"graph      : {graph}")
    print(f"cluster    : {args.nodes} nodes x "
          f"({args.gpus} GPU + {args.cpus} CPU accel)"
          if middleware else f"cluster    : {args.nodes} nodes (host)")
    print(f"result     : {result.summary()}")
    print(f"converged  : {result.converged}")
    rows = [(k, round(v, 2)) for k, v in sorted(result.breakdown.items())]
    print_table(["component", "simulated ms"], rows, title="breakdown")
    if middleware is not None:
        print(f"middleware ratio: {result.middleware_ratio:.1%}")
    lookups = sum(s.cache_hits + s.cache_misses for s in result.stats)
    if lookups:
        hits = sum(s.cache_hits for s in result.stats)
        print(f"sync cache : {hits}/{lookups} hits, "
              f"{result.cache_evictions} evictions "
              f"({result.cache_writebacks} dirty write-backs)")
    if result.sched_events:
        print(f"event loop : {result.sched_events} events in "
              f"{result.sched_batches} batches "
              f"(max cohort {result.sched_max_batch}, "
              f"heap peak {result.sched_heap_peak})")
    if middleware is not None and middleware.injector is not None:
        print(middleware.fault_report(result).summary())
    if args.trace_json:
        write_json(result, args.trace_json, campaign=campaign,
                   cluster_spec=spec.to_dict())
        print(f"trace written: {args.trace_json}")
    if args.trace_csv:
        write_csv(result, args.trace_csv)
        print(f"trace written: {args.trace_csv}")
    return 0


def cmd_figure(name: str) -> int:
    from .bench import runner

    headers = {
        "table1": ["dataset", "paper |V|", "paper |E|", "type",
                   "twin |V|", "twin |E|", "twin deg"],
        "fig8": ["dataset", "engine", "algorithm", "variant", "sim ms",
                 "speedup"],
        "fig9a": ["system", "gpus", "sim ms"],
        "fig9b": ["dataset", "system", "gpus", "sim ms"],
        "fig9c": ["algorithm", "gpus", "sim ms"],
        "fig9d": ["mix", "capacity", "sim ms"],
        "fig10": ["algorithm", "variant", "sim ms"],
        "fig11a": ["engine", "dataset", "cache", "total ms", "steady ms",
                   "hit rate"],
        "fig11b": ["dataset", "iters no-skip", "iters skip", "decrease"],
        "fig12a": ["strategy", "sim ms"],
        "fig12b": ["split", "variant", "gpus", "sim ms"],
        "fig13": ["variant", "sim ms", "inits"],
        "fig14": ["engine", "algorithm", "nodes", "ratio"],
        "fault_soak": ["rate", "injected", "total ms", "overhead ms",
                       "retransmits", "net wasted ms", "rollbacks"],
        "straggler_soak": ["variant", "total ms", "lost ms", "verdicts",
                           "speculation", "coeff updates",
                           "online rebalances"],
        "topology_soak": ["variant", "total ms", "lost ms",
                          "link verdicts", "link slow ms",
                          "coeff updates", "online rebalances"],
        "serve_soak": ["variant", "jobs", "done", "failed",
                       "cache hits", "hit rate", "coalesced", "p50 ms",
                       "p99 ms", "makespan ms", "cached speedup",
                       "isolated"],
        "serve_chaos": ["seed", "killed at", "jobs", "pre-crash done",
                        "resumed", "identical", "steps saved",
                        "replay no-op"],
        "wire_chaos": ["seed", "kills", "generations", "jobs",
                       "resumed", "deduped", "reconnects", "identical",
                       "exactly once", "strictly fewer", "steps saved"],
        "mutation_soak": ["algorithm", "churn", "cold steps",
                          "warm steps", "step ratio", "cold ms",
                          "warm ms", "ms ratio", "warm", "identical",
                          "replay no-op"],
    }
    if name == "fig15":
        out = runner.run_fig15()
        for alg, data in out.items():
            rows = [(s, round(m, 1), round(dict(data["estimated"])[s], 1))
                    for s, m in data["measured"]]
            print_table(["s", "measured ms", "estimated ms"], rows,
                        title=f"Fig. 15 — {alg} (estimated s_opt="
                              f"{data['s_opt']})")
        return 0
    func = getattr(runner, f"run_{name}")
    print_table(headers[name], func(), title=name)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .errors import BenchmarkError

    profile = PROFILES[args.profile]
    kind = profile.get("kind", "hotpath")
    try:
        if kind == "scheduler":
            from .bench.schedbench import (format_scheduler_report,
                                           run_scheduler_bench)
            payload = run_scheduler_bench(
                nodes=profile["nodes"], fragments=profile["fragments"],
                rounds=profile["rounds"], repeats=args.repeats)
            report = format_scheduler_report(payload)
        else:
            vertices = args.vertices if args.vertices is not None \
                else profile["vertices"]
            edges = args.edges if args.edges is not None \
                else profile["edges"]
            payload = run_hotpath_bench(
                vertices=vertices, edges=edges,
                algorithms=tuple(args.algorithms),
                nodes=args.nodes, gpus=args.gpus,
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


def parse_hostport(text: str) -> "tuple":
    """Split a ``HOST:PORT`` clause; raises ``ValueError`` when bad."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeError
    from .serve.job import JobSpec

    if args.connect is None and args.jobs_file is None:
        print("error: submit needs --jobs-file (file handoff) or "
              "--connect HOST:PORT (wire protocol)", file=sys.stderr)
        return 2

    record = {"graph": args.graph, "algorithm": args.algorithm,
              "engine": args.engine, "tenant": args.tenant,
              "priority": args.priority, "preset": args.preset}
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("error: --params must be a JSON object", file=sys.stderr)
            return 2
        record["params"] = params
    if args.max_iterations is not None:
        record["max_iterations"] = args.max_iterations
    if args.no_cache:
        record["use_cache"] = False
    if args.deadline_ms is not None:
        record["deadline_ms"] = args.deadline_ms
    if args.max_retries is not None:
        record["max_retries"] = args.max_retries
    if args.retry_backoff_ms is not None:
        record["retry_backoff_ms"] = args.retry_backoff_ms
    if args.fault_kind is not None:
        record["fault"] = {"kind": args.fault_kind,
                           "superstep": args.fault_superstep,
                           "node": args.fault_node,
                           "repeat": args.fault_repeat}
    try:
        spec = JobSpec.from_dict(record)  # validate before persisting
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.connect is not None:
        from .errors import WireError, WireShed, WireUnavailable
        from .serve.client import GraphClient
        try:
            host, port = parse_hostport(args.connect)
        except ValueError as exc:
            print(f"error: --connect: {exc}", file=sys.stderr)
            return 2
        try:
            with GraphClient(host, port, client_name=f"cli:{args.tenant}",
                             timeout_s=args.timeout_s) as client:
                resp = client.submit(
                    spec, idempotency_key=args.idempotency_key)
                verb = "deduped to" if resp["deduped"] else "submitted as"
                print(f"{args.tenant}: {args.algorithm} on "
                      f"{args.graph!r} {verb} job #{resp['job_id']} "
                      f"({resp['state']})")
                if args.wait:
                    doc = client.wait(resp["job_id"])
                    print(f"job #{doc['job_id']} {doc['state']}"
                          + (f": {doc['error']}" if doc["error"] else ""))
                    return 0 if doc["state"] == "done" else 1
            return 0
        except WireShed as exc:
            print(f"shed: {exc} (retry after "
                  f"{exc.retry_after_ms:.0f} ms"
                  + (", draining)" if exc.draining else ")"),
                  file=sys.stderr)
            return 1
        except WireUnavailable as exc:
            print(f"error: {exc}; backoff applied: "
                  f"{[round(d, 3) for d in exc.backoff_schedule]}",
                  file=sys.stderr)
            return 1
        except WireError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    with open(args.jobs_file, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(f"queued {args.tenant}: {args.algorithm} on {args.graph!r} "
          f"-> {args.jobs_file}")
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    import json

    from .errors import (GraphError, WireError, WireShed,
                         WireUnavailable)
    from .graph.mutations import MutationBatch
    from .serve.client import GraphClient

    try:
        host, port = parse_hostport(args.connect)
    except ValueError as exc:
        print(f"error: --connect: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.batch_file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: bad batch file {args.batch_file!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        batch = MutationBatch.from_doc(doc)  # validate before sending
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with GraphClient(host, port, client_name=f"cli:{args.tenant}",
                         timeout_s=args.timeout_s) as client:
            resp = client.mutate(
                args.graph, batch,
                idempotency_key=args.idempotency_key)
    except WireShed as exc:
        print(f"shed: {exc} (retry after {exc.retry_after_ms:.0f} ms"
              + (", draining)" if exc.draining else ")"),
              file=sys.stderr)
        return 1
    except WireUnavailable as exc:
        print(f"error: {exc}; backoff applied: "
              f"{[round(d, 3) for d in exc.backoff_schedule]}",
              file=sys.stderr)
        return 1
    except WireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verb = ("already applied as" if resp["deduped"]
            else f"applied {resp['changes']} change(s) as")
    print(f"{args.graph!r} {verb} batch {resp['batch_id']} "
          f"(v{resp['from_version']} -> v{resp['version']})")
    return 0


class _GracefulShutdown(Exception):
    """Raised by the serve CLI's signal handler to unwind into drain."""

    def __init__(self, signame: str) -> None:
        super().__init__(signame)
        self.signame = signame


def _install_drain_signals(handler) -> None:
    """Best-effort SIGTERM/SIGINT registration.

    ``signal.signal`` only works on the main thread; tests drive the
    CLI from worker threads, where serving simply runs unguarded.
    """
    import signal as signal_mod

    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal_mod, signame, None)
        if signum is None:  # pragma: no cover - platform-specific
            continue
        try:
            signal_mod.signal(
                signum,
                lambda _num, _frm, name=signame: handler(name))
        except ValueError:  # not the main thread
            return


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .errors import AdmissionError, ReproError
    from .serve import GraphService, JobSpec

    if args.recover and args.journal is None:
        print("error: --recover replays a journal; it needs --journal",
              file=sys.stderr)
        return 2
    if args.jobs_file is None and not args.recover \
            and args.listen is None:
        print("error: --jobs-file is required (unless --recover "
              "re-queues journaled jobs or --listen serves sockets)",
              file=sys.stderr)
        return 2
    listen_addr = None
    if args.listen is not None:
        try:
            listen_addr = parse_hostport(args.listen)
        except ValueError as exc:
            print(f"error: --listen: {exc}", file=sys.stderr)
            return 2
    if args.drain_after is not None and args.drain_after < 0:
        print(f"error: --drain-after must be >= 0, got "
              f"{args.drain_after}", file=sys.stderr)
        return 2

    specs = []
    if args.jobs_file is not None:
        try:
            with open(args.jobs_file, "r", encoding="utf-8") as f:
                lines = [line for line in f if line.strip()]
            specs = [JobSpec.from_dict(json.loads(line)) for line in lines]
        except (OSError, json.JSONDecodeError, ReproError) as exc:
            print(f"error: bad jobs file {args.jobs_file!r}: {exc}",
                  file=sys.stderr)
            return 2
        if not specs and not args.recover and listen_addr is None:
            print(f"error: no jobs in {args.jobs_file!r}",
                  file=sys.stderr)
            return 2

    shed = []
    try:
        if args.recover:
            service = GraphService.recover(args.journal,
                                           trace_dir=args.trace_dir)
        else:
            spec = ClusterSpec(nodes=args.nodes, gpus_per_node=args.gpus,
                               topology=args.topology)
            service = GraphService(
                spec,
                memory_budget_mb=args.memory_budget_mb,
                daemon_budget=args.daemon_budget,
                max_running=args.max_running,
                cache_entries=args.cache_entries,
                trace_dir=args.trace_dir,
                max_queue_depth=args.max_queue_depth,
                max_pending_per_tenant=args.max_pending_per_tenant,
                waiter_timeout_ms=args.waiter_timeout_ms,
                journal=args.journal)
        graphs = {}
        for clause in args.graph or []:
            key, sep, dataset = clause.partition("=")
            if not sep:
                print(f"error: --graph wants KEY=DATASET, got "
                      f"{clause!r}", file=sys.stderr)
                return 2
            graphs[key] = dataset
        for job_spec in specs:
            if job_spec.graph not in graphs and job_spec.graph not in \
                    service.store:
                graphs[job_spec.graph] = job_spec.graph  # dataset name
        for key, dataset in graphs.items():
            service.load_graph(key, dataset=dataset)
        for s in specs:
            try:
                service.submit(s)
            except AdmissionError as exc:
                # overload sheds are load management, not config errors:
                # record and keep draining the rest of the file
                shed.append(str(exc))
        if listen_addr is not None:
            from .serve.wire import PROTOCOL_VERSION, GraphServiceServer
            server = GraphServiceServer(service, listen_addr[0],
                                        listen_addr[1],
                                        lease_ms=args.lease_ms)
            # SIGTERM suspends in-flight jobs at their checkpoints so
            # a restart + --recover resumes them; clients see a
            # 'draining' event, never a reset socket
            _install_drain_signals(
                lambda name: server.request_drain(reason=name.lower(),
                                                  mode="now"))
            host, port = server.address
            print(f"listening on {host}:{port} "
                  f"(protocol v{PROTOCOL_VERSION})", file=sys.stderr)
            server.serve_forever()
        elif args.drain_after is not None:
            for _ in range(args.drain_after):
                if not service.step():
                    break
            service.drain()
        else:
            def _raise_shutdown(name: str) -> None:
                raise _GracefulShutdown(name)

            _install_drain_signals(_raise_shutdown)
            try:
                service.run()
                if args.journal is not None and not args.recover:
                    service.drain()  # journal the clean-shutdown marker
            except _GracefulShutdown as exc:
                # finish what's running, shed the rest, journal a clean
                # shutdown naming the signal; then report as usual so
                # the nonzero-on-failed-jobs convention still holds
                service.drain(reason=exc.signame.lower())
                shed.append(f"shutdown on {exc.signame}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = service.jobs()
    bad = [j for j in jobs if j.state in ("failed", "quarantined")]
    if args.json:
        payload = {"ok": not bad,
                   "failed_jobs": [j.job_id for j in bad],
                   "shed": shed,
                   "jobs": [j.describe() for j in jobs],
                   "metrics": service.metrics(),
                   "recovery": service.recovery_stats()}
        if listen_addr is not None:
            payload["wire"] = server.wire_stats()
        print(json.dumps(payload, indent=2))
        return 1 if bad else 0
    rows = [(j.job_id, j.spec.tenant, j.spec.algorithm, j.spec.graph,
             j.state, "yes" if j.from_cache else "no",
             round(j.queue_ms, 3) if j.queue_ms is not None else "-",
             round(j.latency_ms, 3) if j.latency_ms is not None else "-",
             j.error or "")
            for j in jobs]
    print_table(["job", "tenant", "algorithm", "graph", "state",
                 "cached", "queue ms", "latency ms", "error"],
                rows, title="serving session")
    cache = service.cache.stats()
    lat = service.latency_percentiles()
    print(f"\ncache: {cache['hits']}/{cache['hits'] + cache['misses']} "
          f"hits (rate {cache['hit_rate']:.2f}), "
          f"{cache['evictions']} evictions; "
          f"coalesced {service.coalesced}")
    print(f"latency: p50 {lat['p50']:.3f} ms, p99 {lat['p99']:.3f} ms "
          f"over {lat['count']} completed jobs")
    for tenant, row in service.ledger.snapshot().items():
        print(f"  {tenant}: {row['consumed_ms']:.3f} ms over "
              f"{row['slices']} slices, {row['jobs_finished']} jobs "
              f"({row['cache_hits']} cached)")
    for line in shed:
        print(f"shed: {line}")
    recovery = service.recovery_stats()
    if recovery["recovered"]:
        print(f"recovered: {recovery['recovered']} job(s) from the "
              f"journal ({recovery['requeued']} re-queued, "
              f"{recovery['resumed']} resumed from a checkpoint, "
              f"{recovery['handoffs']} handoffs)")
    if listen_addr is not None:
        wire = server.wire_stats()
        print(f"wire: {wire['connections_accepted']} connection(s), "
              f"{wire['sessions_opened']} session(s) "
              f"({wire['sessions_reaped']} reaped), "
              f"{wire['frames_in']} frames in / "
              f"{wire['frames_out']} out, "
              f"{wire['deduped_submits']} deduped submit(s), "
              f"{wire['sheds_sent']} shed(s)")
    if bad:
        print(f"{len(bad)} job(s) ended failed/quarantined: "
              + ", ".join(f"#{j.job_id}" for j in bad))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return cmd_datasets()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "figure":
        return cmd_figure(args.name)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "mutate":
        return cmd_mutate(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "bench":
        return cmd_bench(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
