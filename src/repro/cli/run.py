"""``repro-gxplug run``: one distributed graph job."""

import argparse
import sys
from typing import Optional

from ..algorithms import ALGORITHMS
from ..bench.reporting import print_table
from ..core import ClusterSpec, GXPlug, MiddlewareConfig, StragglerConfig
from ..engines import ENGINES
from ..engines.trace import write_csv, write_json
from ..errors import ReproError
from ..fault import ALL_KINDS, FaultPlan
from ..graph import DEFAULT_DATASET, dataset_names, load_dataset

#: Which ``run`` flags feed which constructor arguments, by wire name;
#: an algorithm not listed takes none.
ALGORITHM_FLAGS = {
    "sssp-bf": lambda args: {"sources": tuple(args.sources)},
    "bfs": lambda args: {"source": args.sources[0]},
    "widest-path": lambda args: {"source": args.sources[0]},
    "kcore": lambda args: {"k": args.k},
}


def add_parser(sub) -> None:
    run = sub.add_parser("run", help="run one distributed graph job")
    run.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                     default="pagerank")
    run.add_argument("--dataset", choices=dataset_names(),
                     default=DEFAULT_DATASET)
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
    run.set_defaults(func=cmd_run)


def campaign_from_args(args: argparse.Namespace) -> Optional[dict]:
    """``FaultPlan.random``'s arguments for the campaign ``--fault-seed``
    asks for (``None`` without one): all it takes to replay it."""
    if args.fault_seed is None:
        return None
    return dict(
        seed=args.fault_seed,
        supersteps=(args.max_iterations
                    if args.max_iterations is not None
                    else ALGORITHMS[args.algorithm].default_max_iterations),
        num_nodes=args.nodes, rate=args.fault_rate,
        kinds=tuple(args.fault_kinds) if args.fault_kinds else ALL_KINDS)


def runtime_from_args(args: argparse.Namespace) -> MiddlewareConfig:
    """The deployment the ``run`` flags describe.  Pure: the campaign is
    a function of its seed, and a seeded campaign arms the whole
    resilient stack."""
    cache = not args.no_cache
    config = MiddlewareConfig(pipeline=not args.no_pipeline,
                              block_size=args.block_size,
                              sync_cache=cache, lazy_upload=cache,
                              sync_skip=cache and not args.no_skip)
    campaign = campaign_from_args(args)
    if campaign is None:
        return config
    return config.with_(
        fault_plan=FaultPlan.random(**campaign), checkpoint_interval=2,
        degrade_to_host=True, rebalance_on_degrade=True,
        straggler=StragglerConfig(enabled=True, reestimate=True))


def cmd_run(args: argparse.Namespace) -> int:
    # only flag combinations no config sees are checked here; every
    # value is checked by the config it builds, before any graph loads
    if args.fault_seed is None and args.fault_kinds is not None:
        return _usage_error("--fault-kinds shapes the seeded campaign; "
                            "it needs --fault-seed")
    if args.no_middleware and args.engine == "async":
        return _usage_error("the async engine requires the middleware")
    if args.no_middleware and args.fault_seed is not None:
        return _usage_error("--fault-seed targets the middleware fault "
                            "subsystem; drop --no-middleware")
    if not args.no_middleware and args.gpus == 0 and args.cpus == 0:
        return _usage_error("middleware needs accelerators "
                            "(--gpus/--cpus) or use --no-middleware")
    engine_cls = ENGINES[args.engine]
    try:
        spec = ClusterSpec(
            nodes=args.nodes,
            gpus_per_node=0 if args.no_middleware else args.gpus,
            cpus_per_node=0 if args.no_middleware else args.cpus,
            runtime=engine_cls.host_runtime, topology=args.topology)
        config = None if args.no_middleware else runtime_from_args(args)
        flags = ALGORITHM_FLAGS.get(args.algorithm)
        algorithm = ALGORITHMS[args.algorithm](
            **(flags(args) if flags else {}))
    except ReproError as exc:
        return _usage_error(str(exc))

    graph = load_dataset(args.dataset)
    cluster = spec.build()
    middleware = None if config is None else GXPlug(cluster, config)
    campaign = None
    seeded = campaign_from_args(args)
    if seeded is not None:
        # everything needed to replay this exact campaign later
        campaign = {
            "seed": seeded["seed"],
            "rate": seeded["rate"],
            "kinds": sorted(seeded["kinds"]),
            "supersteps": seeded["supersteps"],
            "nodes": seeded["num_nodes"],
            "events": len(config.fault_plan.events),
        }

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
        print(f"event loop : {result.sched_events} events "
              f"(heap peak {result.sched_heap_peak})")
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


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2
