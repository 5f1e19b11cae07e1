"""``repro-gxplug serve``: run a multi-tenant serving session."""

import argparse
import json
import sys

from ..bench.reporting import print_table
from ..core import ClusterSpec
from ..errors import AdmissionError, ReproError
from .connect import parse_hostport


def add_parser(sub) -> None:
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
    serve.set_defaults(func=cmd_serve)


class _GracefulShutdown(Exception):
    """Raised by the serve CLI's signal handler to unwind into drain."""

    def __init__(self, signame: str) -> None:
        super().__init__(signame)
        self.signame = signame


def cmd_serve(args: argparse.Namespace) -> int:
    # resolved per call through the package, which owns process signals
    # (and is where tests substitute the registration)
    from . import _install_drain_signals
    from ..serve import GraphService, JobSpec

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
            from ..serve.wire import PROTOCOL_VERSION, GraphServiceServer
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
