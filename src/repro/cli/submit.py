"""``repro-gxplug submit``: hand a tenant job to a serving session."""

import argparse
import json
import sys

from ..engines import ENGINES
from ..errors import ServeError, WireError
from .connect import parse_hostport, report_wire_error


def add_parser(sub) -> None:
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
                        choices=tuple(ENGINES))
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
    submit.set_defaults(func=cmd_submit)


def cmd_submit(args: argparse.Namespace) -> int:
    from ..serve.job import JobSpec

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
        from ..serve.client import GraphClient
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
        except WireError as exc:
            return report_wire_error(exc)

    with open(args.jobs_file, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(f"queued {args.tenant}: {args.algorithm} on {args.graph!r} "
          f"-> {args.jobs_file}")
    return 0
