"""``repro-gxplug mutate``: apply a mutation batch to a served graph."""

import argparse
import json
import sys

from ..errors import GraphError, WireError
from .connect import parse_hostport, report_wire_error


def add_parser(sub) -> None:
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
    mut.set_defaults(func=cmd_mutate)


def cmd_mutate(args: argparse.Namespace) -> int:
    from ..graph.mutations import MutationBatch
    from ..serve.client import GraphClient

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
    except WireError as exc:
        return report_wire_error(exc)
    verb = ("already applied as" if resp["deduped"]
            else f"applied {resp['changes']} change(s) as")
    print(f"{args.graph!r} {verb} batch {resp['batch_id']} "
          f"(v{resp['from_version']} -> v{resp['version']})")
    return 0
