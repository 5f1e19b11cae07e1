"""What the ``--connect`` / ``--listen`` subcommands share."""

import sys

from ..errors import WireError, WireShed, WireUnavailable


def parse_hostport(text: str) -> "tuple":
    """Split a ``HOST:PORT`` clause; raises ``ValueError`` when bad."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def report_wire_error(exc: WireError) -> int:
    """Print a failed wire call to stderr; returns the exit code."""
    if isinstance(exc, WireShed):
        print(f"shed: {exc} (retry after {exc.retry_after_ms:.0f} ms"
              + (", draining)" if exc.draining else ")"),
              file=sys.stderr)
    elif isinstance(exc, WireUnavailable):
        print(f"error: {exc}; backoff applied: "
              f"{[round(d, 3) for d in exc.backoff_schedule]}",
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 1
