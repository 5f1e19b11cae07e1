"""Command-line interface for the GX-Plug reproduction.

Subcommands (one module each, parser and handler side by side)::

    repro-gxplug datasets                    # Table I inventory
    repro-gxplug run --algorithm pagerank --dataset orkut \\
                     --nodes 4 --gpus 1 --engine powergraph
    repro-gxplug figure fig9a                # regenerate a paper figure
    repro-gxplug submit --jobs-file jobs.jsonl --graph wrn \\
                     --algorithm pagerank --tenant alice
    repro-gxplug serve --jobs-file jobs.jsonl --nodes 2  # drain them

Everything prints deterministic simulated-millisecond results.
"""

import argparse
from typing import List, Optional

from .. import __version__
from ..algorithms import ALGORITHMS
from ..bench.figures import FIGURES
from ..engines import ENGINES
from . import bench, datasets, figure, mutate, run, serve, submit
from .run import runtime_from_args

#: The subcommand modules, in ``--help`` order; each owns an
#: ``add_parser(sub)`` that binds its handler with ``set_defaults(func=)``.
COMMANDS = (datasets, run, figure, submit, mutate, serve, bench)

# ALGORITHMS / ENGINES / FIGURES are the registries themselves, kept
# importable from here; the CLI holds no list of its own
__all__ = ["ALGORITHMS", "ENGINES", "FIGURES", "build_parser", "main",
           "runtime_from_args"]


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gxplug",
        description="GX-Plug (ICDE 2022) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        command.add_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
