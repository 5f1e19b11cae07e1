"""``repro-gxplug figure``: regenerate one registered experiment."""

import argparse

from ..bench.figures import FIGURES


def add_parser(sub) -> None:
    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("name", choices=tuple(FIGURES))
    fig.set_defaults(func=cmd_figure)


def cmd_figure(args: argparse.Namespace) -> int:
    figure = FIGURES[args.name]
    figure.render(figure, figure.run())
    return 0
