"""``repro-gxplug datasets``: the Table I inventory."""

from .figure import cmd_figure


def add_parser(sub) -> None:
    datasets = sub.add_parser(
        "datasets", help="list the Table I dataset twins")
    # Table I is a registered figure; this is its own-name shorthand
    datasets.set_defaults(func=cmd_figure, name="table1")
