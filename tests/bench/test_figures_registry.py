"""The figure registry: one ``Figure`` per experiment, every reader
derived from it (CLI choices, oracle rows, exports, DESIGN.md §4)."""

import inspect
import re
from pathlib import Path

import pytest

import repro.bench
from repro.bench.figures import FIGURES, fault, paper, serving
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]


def test_names_unique_and_keyed_by_name():
    entries = [fig for family in (paper, fault, serving)
               for fig in family.FIGURES]
    assert len({fig.name for fig in entries}) == len(entries) == 22
    assert all(FIGURES[fig.name] is fig for fig in entries)
    rows = [row for fig in entries for row, _kwargs in fig.quick_rows()]
    assert len(set(rows)) == len(rows) == 23


@pytest.mark.parametrize("name", list(FIGURES))
def test_quick_keys_are_run_parameters(name):
    fig = FIGURES[name]
    params = set(inspect.signature(fig.run).parameters)
    for row, kwargs in fig.quick_rows():
        assert set(kwargs) <= params, row


def test_cli_choices_are_the_registry():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    name = next(a for a in sub.choices["figure"]._actions
                if a.dest == "name")
    assert list(name.choices) == list(FIGURES)


def test_bench_exports_every_runner_once():
    runners = [fig.run.__name__ for fig in FIGURES.values()]
    assert all(getattr(repro.bench, r) is FIGURES[n].run
               for n, r in zip(FIGURES, runners))
    assert all(repro.bench.__all__.count(r) == 1 for r in runners)


@pytest.mark.parametrize("name", ["fig9a", "fig11b", "fig12a", "fig13",
                                  "fault_soak", "straggler_soak"])
def test_rows_are_as_wide_as_the_headers(name):
    """Nothing but this ties a header tuple to its runner's rows (the
    sub-2-second quick runs; the rest share the same declaration)."""
    fig = FIGURES[name]
    rows = fig.run(**fig.quick)
    assert rows and all(len(row) == len(fig.headers) for row in rows)


def test_design_index_lists_exactly_the_registry():
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 4. "):text.index("## 5. ")]
    ids = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert sorted(ids) == sorted(FIGURES)
