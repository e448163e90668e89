"""Golden `find` and `verify-bounds` reports: byte-identical output on fixed
inputs.

Each report under tests/data was written by `ordtri <command> <input>
<options>` run in tests/data, with the `timing_seconds` line removed.  The
inputs are gen_rich_line_plus(14, [(0, 1), (1, 3), (3, 7), (5, -2)]), a
projection set on a rational base (its census runs on per-axis scaled
integers), gen_grid(6), gen_random(60, 5000, 7), gen_cubic_progression(6)
and gen_rich_line_plus(9, [(0, j) for j in range(1, 8)] + [(1, 1)]), whose
apex (0, 0) is excluded at c = 7 for its line to q = (0, 1), of 8 points.
A `find` report is named after the input and its options, a `verify-bounds`
report after the input, the command and its options.

Every default `find` run takes the rich-line path.  Its rich line is the
census's top line: of maximum multiplicity, with the first point in sweep
order (y descending, then x ascending), and the lowest canonical triple
among such lines through that point.  Its (q, r) is the first index pair
off the rich line whose line holds no third point off it.  These fix the
`rich_case` fields and the `triangles` and lower-bound `count`.
"""
import re
from pathlib import Path

import pytest

from ordtri.cli import main

DATA = Path(__file__).parent / "data"

FIND_RUNS = [
    ("rich", []), ("rich", ["--mode", "count"]),
    ("projection", []), ("projection", ["--mode", "count"]),
    ("grid6", ["--c", "3", "--limit", "12"]), ("grid6", ["--c", "3", "--mode", "count"]),
    ("grid6", ["--c", "3", "--mode", "exhaustive", "--limit", "12"]),
    ("grid6", []), ("grid6", ["--mode", "count"]),
    ("random60", []), ("random60", ["--mode", "count"]),
    ("random60", ["--c", "5", "--mode", "exhaustive"]),
    ("cubic", []), ("cubic", ["--mode", "count"]),
    ("rich-excluded", ["--c", "7"]),
]

VERIFY_BOUNDS_RUNS = [
    ("projection", []), ("grid6", ["--c", "3"]), ("grid6", []),
    ("random60", ["--c", "5"]), ("cubic", []),
]


def golden_name(name, options):
    return "-".join([name] + [o.lstrip("-") for o in options]) + ".json"


def check_golden(command, name, options, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert main([command, f"{name}.txt", *options]) == 0
    report, removed = re.subn(r',\n  "timing_seconds": [^\n]*\n}\n$', "\n}\n",
                              capsys.readouterr().out)
    assert removed == 1
    stem = name if command == "find" else f"{name}-{command}"
    assert report == (DATA / golden_name(stem, options)).read_text()


@pytest.mark.parametrize("name, options", FIND_RUNS,
                         ids=[golden_name(n, o)[:-5] for n, o in FIND_RUNS])
def test_find_report_matches_golden(name, options, capsys, monkeypatch):
    check_golden("find", name, options, capsys, monkeypatch)


@pytest.mark.parametrize("name, options", VERIFY_BOUNDS_RUNS,
                         ids=[golden_name(n, o)[:-5] for n, o in VERIFY_BOUNDS_RUNS])
def test_verify_bounds_report_matches_golden(name, options, capsys, monkeypatch):
    check_golden("verify-bounds", name, options, capsys, monkeypatch)
