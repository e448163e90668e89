"""The CLI's command table, its strict argv matcher and its report writer.

Each is checked against what argparse and json make of the same input on
the Python that runs the tests: the help texts and usage errors against
the parser of tests/reference.py, declared argument by argument, the
matcher's namespaces against that parser's, and the writer against
json.dumps(indent=2).
"""
import contextlib
import io
import json
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ordtri import cli

REFERENCE = reference.build_parser()


def outcome(parse, argv):
    """(namespace or None, SystemExit code or None, stdout, stderr) of
    parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = parse(argv), None
        except SystemExit as exc:
            result, code = None, exc.code
    return result, code, out.getvalue(), err.getvalue()


def handler(func):
    """What a namespace's func runs: a cli function, or the name of the
    cli_gen_bounds handler that a deferred one imports and runs."""
    return [cell.cell_contents for cell in func.__closure__ or ()] or func


def comparable(namespace):
    return {**vars(namespace), "func": handler(namespace.func)}


HELP = [["--help"], ["-h"], ["generate", "--help"], ["analyze", "--help"], ["find", "-h"],
        ["verify-bounds", "--help"], ["find", "pts.txt", "--c", "3", "--help"]]

REFUSED = [
    [], ["nope"], ["Find", "pts.txt"], ["fin", "pts.txt"], ["--version"],
    ["find"], ["find", "a.txt", "b.txt"], ["find", "pts.txt", "--c"],
    ["find", "pts.txt", "--c", "three"], ["find", "pts.txt", "--c="],
    ["find", "pts.txt", "--c", "1e3"], ["find", "pts.txt", "--mode", "slow"],
    ["find", "pts.txt", "--mode=Count"], ["find", "pts.txt", "--bogus"],
    ["find", "pts.txt", "--allow-small-c=yes"], ["find", "pts.txt", "-x"],
    ["find", "--", "a.txt", "b.txt"], ["analyze"], ["analyze", "pts.txt", "--c", "3"],
    ["verify-bounds", "pts.txt", "--mode", "count"], ["verify-bounds", "--c", "3"],
    ["generate"], ["generate", "--size", "3"], ["generate", "--kind", "hex"],
    ["generate", "--kind", "grid", "grid.txt"], ["generate", "--kind", "grid", "--s", "3"],
    ["generate", "--kind", "grid", "--size", "3x"], ["generate", "--kind", "rich-line", "--extra"],
]


@pytest.mark.parametrize("argv", HELP + REFUSED, ids=" ".join)
def test_help_and_usage_errors_are_the_reference_parsers(argv, monkeypatch):
    # both go through argparse, built from the table or declared by hand:
    # the same stdout, stderr and exit code at a fixed terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._match(argv) is None
    got = outcome(cli.main, argv)
    want = outcome(REFERENCE.parse_args, argv)
    assert got[1:] == want[1:]
    assert got[1] == (0 if set(argv) & {"-h", "--help"} else 2)


# every argv shape of the benchmark's four workloads and of the CI smoke
# step; none falls back to argparse
COMMON = [
    ["find", "pts.txt", "--mode", "count"],
    ["find", "pts.txt"],
    ["find", "pts.txt", "--c", "3", "--mode", "count"],
    ["verify-bounds", "pts.txt", "--c", "3"],
    ["generate", "--kind", "grid", "--size", "4"],
    ["find", "-", "--c", "3", "--mode", "count"],
    ["generate", "--kind", "rich-line", "--k", "10", "--extra", "0,1", "--extra", "1,2",
     "--extra", "3,7"],
    ["find", "-"],
    ["find", "pts.txt", "--c", "4", "--mode", "exhaustive"],
    ["verify-bounds", "-", "--c", "3"],
    ["generate", "--kind", "projection", "--input", "base.txt", "--line", "3,-2,1"],
    ["generate", "--kind", "projection", "--input", "base.txt", "--line=-2,27154,-2000000014"],
    ["find", "pts.txt", "--c", "2", "--mode", "exhaustive", "--allow-small-c"],
    ["find", "pts.txt", "--c", "0", "--mode", "exhaustive", "--allow-small-c"],
    ["find", "-", "--c", "3", "--mode", "exhaustive"],
    ["generate", "--kind", "rich-line", "--k", "4", "--extra", "1,0.5"],
    ["generate", "--kind", "rich-line", "--k", "4", "--extra", "1/2,1/3", "--extra", "0,1"],
    ["analyze", "pts.txt"],
    ["generate", "--kind", "random", "--n", "12", "--bound", "100000", "--seed", "3"],
    ["generate", "--kind", "projection", "--input", "base.txt", "--line", "1,-13577,1000000007"],
    ["generate", "--kind", "grid", "--size", "7"],
]


@pytest.mark.parametrize("argv", COMMON, ids=" ".join)
def test_common_argv_are_matched(argv):
    got = cli._match(argv)
    assert got is not None
    namespace, code, _, err = outcome(REFERENCE.parse_args, argv)
    assert code is None, err
    assert comparable(got) == comparable(namespace)


COMMANDS = ["generate", "analyze", "find", "verify-bounds", "fin", "Find", "verify", ""]
FLAGS = {
    "generate": ["--kind", "--size", "--n", "--bound", "--seed", "--n1", "--n2", "--k", "--extra",
                 "--m", "--input", "--line"],
    "analyze": [],
    "find": ["--c", "--c-prime", "--mode", "--limit", "--allow-small-c"],
    "verify-bounds": ["--c", "--c-prime"],
}
NEAR = ["--c-p", "--c-", "--c_prime", "--mo", "--Mode", "--lim", "--allow", "--allow-small",
        "--ki", "--si", "--s", "--se", "--b", "--e", "--ex", "--l", "--li", "--i", "--inp",
        "--n3", "--x", "--count", "-c", "-m", "-h", "--help", "--", "-", "-x"]
VALUES = ["3", "0", "12000", "+7", "1_0", "-3", "٣", "３", " 4", "4 ", "", "x", "1e3",
          "3.0", "count", "fast", "exhaustive", "Count", "grid", "random", "two-line",
          "rich-line", "projection", "cubic", "hex", "1,2", "0,1", "1/2,1/3", "3,-2,1", "-1,2",
          "a=b", "-", "-x", "--c", "pts.txt", "a b", "pé.txt"]
VALUE = st.sampled_from(VALUES)
# values each option takes, so that a drawn argv is often well-formed
GOOD = {"--kind": ["grid", "random", "two-line", "rich-line", "projection", "cubic"],
        "--mode": ["fast", "exhaustive", "count"], "--extra": ["0,1", "1/2,1/3", "-1,2"],
        "--input": ["base.txt", "-"], "--line": ["3,-2,1", "-2,27154,-2000000014"]}
INTS = ["3", "0", "12000", "+7", "1_0", "٣", " 4"]


def value(flag):
    """A value for flag: three times in four one of those it takes, else
    any value."""
    good = st.sampled_from(GOOD.get(flag, INTS))
    return st.one_of(good, good, good, VALUE)


def parts(flags, alone):
    """Lists of argv pieces around options drawn from flags: an option and a
    value (a store_true option alone), an option=value token, or, for about
    one piece in alone, a token on its own."""
    option = st.sampled_from(flags)
    pair = option.flatmap(lambda flag: st.just((flag,)) if flag == "--allow-small-c"
                          else st.tuples(st.just(flag), value(flag)))
    joined = option.flatmap(lambda flag: value(flag).map(lambda v: (f"{flag}={v}",)))
    return st.lists(st.one_of(*[pair, joined] * (alone - 1), st.tuples(st.one_of(option, VALUE))),
                    max_size=5)


@st.composite
def argvs(draw):
    """An argv of any command and any options; or, as often, one of a real
    command with its own options, its positional or --kind put in among
    them."""
    everything = sorted({*chain.from_iterable(FLAGS.values()), *NEAR})
    if draw(st.booleans()):
        return [draw(st.sampled_from(COMMANDS)),
                *chain.from_iterable(draw(parts(everything, 2)))]
    command = draw(st.sampled_from(sorted(FLAGS)))
    own = FLAGS[command] or everything
    pieces = draw(parts(own, 8))
    first = (("--kind", draw(value("--kind"))) if command == "generate"
             else (draw(st.one_of(st.sampled_from(["pts.txt", "-"]), VALUE)),))
    pieces.insert(draw(st.integers(0, len(pieces))), first)
    return [command, *chain.from_iterable(pieces)]


@settings(max_examples=2000, deadline=None)
@given(argv=argvs())
def test_a_matched_argv_parses_as_argparse_parses_it(argv):
    got = cli._match(argv)
    if got is None:  # argparse parses or refuses it, as test_help_and_usage_... checks
        return
    namespace, code, _, err = outcome(REFERENCE.parse_args, argv)
    assert code is None, f"matched an argv argparse refuses: {err}"
    assert comparable(got) == comparable(namespace)


# --- the report writer --------------------------------------------------------

TEXT = st.lists(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\n\r\t\u2028\U00010000\udfff\U0001f600'),
    st.sampled_from("abc xyz-_,.:"),
)).map("".join)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: round(x, 6)),
    TEXT,
)
REPORTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(TEXT, children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(value=REPORTS)
def test_the_writer_is_json_dumps_indent_2(value):
    assert cli._dump(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), [1, {"t": -float("inf")}]])
def test_the_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        cli._dump(value)
