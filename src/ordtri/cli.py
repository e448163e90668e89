"""Command-line surface: generate instances, analyze incidence structure,
find c-ordinary triangles, and verify the supporting bounds.

Reports are JSON on stdout; rationals are serialized as exact "p/q" strings.
Exit codes: 0 ok/found, 3 no triangle exists (find), 2 input error,
1 internal error, violated invariant or violated theorem-backed bound,
141 stdout closed early (broken pipe, 128 + SIGPIPE).  An unwritable
stderr does not change the exit code.

The CLI is described once, in the command table _COMMANDS.  main matches a
well-formed argv against it with _match, which needs no argparse;
argparse, built from the same table by build_parser, runs only for --help
and for the argv the matcher leaves, so it writes every help text and
usage error.  Reports come from _dump, a small writer whose output is
json.dumps(report, indent=2) byte for byte; it imports json only to escape
a string that needs it.

A command imports only what it runs: the generate and verify-bounds
handlers live in cli_gen_bounds, which main imports only for those two
commands, and bounds and generators are imported inside the one command
that uses each, so the others do not pay for them at start-up.  A report
is written in one call, and entry() exits without the interpreter's
teardown once stdout and stderr are flushed, so atexit handlers do not run
after it; main() returns its exit code as usual to in-process callers.
"""
from __future__ import annotations

import os
import sys
import time
from math import comb, isfinite
from types import SimpleNamespace

from . import triangles
from .incidence import (
    InvariantError,
    PointSet,
    classify_degeneracy,
    line_census,
)
from .pointfile import PointFileError, _ratio_text, parse_points

REPORT_VERSION = "1"


def _read_points(path: str) -> PointSet:
    if path == "-":
        return parse_points(sys.stdin)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise PointFileError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        return parse_points(fh)


def _degeneracy_json(cls) -> dict:
    return {
        "tag": cls.tag.value,
        "witness": [list(l.triple()) for l in cls.witness],
    }


def _emit(report: dict, started: float) -> None:
    report["timing_seconds"] = round(time.perf_counter() - started, 6)
    _write(_dump(report) + "\n")


def _dump(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2) writes it, for the values a
    report holds: dicts with str keys, lists and tuples, str, int, bool,
    None and finite floats.  indent is the newline and indentation of
    value's own depth; its items go two spaces deeper."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"report value {value!r} is not a finite float")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_string(k)}: {_dump(v, inner)}" for k, v in value.items()]
        return "{" + inner + f",{inner}".join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + f",{inner}".join([_dump(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _string(text: str) -> str:
    """text as a JSON string literal, ASCII only, as json.dumps writes it.
    json is imported only for text that is not plain printable ASCII free
    of quotes and backslashes, which needs escapes."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _write(text: str) -> None:
    """Write text to stdout in one call, to its binary layer if it has one.
    An unbuffered stdout (python -u) may take only part of it, and its text
    layer would drop the rest unseen, so what is left goes again: a reader
    that went away then shows as BrokenPipeError, and so does a closed
    fd 1, where sys.stdout is None."""
    if sys.stdout is None:
        raise BrokenPipeError("stdout is closed")
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[out.write(data):]


# --- analyze ----------------------------------------------------------------

def cmd_analyze(args) -> int:
    started = time.perf_counter()
    P = _read_points(args.input)
    if len(P) < 2:
        raise PointFileError("need at least 2 points to analyze")
    census = line_census(P)
    n = len(P)
    pair_sum = sum(comb(l, 2) * k for l, k in census.count_by_mult.items())
    report = {
        "version": REPORT_VERSION,
        "command": "analyze",
        "parameters": {"input": args.input},
        "n": n,
        "line_count": census.line_count,
        "spectrum": [[k, f] for k, f in census.spectrum_table()],
        "degeneracy": _degeneracy_json(classify_degeneracy(P)),
        "pair_sum_identity": {
            "sum_pairs_on_lines": pair_sum,
            "choose_n_2": comb(n, 2),
            "holds": pair_sum == comb(n, 2),
        },
    }
    _emit(report, started)
    return 0


# --- find -------------------------------------------------------------------

def cmd_find(args) -> int:
    started = time.perf_counter()
    if args.c < 3 and not (args.allow_small_c and args.mode == "exhaustive"):
        raise PointFileError(
            "c must be >= 3 (use --allow-small-c with --mode exhaustive for research runs)")
    P = _read_points(args.input)
    if args.c_prime < 1:
        raise ValueError("c_prime must be >= 1")
    rep = triangles.find_c_ordinary(P, args.c, mode=args.mode, limit=args.limit)
    report = {
        "version": REPORT_VERSION,
        "command": "find",
        "parameters": {"input": args.input, "c": args.c, "c_prime": args.c_prime,
                       "mode": args.mode, "limit": args.limit},
        "n": len(P),
        "degeneracy": _degeneracy_json(rep.classification),
        "spectrum": [[k, f] for k, f in rep.spectrum],
        "case_taken": rep.case_taken.value,
        "count": rep.count,
        "count_kind": "exact" if rep.count_is_exact else "lower_bound",
        "triangles": rep.triangles,  # json writes its tuples as arrays
    }
    witness = rep.rich_witness
    if witness is not None:
        def coords(i: int) -> list[str]:  # point i's coordinates, from its row
            xn, xd, yn, yd = P.rows[i]
            return [_ratio_text(xn, xd), _ratio_text(yn, yd)]

        report["rich_case"] = {
            "rich_line": list(witness.rich_line.triple()),
            "q": coords(witness.q),
            "r": coords(witness.r),
            "excluded": sorted(witness.excluded),
            "survivors": sorted(witness.survivors),
            "guaranteed_minimum": witness.guarantee,
        }
    _emit(report, started)
    return 0 if rep.count > 0 else 3


# --- entry ------------------------------------------------------------------

def _deferred(name: str):
    """The handler name of cli_gen_bounds, imported when the command runs."""
    def run(args) -> int:
        from . import cli_gen_bounds

        return getattr(cli_gen_bounds, name)(args)
    return run


_INPUT = "point file path, or - for stdin"

# The CLI, described once: each command's help, the help of its one
# positional (input; None where it takes none), its handler, and its
# options as (flag, add_argument keywords).  build_parser hands the
# keywords to argparse as they are, and _match reads the same ones: type
# (int, or absent for the string itself), choices, default, required and
# action (store_true, append, or absent for a plain store).
_COMMANDS = {
    "generate": ("emit a point file on stdout", None, _deferred("cmd_generate"), (
        ("--kind", {"required": True, "choices": ["grid", "random", "two-line", "rich-line",
                                                  "projection", "cubic"]}),
        ("--size", {"type": int, "help": "grid side length"}),
        ("--n", {"type": int, "help": "random: number of points"}),
        ("--bound", {"type": int, "help": "random: coordinate bound"}),
        ("--seed", {"type": int, "help": "random: RNG seed"}),
        ("--n1", {"type": int, "help": "two-line: points on y=0"}),
        ("--n2", {"type": int, "help": "two-line: points on x=0"}),
        ("--k", {"type": int, "help": "rich-line: points on the x-axis"}),
        ("--extra", {"action": "append", "metavar": "X,Y",
                     "help": "rich-line: off-axis point (repeatable)"}),
        ("--m", {"type": int, "help": "cubic: parameter range [-m, m]"}),
        ("--input", {"help": "projection: base point file"}),
        ("--line", {"metavar": "A,B,C", "help": "projection: augmentation line a,b,c"}),
    )),
    "analyze": ("incidence structure report", _INPUT, cmd_analyze, ()),
    "find": ("find/count c-ordinary triangles", _INPUT, cmd_find, (
        ("--c", {"type": int, "default": triangles.DEFAULT_CONSTANTS.c}),
        ("--c-prime", {"type": int, "default": triangles.DEFAULT_C_PRIME}),
        ("--mode", {"choices": ["fast", "exhaustive", "count"], "default": "fast"}),
        ("--limit", {"type": int, "default": None,
                     "help": "cap on the listed (not counted) triangles"}),
        ("--allow-small-c", {
            "action": "store_true",
            "help": "permit c < 3 with --mode exhaustive (research escape hatch)"}),
    )),
    "verify-bounds": ("check the supporting bounds", _INPUT, _deferred("cmd_verify_bounds"), (
        ("--c", {"type": int, "default": triangles.DEFAULT_CONSTANTS.c}),
        ("--c-prime", {"type": int, "default": triangles.DEFAULT_C_PRIME}),
    )),
}


def build_parser():
    """The argparse.ArgumentParser of the command table.  main builds it only
    for the argv _match leaves (--help and everything else), so argparse
    writes every help text and usage error."""
    import argparse

    ap = argparse.ArgumentParser(prog="ordtri",
                                 description="c-ordinary triangle toolkit (exact arithmetic)")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (summary, positional, func, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=summary)
        if positional is not None:
            cmd.add_argument("input", help=positional)
        for flag, keywords in options:
            cmd.add_argument(flag, **keywords)
        cmd.set_defaults(func=func)
    return ap


def _match(argv):
    """The namespace build_parser().parse_args(argv) returns, for an argv this
    strict matcher can prove well-formed; None for any other, which argparse
    then parses or refuses.  Well-formed: an exact command name first, then
    exact long option names, as --opt v or --opt=v (a store_true option
    without a value), and the command's one positional, which may be -.  No
    value is empty, and neither a value given as a token of its own nor the
    positional starts with - (the positional - aside): argparse classes
    such tokens by rules of its own.  Values go through the option's type
    and choices as in argparse, and every required option must be given."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, positional, func, options = command
    spec = {flag: (flag[2:].replace("-", "_"), keywords) for flag, keywords in options}
    args = {"cmd": argv[0], "func": func}
    for dest, keywords in spec.values():
        store_true = keywords.get("action") == "store_true"
        args[dest] = keywords.get("default", False if store_true else None)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-" or token[:1] != "-":
            if positional is None or "input" in seen or not token:
                return None
            args["input"] = token
            seen.add("input")
            continue
        flag, eq, value = token.partition("=")
        if flag not in spec:
            return None
        dest, keywords = spec[flag]
        seen.add(dest)
        action = keywords.get("action")
        if action == "store_true":
            if eq:
                return None
            args[dest] = True
            continue
        if not eq:
            value = next(tokens, "")
            if value[:1] == "-":
                return None
        if not value:
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = [*(args[dest] or ()), value] if action == "append" else value
    if positional is not None and "input" not in seen:
        return None
    if any(keywords.get("required") and dest not in seen for dest, keywords in spec.values()):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = _match(sys.argv[1:] if argv is None else list(argv))
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send the interpreter's final flush to devnull
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    except (PointFileError, ValueError) as exc:
        return _complain(f"error: {exc}", 2)
    except InvariantError as exc:
        return _complain(f"invariant violated: {exc}", 1)
    except Exception as exc:  # pragma: no cover - defensive
        return _complain(f"internal error: {exc}", 1)


def _complain(message: str, code: int) -> int:
    """Print message on stderr and return code, also when stderr cannot be
    written (a full disk, a closed pipe): the exit code tells the error."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass
    return code


def entry() -> None:
    """Run main, flush stdout and stderr, and exit without the interpreter's
    teardown (os._exit), which costs more than the pair pass on small
    inputs.  A
    stdout that breaks on that flush exits 141, as in main; any other
    stream error keeps main's code.  Usage errors and --help exit through
    argparse's SystemExit, with the normal teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except BrokenPipeError:
            if stream is sys.stdout:
                code = 141
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
