"""Command-line surface: generate instances, analyze incidence structure,
find c-ordinary triangles, and verify the supporting bounds.

Reports are JSON on stdout; rationals are serialized as exact "p/q" strings.
Exit codes: 0 ok/found, 3 no triangle exists (find), 2 input error,
1 internal error, violated invariant or violated theorem-backed bound,
141 stdout closed early (broken pipe, 128 + SIGPIPE).  An unwritable
stderr does not change the exit code.

A command imports only what it runs: the generate and verify-bounds
handlers live in cli_gen_bounds, which main imports only for those two
commands, and bounds and generators are imported inside the one command
that uses each, so the others do not pay for them at start-up.  A report
is written in one call, and entry() exits without the interpreter's
teardown once stdout and stderr are flushed, so atexit handlers do not run
after it; main() returns its exit code as usual to in-process callers.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import comb

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
    _write(json.dumps(report, indent=2) + "\n")  # json.dump writes per token


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordtri",
                                 description="c-ordinary triangle toolkit (exact arithmetic)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("generate", help="emit a point file on stdout")
    gen.add_argument("--kind", required=True,
                     choices=["grid", "random", "two-line", "rich-line", "projection", "cubic"])
    gen.add_argument("--size", type=int, help="grid side length")
    gen.add_argument("--n", type=int, help="random: number of points")
    gen.add_argument("--bound", type=int, help="random: coordinate bound")
    gen.add_argument("--seed", type=int, help="random: RNG seed")
    gen.add_argument("--n1", type=int, help="two-line: points on y=0")
    gen.add_argument("--n2", type=int, help="two-line: points on x=0")
    gen.add_argument("--k", type=int, help="rich-line: points on the x-axis")
    gen.add_argument("--extra", action="append", metavar="X,Y",
                     help="rich-line: off-axis point (repeatable)")
    gen.add_argument("--m", type=int, help="cubic: parameter range [-m, m]")
    gen.add_argument("--input", help="projection: base point file")
    gen.add_argument("--line", metavar="A,B,C", help="projection: augmentation line a,b,c")
    gen.set_defaults(func=_deferred("cmd_generate"))

    ana = sub.add_parser("analyze", help="incidence structure report")
    ana.add_argument("input", help="point file path, or - for stdin")
    ana.set_defaults(func=cmd_analyze)

    fnd = sub.add_parser("find", help="find/count c-ordinary triangles")
    fnd.add_argument("input", help="point file path, or - for stdin")
    fnd.add_argument("--c", type=int, default=triangles.DEFAULT_CONSTANTS.c)
    fnd.add_argument("--c-prime", type=int, default=triangles.DEFAULT_C_PRIME)
    fnd.add_argument("--mode", choices=["fast", "exhaustive", "count"], default="fast")
    fnd.add_argument("--limit", type=int, default=None,
                     help="cap on the listed (not counted) triangles")
    fnd.add_argument("--allow-small-c", action="store_true",
                     help="permit c < 3 with --mode exhaustive (research escape hatch)")
    fnd.set_defaults(func=cmd_find)

    ver = sub.add_parser("verify-bounds", help="check the supporting bounds")
    ver.add_argument("input", help="point file path, or - for stdin")
    ver.add_argument("--c", type=int, default=triangles.DEFAULT_CONSTANTS.c)
    ver.add_argument("--c-prime", type=int, default=triangles.DEFAULT_C_PRIME)
    ver.set_defaults(func=_deferred("cmd_verify_bounds"))
    return ap


def main(argv=None) -> int:
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
