"""The generate and verify-bounds commands of the CLI.

cli.main imports this module only to run one of these two commands, so find
and analyze do not compile it.  It is imported on first use, so the
functions of other ordtri modules are looked up at call time: a binding
copied at import would keep whatever wrapper a test or tracer had installed
then.
"""
from __future__ import annotations

import time
from math import gcd

from . import incidence, pointfile, triangles
from .cli import REPORT_VERSION, _emit, _read_points, _write
from .geom import CanonicalLine
from .pointfile import _COORD, PointFileError, _parse_coord, _ratio_text
from .triangles import Constants


# --- generate ---------------------------------------------------------------

def _parse_line_triple(text: str) -> CanonicalLine:
    """An --line A,B,C triple, each an integer in the point-file grammar:
    a coordinate token without a denominator."""
    toks = text.split(",")
    if len(toks) != 3 or not all(m and m[2] is None for m in map(_COORD.fullmatch, toks)):
        raise PointFileError(f"bad line triple {text!r}: expected three integers A,B,C")
    try:
        return CanonicalLine.of(*map(int, toks))
    except ValueError as exc:
        raise ValueError(f"bad line triple {text!r}: {exc}") from exc


def cmd_generate(args) -> int:
    from . import generators

    kind = args.kind
    if kind == "grid":
        P = generators.gen_grid(_require(args, "size"))
    elif kind == "two-line":
        P = generators.gen_two_line_union(_require(args, "n1"), _require(args, "n2"))
    elif kind == "random":
        P = generators.gen_random(_require(args, "n"), _require(args, "bound"),
                                  args.seed if args.seed is not None else 0)
    elif kind == "rich-line":
        P = generators.gen_rich_line_plus(_require(args, "k"),
                                          [_parse_extra(e) for e in args.extra or []])
    elif kind == "projection":
        if not args.input:
            raise ValueError("--kind projection requires --input")
        base = _read_points(args.input)
        ell = _parse_line_triple(_require(args, "line"))
        P = generators.gen_projection_augmented(base, ell)
    elif kind == "cubic":
        P = generators.gen_cubic_progression(_require(args, "m"))
    else:  # --kind's choices make this unreachable
        raise ValueError(f"unknown kind {kind!r}")
    _write(pointfile.format_points(P))
    return 0


def _parse_extra(text: str) -> tuple[str, str]:
    """An --extra X,Y point's two tokens, checked in the point-file grammar."""
    where, toks = f"--extra {text!r}", text.split(",")
    if len(toks) != 2:
        raise PointFileError(f"{where}: expected 'X,Y'")
    for tok in toks:
        _parse_coord(tok, where)
    return toks[0], toks[1]


def _require(args, name):
    v = getattr(args, name.replace("-", "_"), None)
    if v is None:
        raise ValueError(f"--kind {args.kind} requires --{name}")
    return v


# --- verify-bounds ----------------------------------------------------------

def _ratio(n: int, d: int) -> str:
    """n/d, for d > 0, in lowest terms as point-file text: "p" or "p/q"."""
    g = gcd(n, d)
    return _ratio_text(n // g, d // g)


def _bound_json(r) -> dict:
    out = {
        "name": r.name,
        "instance": r.instance,
        "checked": _ratio(r.checked, r.scale),
        "threshold": _ratio(r.threshold, r.scale),
        "satisfied": r.satisfied,
        "vacuous": r.vacuous,
    }
    if r.details:
        out["details"] = r.details  # every value an int
    return out


def cmd_verify_bounds(args) -> int:
    from . import bounds

    started = time.perf_counter()
    P = _read_points(args.input)
    n = len(P)
    if n < 2:
        raise PointFileError("need at least 2 points to verify bounds")
    constants = Constants(args.c, args.c_prime)
    # every bound reads this one census: its lines are the determined lines,
    # each holding exactly its multiplicity l of points
    census = incidence.line_census(P, rich_threshold=args.c)
    hist = census.count_by_mult
    reports = bounds.check_st(n, census.spectrum_table(), args.c_prime)
    reports.append(bounds.check_incidence_bound(
        n, census.line_count, sum(l * k for l, k in hist.items())))
    edges, t3 = triangles.poor_graph_size(P, args.c, census)
    reports.append(bounds.check_eg(n, edges, t3, instance=f"poor graph n={n} c={args.c}"))
    skipped = []
    if triangles.exceeds_alpha_n(args.c, census.max_multiplicity, n):
        skipped.append({"name": "medium-line pair sum",
                        "reason": "skipped: rich line present (l_i > alpha*n)"})
    else:
        reports.extend(bounds.check_medium_sum(n, hist, constants))
    reports.sort(key=lambda r: r.name)
    all_ok = all(r.satisfied for r in reports)
    report = {
        "version": REPORT_VERSION,
        "command": "verify-bounds",
        "parameters": {"input": args.input, "c": args.c, "c_prime": args.c_prime},
        "n": n,
        "constants": {"c": constants.c, "c_prime": constants.c_prime,
                      "alpha": _ratio(4, args.c + 1),
                      "dyadic_sum_constants": {
                          "below_sqrt_n": _ratio(8 * args.c_prime * n * n, args.c + 1),
                          "above_sqrt_n": _ratio(16 * args.c_prime * n * n, args.c + 1),
                      }},
        "bounds": [_bound_json(r) for r in reports],
        "skipped": skipped,
        "all_satisfied": all_ok,
    }
    _emit(report, started)
    return 0 if all_ok else 1
