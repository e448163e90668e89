"""Text point files: one "x y" pair per line, integer or exact "p/q" rational
coordinates.  Blank lines are ignored, and '#' starts a comment that runs to
the end of the line, on a line of its own or after a point.  Floating-point
literals are rejected outright: silently rationalizing decimals would change
the collinearity structure.

A file is read straight into the reduced integer rows of PointSet, and
written from them: no Fraction is made either way.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from math import gcd

from .geom import PointSet

_COORD = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # ASCII digits, q > 0, for fullmatch


class PointFileError(ValueError):
    """Parse failure; message carries where it failed (line numbers, option)."""


def _parse_coord(tok: str, where: str | None = None) -> tuple[int, int]:
    """One coordinate token as its reduced (numerator, denominator > 0);
    where, if given, locates it in the error message."""
    m = _COORD.fullmatch(tok)
    if m is None:
        error = f"bad coordinate {tok!r} (integer or p/q rational required)"
        raise PointFileError(error if where is None else f"{where}: {error}")
    p, q = m.groups()
    if q is None:
        return int(p), 1
    p, q = int(p), int(q)
    g = gcd(p, q)
    return p // g, q // g


def parse_points(stream: Iterable[str]) -> PointSet:
    seen: dict[tuple[int, int, int, int], int] = {}  # each row, in file order, at its first line
    duplicates: list[str] = []
    for lineno, raw in enumerate(stream, start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if len(toks) != 2:
            line = raw.split("#", 1)[0].strip()
            raise PointFileError(f"line {lineno}: expected 'x y', got {line!r}")
        try:
            row = _parse_coord(toks[0]) + _parse_coord(toks[1])
        except PointFileError as exc:
            raise PointFileError(f"line {lineno}: {exc}") from None
        first = seen.setdefault(row, lineno)
        if first != lineno:
            duplicates.append(f"line {lineno} repeats line {first}")
    if duplicates:
        raise PointFileError("duplicate points: " + "; ".join(duplicates))
    return PointSet._of_rows(seen, distinct=True)


def _ratio_text(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def format_points(P: PointSet) -> str:
    return "".join([f"{xn} {yn}\n" if xd == yd == 1
                    else f"{_ratio_text(xn, xd)} {_ratio_text(yn, yd)}\n"
                    for xn, xd, yn, yd in P.rows])
