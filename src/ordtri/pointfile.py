"""Text point files: one "x y" pair per line, integer or exact "p/q" rational
coordinates.  Blank lines are ignored, and '#' starts a comment that runs to
the end of the line, on a line of its own or after a point.  Floating-point
literals are rejected outright: silently rationalizing decimals would change
the collinearity structure.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

from .geom import Point
from .incidence import PointSet

_COORD = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # ASCII digits, q > 0, for fullmatch
_INTEGER = re.compile(r"[+-]?[0-9]+")  # a coordinate's numerator, for fullmatch


class PointFileError(ValueError):
    """Parse failure; message carries where it failed (line numbers, option)."""


def _parse_coord(tok: str, where: str) -> Fraction:
    """One coordinate token; where locates it in the error message.  The
    Fraction is built from the parts the grammar matched, not parsed again."""
    m = _COORD.fullmatch(tok)
    if m is None:
        raise PointFileError(
            f"{where}: bad coordinate {tok!r} (integer or p/q rational required)")
    return Fraction(int(m[1]), int(m[2])) if m[2] else Fraction(int(m[1]))


def parse_points(stream: Iterable[str]) -> PointSet:
    seen: dict[Point, int] = {}  # each point, in file order, at its first line
    duplicates: list[str] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise PointFileError(f"line {lineno}: expected 'x y', got {line!r}")
        where = f"line {lineno}"
        p = Point(_parse_coord(toks[0], where), _parse_coord(toks[1], where))
        first = seen.setdefault(p, lineno)
        if first != lineno:
            duplicates.append(f"line {lineno} repeats line {first}")
    if duplicates:
        raise PointFileError("duplicate points: " + "; ".join(duplicates))
    return PointSet(tuple(seen))


def format_coord(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def format_points(P: PointSet) -> str:
    return "".join(f"{format_coord(p.x)} {format_coord(p.y)}\n" for p in P)
