"""Exact planar primitives: point sets held as integer rows and canonical
integer lines.  No float enters them: collinearity under floating point is
unsound.  Point, PointSet(points) and the points view, Points of Fractions,
remain for callers that build sets from them.  Only the points view imports
Fraction, so no command but verify-bounds loads it, nor decimal and numbers.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from math import gcd, lcm
from sys import int_info

_DIGIT = int_info.bits_per_digit  # bits of one digit of an int


class Point(namedtuple("Point", "x y")):
    __slots__ = ()


class CanonicalLine(namedtuple("CanonicalLine", "a b c")):
    """The line a*x + b*y + c = 0 as a primitive, sign-normalized integer triple.

    Normalization: gcd(|a|,|b|,|c|) = 1 and a > 0, or a = 0 and b > 0.  Two
    instances describe the same set of plane points iff their triples are
    identical, so lines are usable as dict keys.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a == 0 and b == 0:
            raise ValueError("not a line: a = b = 0")
        if gcd(a, b, c) != 1:
            raise ValueError(f"triple {(a, b, c)} is not primitive")
        if not (a > 0 or (a == 0 and b > 0)):
            raise ValueError(f"triple {(a, b, c)} is not sign-normalized")
        return super().__new__(cls, a, b, c)

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "CanonicalLine":
        """Normalize an integer triple into canonical form: one gcd and a sign."""
        g = gcd(a, b, c)
        if a == 0 and b == 0:
            raise ValueError("not a line: a = b = 0")
        if a < 0 or (a == 0 and b < 0):
            g = -g
        return cls._make((a // g, b // g, c // g))  # canonical: skip __new__'s checks

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _row(p: Point) -> tuple[int, int, int, int]:
    """The reduced integer row of a point of Fractions or ints."""
    x, y = p
    return x.numerator, x.denominator, y.numerator, y.denominator


def _coord(v) -> tuple[int, int]:
    """A coordinate as its reduced (numerator, denominator): a "p/q" string of
    the point-file grammar, or a value with int numerator and denominator, as
    an int or a Fraction has; a float or decimal is refused."""
    if isinstance(v, str):
        from .pointfile import _parse_coord  # pointfile imports this module
        return _parse_coord(v, "point")
    n, d = getattr(v, "numerator", None), getattr(v, "denominator", None)
    if type(n) is not int or type(d) is not int:
        raise ValueError(f"coordinate {v!r} is not an int, a Fraction or a 'p/q' string")
    return n, d


class PointSet:
    """Ordered, pairwise-distinct points.  Index order is the canonical
    identity used in all reports.

    Each point is held as its reduced integer row (xn, xd, yn, yd), the
    point (xn/xd, yn/yd) with xd, yd > 0 and each pair coprime, so equal
    points have equal rows; points, the Points of Fractions, is built from
    the rows on first use."""

    def __init__(self, points: tuple[Point, ...]):
        self.points = points = tuple(points)
        self._hold(map(_row, points), False)

    @classmethod
    def _of_rows(cls, rows, distinct: bool = False) -> "PointSet":
        """The points of rows already reduced: xd, yd > 0, each pair coprime."""
        return cls.__new__(cls)._hold(rows, distinct)

    def _hold(self, rows, distinct: bool) -> "PointSet":
        """Hold the rows, checked pairwise distinct unless the caller has
        checked them (distinct=True)."""
        self.rows = rows = tuple(rows)
        if not distinct and len(set(rows)) != len(rows):
            seen: dict[tuple[int, int, int, int], int] = {}
            for i, row in enumerate(rows):
                if row in seen:
                    raise ValueError(f"duplicate point at indices {seen[row]} and {i}: "
                                     f"{self[i]!r}")
                seen[row] = i
        return self

    @cached_property
    def points(self) -> tuple[Point, ...]:
        from fractions import Fraction

        return tuple([Point(Fraction(xn, xd), Fraction(yn, yd))
                      for xn, xd, yn, yd in self.rows])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"PointSet(points={self.points!r})"

    @classmethod
    def of(cls, coords: Iterable) -> "PointSet":
        """The points of (x, y) pairs of _coord's coordinates; int pairs skip it."""
        return cls._of_rows([(x, 1, y, 1) if type(x) is int and type(y) is int
                             else _coord(x) + _coord(y) for x, y in coords])

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def scales(self) -> tuple[int, int]:
        """(sx, sy): the lcm of the denominators of x, and of y."""
        return lcm(*(row[1] for row in self.rows)), lcm(*(row[3] for row in self.rows))

    @cached_property
    def scaled_ints(self) -> tuple[list[tuple[int, int]], int, int]:
        """Integer coordinates (X, Y) = (sx*x, sy*y) with per-axis denominator
        clearing.  The axis scaling is a positive-determinant linear map, so
        collinearity and line multiplicities are preserved."""
        sx, sy = self.scales
        return [(xn * (sx // xd), yn * (sy // yd)) for xn, xd, yn, yd in self.rows], sx, sy

    @cached_property
    def homogeneous(self) -> list[tuple[int, int, int]]:
        """Each point as the integer triple (X, Y, W) = (x*W, y*W, W), with
        W = lcm of the denominators of x and y; a line (a, b, c) holds the
        point iff a*X + b*Y + c*W == 0."""
        out = []
        for xn, xd, yn, yd in self.rows:
            w = lcm(xd, yd)
            out.append((xn * (w // xd), yn * (w // yd), w))
        return out

    @cached_property
    def lifted(self) -> tuple[list[tuple[int, ...]], int, list[tuple[int, int]]]:
        """The lifted points, the key of a level pair (above every slope
        key) and the sweep keys: sorted by them, the points run by y
        descending, then x ascending; level points share a first entry.

        A slope key is floor(2^S * t) of the line's inverse slope t =
        (X - X0) / (Y0 - Y), plus L if sheared; distinct slopes get distinct
        keys.  Rational input takes the homogeneous lift, integer input the
        sheared one where span(Y) fits in one int digit and span(X) << S
        does not, else the plain one.

        - plain: (X << S, Y), S = 2 * bitlen(span(Y)), level key
          L = (span(X) + 1) << S.
        - sheared: (((X - Xmin) << S) - L * (Y - Ymin), Y), level key 2L:
          every dividend is >= 2^S.
        - homogeneous: (X << S, Y, W), S = 4B + 3, B the largest bit length
          in homogeneous, level key 2^(S + 2B + 1); sweep keys floor(2^s * v),
          s = 2 * bitlen(largest denominator on the axis)."""
        return self._lift()

    def _lift(self, kind: str | None = None) -> tuple[list[tuple[int, ...]], int,
                                                     list[tuple[int, int]]]:
        """The lift of kind "plain", "sheared" or "homogeneous", or (None)
        the one lifted picks."""
        sx, sy = self.scales
        if kind == "homogeneous" or kind is None and sx * sy > 1:
            bits = max(v.bit_length() for triple in self.homogeneous for v in triple)
            shift, rows = 4 * bits + 3, self.rows
            tx = 2 * max(row[1] for row in rows).bit_length()
            ty = 2 * max(row[3] for row in rows).bit_length()
            return ([(x << shift, y, w) for x, y, w in self.homogeneous],
                    1 << (shift + 2 * bits + 1),
                    [(-((yn << ty) // yd), (xn << tx) // xd) for xn, xd, yn, yd in rows])
        pts, _, _ = self.scaled_ints
        xs, ys = zip(*pts)
        x_min, y_min = min(xs), min(ys)
        span_y = max(ys) - y_min
        shift = 2 * span_y.bit_length()
        span_x = max(xs) - x_min
        level = (span_x + 1) << shift
        # The shear spares floor division the fix-up of a negative dividend.
        # Shear only where span(Y) fits in one digit: by a longer divisor a
        # division costs in proportion to its quotient, which the shear grows
        # to the bit length of L.  One-digit ints, where span(X) << S fits,
        # already divide fast.
        if kind == "plain" or kind is None and (span_y >> _DIGIT
                                                or not (span_x << shift) >> _DIGIT):
            lifted = [(x << shift, y) for x, y in pts]
        else:
            lifted = [(((x - x_min) << shift) - level * (y - y_min), y) for x, y in pts]
            level *= 2
        return lifted, level, [(-y, x) for x, y in lifted]
