"""Exact planar primitives: rational points, point sets held as integer rows,
canonical integer lines, predicates.

Everything here is error-free integer/rational arithmetic.  Collinearity under
floating point is unsound, so no float ever enters a predicate.  fractions is
imported only where a Fraction is made, so a command that reads, counts and
writes integer rows never loads it (nor decimal, which it imports).
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from math import gcd, lcm
from sys import int_info

_DIGIT = int_info.bits_per_digit  # bits of one digit of an int


class DegeneratePairError(ValueError):
    """Line requested through two coincident points."""


class Point(namedtuple("Point", "x y")):
    __slots__ = ()


def point(x, y) -> Point:
    """Build a Point from anything Fraction accepts (int, Fraction, 'p/q' string)."""
    from fractions import Fraction

    return Point(Fraction(x), Fraction(y))


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
    def of(cls, a, b, c) -> "CanonicalLine":
        """Normalize an arbitrary rational/integer triple into canonical form."""
        if not type(a) is type(b) is type(c) is int:
            from fractions import Fraction

            a, b, c = Fraction(a), Fraction(b), Fraction(c)
            scale = lcm(a.denominator, b.denominator, c.denominator)
            a, b, c = int(a * scale), int(b * scale), int(c * scale)
        if a == 0 and b == 0:
            raise ValueError("not a line: a = b = 0")
        g = gcd(a, b, c)
        if a < 0 or (a == 0 and b < 0):
            g = -g
        return cls(a // g, b // g, c // g)

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the determinant of (q-p, r-p): +1 ccw, -1 cw, 0 collinear.

    Coincident points count as collinear.  Exact, no rounding.
    """
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def line_through(p: Point, q: Point) -> CanonicalLine:
    """The unique canonical line incident to both p and q.  Symmetric in p, q."""
    if p == q:
        raise DegeneratePairError(f"degenerate pair: {p!r} given twice")
    # a*x + b*y + c = 0 with (a, b) normal to q - p
    a = p.y - q.y
    b = q.x - p.x
    c = p.x * q.y - q.x * p.y
    return CanonicalLine.of(a, b, c)


def incident(l: CanonicalLine, p: Point) -> bool:
    return l.a * p.x + l.b * p.y + l.c == 0


def intersect(l1: CanonicalLine, l2: CanonicalLine) -> Point | None:
    """Intersection point of two lines, or None for parallel or identical
    lines."""
    from fractions import Fraction

    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return Point(x, y)


def _row(p: Point) -> tuple[int, int, int, int]:
    """The reduced integer row of a point of Fractions or ints."""
    x, y = p
    return x.numerator, x.denominator, y.numerator, y.denominator


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
        """The points of (x, y) pairs of anything Fraction takes; a pair of
        ints makes its row without one."""
        return cls._of_rows([(x, 1, y, 1) if type(x) is int and type(y) is int
                             else _row(point(x, y)) for x, y in coords])

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def scaled_ints(self) -> tuple[list[tuple[int, int]], int, int]:
        """Integer coordinates (X, Y) = (sx*x, sy*y) with per-axis denominator
        clearing.  The axis scaling is a positive-determinant linear map, so
        collinearity and line multiplicities are preserved."""
        sx = lcm(*(row[1] for row in self.rows))
        sy = lcm(*(row[3] for row in self.rows))
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
    def lifted(self) -> tuple[list[tuple[int, int]], int]:
        """The scaled points lifted to (X << S, Y), or sheared to
        (((X - Xmin) << S) - L * (Y - Ymin), Y), and the key of a level pair,
        L = (span(X) + 1) << S or, sheared, 2L: above every slope key.

        The slope key of the line from (X0, Y0) to (X, Y), Y != Y0, is the
        lifted (X - X0) // (Y0 - Y): floor(2^S * t) of its slope t, plus L
        if sheared.  Distinct slopes differ by at least 1 / span(Y)^2, and on
        rational input by (sx/sy) / 2^(4B+2), B the largest bit length in
        homogeneous (slopes in original coordinates have denominators below
        2^(2B+1)); so the smaller of S = 2 * bitlen(span(Y)) and
        4B + 3 + bitlen(sy) - bitlen(sx) keeps their keys apart.  Sheared,
        for Y < Y0 the dividend is ((X - X0) << S) + L * (Y0 - Y) >=
        L - span(X) * 2^S = 2^S > 0, and keys lie in [2^S, 2L - 2^S]."""
        pts, sx, sy = self.scaled_ints
        xs, ys = zip(*pts)
        x_min, y_min = min(xs), min(ys)
        span_y = max(ys) - y_min
        shift = 2 * span_y.bit_length()
        if sx * sy > 1:
            bits = max(v.bit_length() for triple in self.homogeneous for v in triple)
            shift = max(0, min(shift, 4 * bits + 3 + sy.bit_length() - sx.bit_length()))
        span_x = max(xs) - x_min
        level = (span_x + 1) << shift
        # The shear spares floor division the fix-up of a negative dividend.
        # Shear only where span(Y) fits in one digit: by a longer divisor a
        # division costs in proportion to its quotient, which the shear grows
        # to the bit length of L.  One-digit ints, where span(X) << S fits,
        # already divide fast.
        if span_y >> _DIGIT or not (span_x << shift) >> _DIGIT:
            return [(x << shift, y) for x, y in pts], level
        return [(((x - x_min) << shift) - level * (y - y_min), y) for x, y in pts], 2 * level
