"""Exact planar primitives: rational points, canonical integer lines, predicates.

Everything here is error-free integer/rational arithmetic.  Collinearity under
floating point is unsound, so no float ever enters a predicate.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm


class DegeneratePairError(ValueError):
    """Line requested through two coincident points."""


class Point(namedtuple("Point", "x y")):
    __slots__ = ()


def point(x, y) -> Point:
    """Build a Point from anything Fraction accepts (int, Fraction, 'p/q' string)."""
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
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        scale = lcm(a.denominator, b.denominator, c.denominator)
        ai, bi, ci = int(a * scale), int(b * scale), int(c * scale)
        if ai == 0 and bi == 0:
            raise ValueError("not a line: a = b = 0")
        g = gcd(ai, bi, ci)
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        return cls(ai, bi, ci)

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
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return Point(x, y)
