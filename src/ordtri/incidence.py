"""The line census, degeneracy classification, and the Sylvester-Gallai
ordinary-line finder.

The census is the one pass over point pairs: it gives the multiplicity
histogram and spectrum of the determined lines, and the members of the
lines asked for, without keeping an object per line.  The pair loop runs
over integer-scaled coordinates (clearing denominators per axis preserves
collinearity), so the O(n^2) kernel is pure machine-int arithmetic even for
rational inputs.  It visits the points in sweep order (Y descending, then
X ascending), so every later point lies on the side of the current one
where the pair's normal is already sign-normalized, and the kernel has no
sign branch.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import comb, gcd, lcm

from .geom import CanonicalLine, Point, line_through


class UnderdeterminedError(ValueError):
    """Fewer than two points: no determined lines."""


class SylvesterGallaiError(ValueError):
    """Ordinary-line finder called on a collinear or too-small set."""


class InvariantError(RuntimeError):
    """An identity that holds for every input failed: a defect, not bad input.

    Raised by explicit checks, so that it still fires under ``python -O``."""


class PointSet:
    """Ordered, pairwise-distinct points.  Index order is the canonical
    identity used in all reports."""

    def __init__(self, points: tuple[Point, ...]):
        if len(set(points)) != len(points):
            seen: dict[Point, int] = {}
            for i, p in enumerate(points):
                if p in seen:
                    raise ValueError(f"duplicate point at indices {seen[p]} and {i}: {p!r}")
                seen[p] = i
        self.points = points

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash((self.points,))

    def __repr__(self):
        return f"PointSet(points={self.points!r})"

    @classmethod
    def of(cls, coords: Iterable) -> "PointSet":
        pts = []
        for xy in coords:
            if isinstance(xy, Point):
                pts.append(xy)
            else:
                x, y = xy
                pts.append(Point(Fraction(x), Fraction(y)))
        return cls(tuple(pts))

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def scaled_ints(self) -> tuple[list[tuple[int, int]], int, int]:
        """Integer coordinates (X, Y) = (sx*x, sy*y) with per-axis denominator
        clearing.  The axis scaling is a positive-determinant linear map, so
        collinearity and line multiplicities are preserved."""
        sx = lcm(*(p.x.denominator for p in self.points)) if self.points else 1
        sy = lcm(*(p.y.denominator for p in self.points)) if self.points else 1
        pts = [(p.x.numerator * (sx // p.x.denominator), p.y.numerator * (sy // p.y.denominator))
               for p in self.points]
        return pts, sx, sy

    @cached_property
    def homogeneous(self) -> list[tuple[int, int, int]]:
        """Each point as the integer triple (X, Y, W) = (x*W, y*W, W), with
        W = lcm of the denominators of x and y; a line (a, b, c) holds the
        point iff a*X + b*Y + c*W == 0."""
        out = []
        for p in self.points:
            w = lcm(p.x.denominator, p.y.denominator)
            out.append((p.x.numerator * (w // p.x.denominator),
                        p.y.numerator * (w // p.y.denominator), w))
        return out


def _scaled_line_key(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """Primitive sign-normalized triple of the line through two scaled points.

    No package code keys pairs one at a time: the tests' brute-force oracle
    does, and bench/tracing.py counts calls of this name as pair passes."""
    a = y1 - y2
    b = x2 - x1
    c = x1 * y2 - x2 * y1
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


def _unscale(key: tuple[int, int, int], sx: int, sy: int) -> tuple[int, int, int]:
    """Map a line triple in scaled coordinates back to original coordinates.

    a*X + b*Y + c = 0 with X = sx*x, Y = sy*y is (a*sx)*x + (b*sy)*y + c = 0.
    sx, sy > 0 keep the key's sign normalization, so only the gcd goes.
    """
    if sx == 1 and sy == 1:
        return key
    a, b, c = key[0] * sx, key[1] * sy, key[2]
    g = gcd(a, b, c)
    return (a // g, b // g, c // g)


def _normals(x0: int, y0: int, others) -> list[tuple[int, int]]:
    """Primitive normal (a, b) = (y0 - y, x - x0) / gcd of the line through
    (x0, y0) and each other scaled point.  Two points share a normal iff
    they are collinear with (x0, y0); the line's key is
    (a, b, -(a*x0 + b*y0)), already primitive.

    The gcd is non-negative, so a normal is sign-normalized like a
    CanonicalLine (a > 0, or a = 0 and b > 0) exactly when the other point
    comes later in sweep order: lower, or as high and to the right."""
    return [((dy := y0 - y) // (g := gcd(dy, dx := x - x0)), dx // g) for x, y in others]


def _oriented(x0: int, y0: int, others) -> list[tuple[int, int]]:
    """The normals of _normals toward points on either side of (x0, y0),
    sign-normalized."""
    return [nm if nm > (0, 0) else (-nm[0], -nm[1]) for nm in _normals(x0, y0, others)]


def _pencil(pts: list[tuple[int, int]], k: int
            ) -> tuple[list[tuple[int, int] | None], dict[tuple[int, int], int]]:
    """The lines through point k: the normal toward every point (None at k
    itself) and the multiplicity of each line, in O(n)."""
    xk, yk = pts[k]
    toward = _oriented(xk, yk, pts[:k] + pts[k + 1:])
    mult = {normal: size + 1 for normal, size in Counter(toward).items()}
    toward.insert(k, None)
    return toward, mult


class DegeneracyTag(Enum):
    TOO_SMALL = "TooSmall"
    ALL_COLLINEAR = "AllCollinear"
    TWO_LINE_UNION = "TwoLineUnion"
    NON_DEGENERATE = "NonDegenerate"


class DegeneracyClass(namedtuple("DegeneracyClass", "tag witness", defaults=((),))):
    """A DegeneracyTag with its witness lines, a tuple of CanonicalLine."""
    __slots__ = ()


def classify_degeneracy(P: PointSet) -> DegeneracyClass:
    """TooSmall / AllCollinear / TwoLineUnion / NonDegenerate with witnesses.

    Two-line containment reduces to three candidates: if P sits on two lines,
    two points of any non-collinear triple share a cover line, and those two
    points determine it.  Each candidate is checked by testing whether the
    points off it are collinear, each test a*X + b*Y + c*W == 0 on the
    point's homogeneous integer triple.
    """
    n = len(P)
    if n < 3:
        return DegeneracyClass(DegeneracyTag.TOO_SMALL)
    homogeneous = P.homogeneous

    def off(line: CanonicalLine, indices) -> list[int]:
        a, b, c = line.triple()
        return [i for i in indices
                if a * homogeneous[i][0] + b * homogeneous[i][1] + c * homogeneous[i][2]]

    base = line_through(P[0], P[1])
    first_off = off(base, range(2, n))
    if not first_off:
        return DegeneracyClass(DegeneracyTag.ALL_COLLINEAR, (base,))
    k = first_off[0]
    for cand in (base, line_through(P[0], P[k]), line_through(P[1], P[k])):
        rest = off(cand, range(n))
        if len(rest) == 1:
            anchor = next(i for i in range(n) if i != rest[0])  # on cand
            second = line_through(P[rest[0]], P[anchor])
            return DegeneracyClass(DegeneracyTag.TWO_LINE_UNION, (cand, second))
        second = line_through(P[rest[0]], P[rest[1]])
        if not off(second, rest[2:]):
            return DegeneracyClass(DegeneracyTag.TWO_LINE_UNION, (cand, second))
    return DegeneracyClass(DegeneracyTag.NON_DEGENERATE)


def find_ordinary_line(P: PointSet, indices: Sequence[int] | None = None
                       ) -> tuple[CanonicalLine, int, int]:
    """An ordinary line of the points at indices (default: all of P), one
    through exactly two of them (Sylvester-Gallai), with their P-indices.

    The pair (i, j) is the lexicographically first with no third point on
    its line.  Row i groups the later points by their normal through i, as
    the census does, and notes each line holding two of them; a lone point
    on a line no earlier row noted is ordinary.  Ordinary lines are
    plentiful (Green and Tao 2013), so the search typically stops in its
    first row; it never groups more pairs than one census.
    """
    pts, sx, sy = P.scaled_ints
    idx = sorted(range(len(P)) if indices is None else indices)
    if len(idx) < 3:
        raise SylvesterGallaiError("Sylvester-Gallai hypothesis violated: fewer than 3 points")
    sub = [pts[k] for k in idx]
    (x0, y0), (x1, y1) = sub[0], sub[1]
    if all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in sub[2:]):
        raise SylvesterGallaiError("Sylvester-Gallai hypothesis violated: collinear input")
    seen: set[tuple[int, int, int]] = set()
    for a in range(len(sub) - 1):
        xi, yi = sub[a]
        normals = _oriented(xi, yi, sub[a + 1:])
        groups = Counter(normals)
        single = map((1).__eq__, map(groups.__getitem__, normals))
        for b, (na, nb) in compress(enumerate(normals, a + 1), single):
            key = (na, nb, -(na * xi + nb * yi))
            if key not in seen:
                return CanonicalLine(*_unscale(key, sx, sy)), idx[a], idx[b]
        seen.update((na, nb, -(na * xi + nb * yi))
                    for na, nb in compress(groups, map((1).__lt__, groups.values())))
    raise InvariantError("a non-collinear set without an ordinary line")


# --- the line census ----------------------------------------------------------

class LineCensus(namedtuple("LineCensus", "n count_by_mult rich_threshold rich top members")):
    """Multiplicity census of the determined lines, without materializing them.

    count_by_mult[l] = number of determined lines with exactly l points.
    rich holds the (few) lines with multiplicity > rich_threshold explicitly.
    top is the lowest canonical triple among the lines of maximum
    multiplicity, None unless asked for.  members maps every line the census
    reports to its point indices, ascending (a new empty dict by default).
    """
    __slots__ = ()

    def __new__(cls, n, count_by_mult, rich_threshold, rich=(), top=None, members=None):
        return super().__new__(cls, n, count_by_mult, rich_threshold, rich, top,
                               {} if members is None else members)

    @property
    def line_count(self) -> int:
        return sum(self.count_by_mult.values())

    @property
    def max_multiplicity(self) -> int:
        return max(self.count_by_mult, default=0)

    def f(self, k: int) -> int:
        if k < 2:
            raise ValueError("spectrum undefined for k < 2")
        return sum(c for l, c in self.count_by_mult.items() if l >= k)

    def spectrum_table(self) -> list[tuple[int, int]]:
        return [(k, self.f(k)) for k in range(2, self.max_multiplicity + 1)]


def line_census(P: PointSet, rich_threshold: int | None = None, *,
                top: bool = False) -> LineCensus:
    """O(n^2)-time, O(n)-memory census of determined-line multiplicities.

    The points are visited in sweep order: scaled Y descending, then X
    ascending.  For each point, the points after it in that order are
    grouped by the normal of their line through it.  Each of them lies
    below it, or level with it and to its right, so _normals returns their
    normals already sign-normalized and the kernel needs no sign fix.  A
    line whose points come in sweep order p1, ..., pl produces exactly one
    group of each size l-1, ..., 1, so the number of groups of size s
    equals f(s+1) and the full multiplicity histogram follows without
    storing any line.  Most rows on a generic set have no repeated normal;
    such a row only counts its pairs as groups of one.

    Only the first point p1 of a line in sweep order owns its group of
    size l-1, which is what the optional reports rest on:

    - rich_threshold: every line with multiplicity > threshold, with its
      members as ascending P-indices.  Its owner is the first point to see
      it in a group of size >= threshold, and that group holds the other
      members.
    - top: a group of the largest size seen so far belongs to its owner
      (a non-owner's group is smaller than the owner's, seen earlier), so
      a point whose largest group is smaller has no candidate.  top is the
      least canonical triple of those candidates, whatever the order.
    """
    n = len(P)
    if n < 2:
        raise UnderdeterminedError("underdetermined: need at least 2 points")
    pts, sx, sy = P.scaled_ints
    order = sorted(range(n), key=lambda k: (-pts[k][1], pts[k][0]))
    swept = [pts[k] for k in order]
    group_size_hist: Counter[int] = Counter()
    rich_seen: dict[tuple[int, int, int], tuple[int, ...]] = {}
    top_size, top_best = 0, None        # top_best: (original triple, scaled key)
    for r in range(n - 1):
        xi, yi = swept[r]
        normals = groups = None  # free the last point's groups before building these
        normals = _normals(xi, yi, swept[r + 1:])
        if len(set(normals)) < len(normals):
            groups = Counter(normals)
            group_size_hist.update(groups.values())
            largest = max(groups.values())
        else:  # no two later points share a line through this one: all groups of one
            group_size_hist[1] += len(normals)
            largest = 1
        if rich_threshold is not None and largest >= rich_threshold:
            rich_groups = normals if groups is None else \
                [normal for normal, size in groups.items() if size >= rich_threshold]
            owned = {}
            for a, b in rich_groups:
                key = (a, b, -(a * xi + b * yi))
                if key not in rich_seen:
                    owned[(a, b)] = key
            if owned:
                found = {normal: [order[r]] for normal in owned}
                for k, normal in zip(order[r + 1:], normals):
                    if normal in found:
                        found[normal].append(k)
                for normal, key in owned.items():
                    rich_seen[key] = tuple(sorted(found[normal]))
        if top and largest >= top_size:
            if largest > top_size:
                top_size, top_best = largest, None
            candidates = normals if largest == 1 else \
                compress(groups, map(largest.__eq__, groups.values()))
            if sx == sy == 1:  # keys through one point order as their normals
                candidates = [min(candidates)]
            best = min((_unscale(key, sx, sy), key) for key in
                       ((a, b, -(a * xi + b * yi)) for a, b in candidates))
            if top_best is None or best < top_best:
                top_best = best
    if sum(s * c for s, c in group_size_hist.items()) != comb(n, 2):
        raise InvariantError("census groups do not cover every pair once")
    count_by_mult = {
        l: group_size_hist.get(l - 1, 0) - group_size_hist.get(l, 0)
        for l in range(2, max(group_size_hist, default=1) + 2)
        if group_size_hist.get(l - 1, 0) - group_size_hist.get(l, 0) > 0
    }
    if sum(comb(l, 2) * c for l, c in count_by_mult.items()) != comb(n, 2):
        raise InvariantError("pair-sum identity violated by the census")
    members = {CanonicalLine(*_unscale(key, sx, sy)): idx for key, idx in rich_seen.items()}
    rich = tuple((line, len(members[line])) for line in sorted(members))
    top_line = None
    if top_best is not None:
        top_line = CanonicalLine(*top_best[0])
        a, b, c = top_best[1]
        members[top_line] = tuple(k for k, (x, y) in enumerate(pts) if a * x + b * y + c == 0)
        if len(members[top_line]) != top_size + 1:
            raise InvariantError(f"line {top_best[0]} holds {len(members[top_line])} points, "
                                 f"the census gives {top_size + 1}")
    return LineCensus(n=n, count_by_mult=count_by_mult, rich_threshold=rich_threshold,
                      rich=rich, top=top_line, members=members)
