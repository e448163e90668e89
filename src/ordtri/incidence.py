"""Determined-line enumeration, richness spectrum, degeneracy classification,
and the Sylvester-Gallai ordinary-line finder.

The pair loop runs over integer-scaled coordinates (clearing denominators
per axis preserves collinearity), so the O(n^2) kernel is pure machine-int
arithmetic even for rational inputs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, isqrt, lcm
from typing import Iterable, Optional

from .geom import CanonicalLine, Point, incident, line_through, orientation


class UnderdeterminedError(ValueError):
    """Fewer than two points: no determined lines."""


class SylvesterGallaiError(ValueError):
    """Ordinary-line finder called on a collinear or too-small set."""


class InvariantError(RuntimeError):
    """An identity that holds for every input failed: a defect, not bad input.

    Raised by explicit checks, so that it still fires under ``python -O``."""


@dataclass(frozen=True)
class PointSet:
    """Ordered, pairwise-distinct points.  Index order is the canonical
    identity used in all reports."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            seen: dict[Point, int] = {}
            for i, p in enumerate(self.points):
                if p in seen:
                    raise ValueError(f"duplicate point at indices {seen[p]} and {i}: {p!r}")
                seen[p] = i

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
    def index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def scaled_ints(self) -> tuple[list[tuple[int, int]], int, int]:
        """Integer coordinates (X, Y) = (sx*x, sy*y) with per-axis denominator
        clearing.  The axis scaling is a positive-determinant linear map, so
        collinearity and line multiplicities are preserved."""
        sx = lcm(*(p.x.denominator for p in self.points)) if self.points else 1
        sy = lcm(*(p.y.denominator for p in self.points)) if self.points else 1
        pts = [(int(p.x * sx), int(p.y * sy)) for p in self.points]
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
    """Primitive sign-normalized triple of the line through two scaled points."""
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
    """Primitive normal (a, b) of the line through (x0, y0) and each other
    scaled point, sign-normalized like a CanonicalLine (a > 0, or a = 0 and
    b > 0).  Two points share a normal iff they are collinear with (x0, y0);
    the line's key is (a, b, -(a*x0 + b*y0)), already primitive."""
    out = []
    for x, y in others:
        a = y0 - y
        b = x - x0
        g = gcd(a, b)
        if a < 0 or (a == 0 and b < 0):
            g = -g
        out.append((a // g, b // g))
    return out


def _pencil(pts: list[tuple[int, int]], k: int
            ) -> tuple[list[Optional[tuple[int, int]]], dict[tuple[int, int], int]]:
    """The lines through point k: the normal toward every point (None at k
    itself) and the multiplicity of each line, in O(n)."""
    xk, yk = pts[k]
    before, after = _normals(xk, yk, pts[:k]), _normals(xk, yk, pts[k + 1:])
    mult = {normal: size + 1 for normal, size in Counter(before + after).items()}
    return before + [None] + after, mult


@dataclass(frozen=True)
class IncidenceProfile:
    """All determined lines with their multiplicities l_i = |L_i cap P|."""

    entries: dict[CanonicalLine, int]
    n: int

    @property
    def line_count(self) -> int:
        return len(self.entries)

    @property
    def max_multiplicity(self) -> int:
        return max(self.entries.values(), default=0)

    def multiplicity_histogram(self) -> dict[int, int]:
        return dict(Counter(self.entries.values()))


def _scaled_multiplicities(P: PointSet) -> dict[tuple[int, int, int], int]:
    """Multiplicity of every determined line, keyed by scaled-coordinate triple.

    Hashes the triple of each of the C(n,2) pair lines; a line with l points
    is hit C(l,2) times, from which l is recovered exactly.
    """
    n = len(P)
    pts, _, _ = P.scaled_ints
    pair_counts: Counter[tuple[int, int, int]] = Counter()
    for i in range(n - 1):
        x1, y1 = pts[i]
        for j in range(i + 1, n):
            pair_counts[_scaled_line_key(x1, y1, *pts[j])] += 1
    mult: dict[tuple[int, int, int], int] = {}
    for key, t in pair_counts.items():
        l = (1 + isqrt(1 + 8 * t)) // 2
        if l * (l - 1) // 2 != t:
            raise InvariantError(f"pair count {t} of a line is not triangular")
        mult[key] = l
    return mult


def enumerate_lines(P: PointSet) -> IncidenceProfile:
    """All lines with >= 2 points of P, each with its exact multiplicity."""
    n = len(P)
    if n < 2:
        raise UnderdeterminedError("underdetermined: need at least 2 points")
    _, sx, sy = P.scaled_ints
    entries = {CanonicalLine(*_unscale(key, sx, sy)): l
               for key, l in _scaled_multiplicities(P).items()}
    if sum(comb(l, 2) for l in entries.values()) != comb(n, 2):
        raise InvariantError("pair-sum identity violated by the line profile")
    return IncidenceProfile(entries=entries, n=n)


def spectrum_f(profile: IncidenceProfile, k: int) -> int:
    """f(k): number of determined lines containing at least k points."""
    if k < 2:
        raise ValueError("spectrum undefined for k < 2")
    return sum(1 for l in profile.entries.values() if l >= k)


def spectrum_table(profile: IncidenceProfile) -> list[tuple[int, int]]:
    """[(k, f(k))] for k = 2 .. max multiplicity."""
    return [(k, spectrum_f(profile, k)) for k in range(2, profile.max_multiplicity + 1)]


def points_on_line(P: PointSet, l: CanonicalLine) -> list[int]:
    """Indices of all points of P incident to l, ascending."""
    return [i for i, p in enumerate(P) if incident(l, p)]


def pair_line_multiplicity(profile: IncidenceProfile, P: PointSet, p: Point, q: Point) -> int:
    """Multiplicity of the line through p and q, looked up in the profile."""
    if p not in P.index or q not in P.index:
        raise ValueError("pair_line_multiplicity: point not in the point set")
    return profile.entries[line_through(p, q)]


class DegeneracyTag(Enum):
    TOO_SMALL = "TooSmall"
    ALL_COLLINEAR = "AllCollinear"
    TWO_LINE_UNION = "TwoLineUnion"
    NON_DEGENERATE = "NonDegenerate"


@dataclass(frozen=True)
class DegeneracyClass:
    tag: DegeneracyTag
    witness: tuple[CanonicalLine, ...] = ()


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


def find_ordinary_line(P: PointSet) -> tuple[CanonicalLine, Point, Point]:
    """An ordinary line of P (exactly two incident points) with its two points.

    Deterministic: the lexicographically smallest canonical triple among all
    ordinary lines; the two points come back in index order.  Existence for a
    non-collinear P is the Sylvester-Gallai theorem.  One census pass.
    """
    if len(P) < 3:
        raise SylvesterGallaiError("Sylvester-Gallai hypothesis violated: fewer than 3 points")
    census = line_census(P, ordinary=True)
    if census.ordinary is None:
        raise SylvesterGallaiError("Sylvester-Gallai hypothesis violated: collinear input")
    i, j = census.members[census.ordinary]
    return census.ordinary, P[i], P[j]


# --- memory-light census for large inputs -----------------------------------

@dataclass(frozen=True)
class LineCensus:
    """Multiplicity census of the determined lines, without materializing them.

    count_by_mult[l] = number of determined lines with exactly l points.
    rich holds the (few) lines with multiplicity > rich_threshold explicitly.
    top is the lowest canonical triple among the lines of maximum
    multiplicity, ordinary the lowest among the lines with exactly two
    points; each is None unless asked for.  members maps every line the
    census reports to its point indices, ascending.
    """

    n: int
    count_by_mult: dict[int, int]
    rich_threshold: Optional[int]
    rich: tuple[tuple[CanonicalLine, int], ...] = ()
    top: Optional[CanonicalLine] = None
    ordinary: Optional[CanonicalLine] = None
    members: dict[CanonicalLine, tuple[int, ...]] = field(default_factory=dict)

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


def line_census(P: PointSet, rich_threshold: Optional[int] = None, *,
                top: bool = False, ordinary: bool = False) -> LineCensus:
    """O(n^2)-time, O(n)-memory census of determined-line multiplicities.

    For each point i, later points are grouped by the normal of their line
    through i.  A line whose points have indices i1 < ... < il produces
    exactly one group of each size l-1, ..., 1, so the number of groups of
    size s equals f(s+1) and the full multiplicity histogram follows without
    storing any line.

    Only the lowest-index point i1 of a line owns its group of size l-1,
    which is what the optional reports rest on:

    - rich_threshold: every line with multiplicity > threshold, with its
      members.  Its owner is the first point to see it in a group of size
      >= threshold, and that group holds the other members.
    - top: a group of the largest size seen so far belongs to its owner
      (a non-owner's group is smaller than the owner's, seen earlier).
    - ordinary: a group of size 1 is an ordinary line unless an earlier
      point saw the same line in a larger group.
    """
    n = len(P)
    if n < 2:
        raise UnderdeterminedError("underdetermined: need at least 2 points")
    pts, sx, sy = P.scaled_ints
    group_size_hist: Counter[int] = Counter()
    rich_seen: dict[tuple[int, int, int], tuple[int, ...]] = {}
    top_size, top_best = 0, None        # top_best: (original triple, scaled key)
    ordinary_best = None
    seen_in_larger: set[tuple[int, int, int]] = set()
    for i in range(n - 1):
        xi, yi = pts[i]
        normals = groups = None  # free the last point's groups before building these
        normals = _normals(xi, yi, pts[i + 1:])
        groups = Counter(normals)
        group_size_hist.update(groups.values())
        largest = max(groups.values())
        if rich_threshold is not None and largest >= rich_threshold:
            owned = {}
            for (a, b), size in groups.items():
                if size >= rich_threshold:
                    key = (a, b, -(a * xi + b * yi))
                    if key not in rich_seen:
                        owned[(a, b)] = key
            if owned:
                found = {normal: [i] for normal in owned}
                for j, normal in enumerate(normals, i + 1):
                    if normal in found:
                        found[normal].append(j)
                for normal, key in owned.items():
                    rich_seen[key] = tuple(found[normal])
        if top:
            if largest > top_size:
                top_size, top_best = largest, None
            if largest == top_size:
                for (a, b), s in groups.items():
                    if s == largest:
                        key = (a, b, -(a * xi + b * yi))
                        triple = _unscale(key, sx, sy)
                        if top_best is None or triple < top_best[0]:
                            top_best = (triple, key)
        if ordinary:
            for (a, b), s in groups.items():
                key = (a, b, -(a * xi + b * yi))
                if s > 1:
                    seen_in_larger.add(key)
                elif key not in seen_in_larger:
                    triple = _unscale(key, sx, sy)
                    if ordinary_best is None or triple < ordinary_best[0]:
                        ordinary_best = (triple, key)
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
    rich = tuple(sorted(((line, len(idx)) for line, idx in members.items()),
                        key=lambda pair: pair[0].triple()))

    def report(best, multiplicity):
        if best is None:
            return None
        line = CanonicalLine(*best[0])
        a, b, c = best[1]
        on = tuple(k for k, (x, y) in enumerate(pts) if a * x + b * y + c == 0)
        if len(on) != multiplicity:
            raise InvariantError(f"line {best[0]} holds {len(on)} points, "
                                 f"the census gives {multiplicity}")
        members[line] = on
        return line

    return LineCensus(n=n, count_by_mult=count_by_mult,
                      rich_threshold=rich_threshold, rich=rich,
                      top=report(top_best, top_size + 1),
                      ordinary=report(ordinary_best, 2),
                      members=members)
