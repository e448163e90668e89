"""Test references: the object-per-line API and the brute-force oracle.

None of this is part of the package.  The package answers every question
from one integer line census; these are the slow, literal spellings the
tests check it against:

- ``enumerate_lines`` keys every determined line by its ``CanonicalLine``
  and stores its multiplicity (``IncidenceProfile``), in O(n^2) memory;
- ``enumerate_all_c_ordinary`` lists every c-ordinary triple by an O(n^3)
  loop over the pairs of the poor graph, with its own pair pass;
- ``first_ordinary_pair`` tests each pair's line against every point, in
  index order, until one holds no third point, and ``top_line`` picks the
  census's top line from every line;
- ``PoorGraph`` holds a graph as sorted adjacency tuples, and
  ``count_triangles`` counts its triangles;
- ``count_incidences`` tests every point against every given line, where
  the package sums the census histogram;
- ``gen_projection_augmented`` makes the projection set from ``Point``s of
  ``Fraction``s, where the package makes and orders integer rows;
- ``gen_random`` draws the seeded random set by ``Random.randrange``, where
  the package runs the same ``getrandbits`` rejection loop itself;
- ``with_lift`` forces one of the three lifts of ``PointSet.lifted`` on a
  set, whatever the package would pick, and ``lift_kind`` names the
  lift a set took;
- ``build_parser`` declares the CLI's argparse parser argument by
  argument, where the package builds it from its command table and
  parses well-formed command lines without argparse;
- ``point``, ``orientation``, ``line_through``, ``incident``, ``intersect``
  and ``DegeneratePairError`` are the predicates on ``Point``s of
  ``Fraction``s that the package answered with before it held integer rows,
  and ``normalize`` reduces a rational triple to its ``CanonicalLine`` by
  ``Fraction``s, where the package's ``CanonicalLine.of`` takes ints only.
"""
from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt, lcm
from typing import Optional

from ordtri import triangles
from ordtri.cli import _deferred, cmd_analyze, cmd_find
from ordtri.geom import CanonicalLine, Point
from ordtri.incidence import (
    InvariantError,
    PointSet,
    UnderdeterminedError,
    _scaled_line_key,
)
from ordtri.triangles import _count_forward_triangles


def _unscale(key: tuple[int, int, int], sx: int, sy: int) -> tuple[int, int, int]:
    """Map a line triple in scaled coordinates back to original coordinates.

    a*X + b*Y + c = 0 with X = sx*x, Y = sy*y is (a*sx)*x + (b*sy)*y + c = 0.
    sx, sy > 0 keep the key's sign normalization, so only the gcd goes.
    """
    a, b, c = key[0] * sx, key[1] * sy, key[2]
    g = gcd(a, b, c)
    return (a // g, b // g, c // g)


# --- predicates on Points of Fractions ---------------------------------------

class DegeneratePairError(ValueError):
    """Line requested through two coincident points."""


def point(x, y) -> Point:
    """Build a Point from anything Fraction accepts (int, Fraction, 'p/q' string)."""
    return Point(Fraction(x), Fraction(y))


def normalize(a, b, c) -> CanonicalLine:
    """The canonical line of a rational triple: its denominators cleared by
    their lcm, then the gcd and the sign divided out."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 and b == 0:
        raise ValueError("not a line: a = b = 0")
    scale = lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = int(a * scale), int(b * scale), int(c * scale)
    g = gcd(a, b, c) if a > 0 or (a == 0 and b > 0) else -gcd(a, b, c)
    return CanonicalLine(a // g, b // g, c // g)


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
    # a*x + b*y + c = 0 with (a, b) normal to q - p, cleared of denominators
    a = p.y - q.y
    b = q.x - p.x
    c = p.x * q.y - q.x * p.y
    scale = lcm(a.denominator, b.denominator, c.denominator)
    return CanonicalLine.of(int(a * scale), int(b * scale), int(c * scale))


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


# --- the object-per-line API -------------------------------------------------

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


def count_incidences(P: PointSet, lines: list[CanonicalLine]) -> int:
    """Incidences between P and distinct lines, each tested in integers as
    a*X + b*Y + c*W == 0 on the point's homogeneous triple."""
    if len(set(lines)) != len(lines):
        raise ValueError("duplicate lines")
    return sum(1 for l in lines for x, y, w in P.homogeneous
               if l.a * x + l.b * y + l.c * w == 0)


def points_on_line(P: PointSet, l: CanonicalLine) -> list[int]:
    """Indices of all points of P incident to l, ascending."""
    return [i for i, p in enumerate(P) if incident(l, p)]


def first_ordinary_pair(P: PointSet, indices=None
                        ) -> Optional[tuple[CanonicalLine, int, int]]:
    """The line through the lexicographically first index pair i < j of the
    given indices (default: all of P) whose line holds no third point among
    them, with i and j; None if every such line holds a third point."""
    idx = sorted(range(len(P)) if indices is None else indices)
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            line = line_through(P[i], P[j])
            if sum(incident(line, P[k]) for k in idx) == 2:
                return line, i, j
    return None


def top_line(P: PointSet, profile: IncidenceProfile) -> CanonicalLine:
    """The census's top line spelled out on the full line profile: of the
    lines of maximum multiplicity, those whose first point in sweep order
    (y descending, then x ascending) comes first, and of these the one with
    the lowest triple."""
    most = profile.max_multiplicity
    return min((l for l, m in profile.entries.items() if m == most),
               key=lambda l: (min((-P[k].y, P[k].x) for k in points_on_line(P, l)), l.triple()))


def pair_line_multiplicity(profile: IncidenceProfile, P: PointSet, p: Point, q: Point) -> int:
    """Multiplicity of the line through p and q, looked up in the profile."""
    if p not in P.points or q not in P.points:
        raise ValueError("pair_line_multiplicity: point not in the point set")
    return profile.entries[line_through(p, q)]


# --- the brute-force oracle --------------------------------------------------

def validate_c_ordinary(P: PointSet, profile: IncidenceProfile,
                        triple: tuple[int, int, int], c: int) -> bool:
    """True iff the indexed points are non-collinear and all three of their
    connecting lines have multiplicity <= c."""
    i, j, k = triple
    n = len(P)
    if len({i, j, k}) != 3 or not all(0 <= t < n for t in (i, j, k)):
        raise ValueError(f"bad triangle indices {triple} for n={n}")
    p, q, r = P[i], P[j], P[k]
    if orientation(p, q, r) == 0:
        return False
    return all(profile.entries[line_through(u, v)] <= c
               for u, v in ((p, q), (p, r), (q, r)))


def enumerate_all_c_ordinary(P: PointSet, c: int, limit: Optional[int] = None
                             ) -> tuple[int, list[tuple[int, int, int]]]:
    """Brute-force oracle: exact count of all c-ordinary triples, plus the
    triples themselves in ascending index order (list truncated at limit,
    count always exact).  O(n^3) with O(1) per-triple checks."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    n = len(P)
    if n < 3:
        return 0, []
    pts, _, _ = P.scaled_ints
    mult = _scaled_multiplicities(P)
    poor = [bytearray(n) for _ in range(n)]
    for i in range(n - 1):
        x1, y1 = pts[i]
        row = poor[i]
        for j in range(i + 1, n):
            if mult[_scaled_line_key(x1, y1, *pts[j])] <= c:
                row[j] = 1
                poor[j][i] = 1
    count = 0
    out: list[tuple[int, int, int]] = []
    for i in range(n - 2):
        xi, yi = pts[i]
        pi = poor[i]
        for j in range(i + 1, n - 1):
            if not pi[j]:
                continue
            dxj = pts[j][0] - xi
            dyj = pts[j][1] - yi
            pj = poor[j]
            for k in range(j + 1, n):
                if pi[k] and pj[k]:
                    if dxj * (pts[k][1] - yi) != dyj * (pts[k][0] - xi):
                        count += 1
                        if limit is None or len(out) < limit:
                            out.append((i, j, k))
    return count, out


# --- graphs as adjacency tuples ----------------------------------------------

@dataclass(frozen=True)
class PoorGraph:
    """Graph on point indices as sorted neighbour tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @classmethod
    def of(cls, later: list[int]) -> "PoorGraph":
        """The graph whose forward bitsets are later: bit v of later[u] is
        set for each neighbour v > u (build_poor_graph's result)."""
        adj: list[list[int]] = [[] for _ in later]
        for u, bits in enumerate(later):
            for v in range(u + 1, len(later)):
                if bits >> v & 1:
                    adj[u].append(v)
                    adj[v].append(u)
        return cls(n=len(later), adj=tuple(map(tuple, adj)))


def count_triangles(g: PoorGraph) -> int:
    """Exact triangle count of a simple undirected graph."""
    return _count_forward_triangles([sum(1 << v for v in a if v > u)
                                     for u, a in enumerate(g.adj)])


# --- the projection generator by Fractions -----------------------------------

def gen_projection_augmented(P1: PointSet, ell: CanonicalLine) -> PointSet:
    """P1, then the meets of ell with the lines through two points of P1,
    as sorted Points of Fractions; the package's errors, in its order."""
    for i, p in enumerate(P1):
        if incident(ell, p):
            raise ValueError(f"point {i} of the base set lies on the augmentation line")
    lines = {line_through(p, q) for p, q in combinations(P1, 2)}
    if len(lines) < 2:
        raise ValueError("base set is collinear")
    added = set()
    for line in lines:
        u = intersect(ell, line)
        if u is None:
            raise ValueError("augmentation line not generic: parallel to a determined line")
        added.add(u)
    return PointSet(tuple(P1) + tuple(sorted(added)))


# --- the random generator by randrange ---------------------------------------

def gen_random(n: int, coordinate_bound: int, seed: int) -> PointSet:
    """The seeded random set drawn by two randrange(bound + 1) calls a point,
    duplicates rejected; the package's errors, in its order."""
    if n < 1:
        raise ValueError("need n >= 1")
    if coordinate_bound < n:
        raise ValueError("coordinate bound must be >= n to keep distinctness feasible")
    rng = random.Random(seed)
    points: dict[tuple[int, int], None] = {}
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 100 * n + 1000:
            raise ValueError(f"could not place {n} distinct points in [0,{coordinate_bound}]^2")
        points[rng.randrange(coordinate_bound + 1), rng.randrange(coordinate_bound + 1)] = None
    return PointSet.of(list(points))


# --- the census's lifts, forced ----------------------------------------------

LIFTS = ("plain", "sheared", "homogeneous")


def with_lift(P: PointSet, kind: str) -> PointSet:
    """P's rows as a new set whose census and rich-line keys take the lift
    kind of PointSet._lift, whatever PointSet.lifted would pick."""
    Q = PointSet._of_rows(P.rows, distinct=True)
    Q.lifted = Q._lift(kind)
    return Q


def lift_kind(P: PointSet) -> str:
    """The kind of P.lifted: the one lift it equals."""
    kinds = [kind for kind in LIFTS if P._lift(kind) == P.lifted]
    if len(kinds) != 1:
        raise AssertionError(f"P.lifted is {kinds or 'none'} of the lifts")
    return kinds[0]


# --- the CLI's parser, declared by hand --------------------------------------

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
