"""Seeded workloads of the ordtri benchmark.

Each workload is one ``ordtri`` command on one point file that is generated
from the workload seed, plus a check of the command's JSON report that uses
only integer arithmetic written here, never the package's own predicates.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from ordtri.generators import gen_grid, gen_projection_augmented, gen_random
from ordtri.geom import CanonicalLine, Point
from ordtri.incidence import PointSet
from ordtri.pointfile import format_points

# The CLI default richness threshold, c = 96 * 125.
DEFAULT_C = 12000

# Sizes keep one invocation between 1 and 2 s on a 2-core box, so that a run
# of run_seconds holds 17 to 30 of them and its median is steady.
COUNT_N = 1000
FAST_N = 220
GRID_SIDE = 12
PROJECTION_BASE_N = 13
RANDOM_BOUND = 10 ** 8

# Exact number of 3-ordinary triangles of the 12 x 12 grid.  Permuting and
# translating the grid leaves it unchanged.  bench/tests recomputes it with
# brute_force_count.
GRID_C = 3
GRID_COUNT = 74_168


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                  # ordtri subcommand
    options: tuple[str, ...]      # arguments after the point file
    make: Callable[[int], PointSet]
    check: Callable[[Optional[dict], int, PointSet], list[str]]

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.options]


def point_file(points: PointSet) -> bytes:
    return format_points(points).encode("ascii")


def parse_report(text: str) -> Optional[dict]:
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


# --- input generation --------------------------------------------------------

def make_count_random(seed: int) -> PointSet:
    return gen_random(COUNT_N, RANDOM_BOUND, seed)


def make_fast_random(seed: int) -> PointSet:
    return gen_random(FAST_N, RANDOM_BOUND, seed)


def make_grid(seed: int) -> PointSet:
    """The GRID_SIDE x GRID_SIDE grid, shuffled and translated by the seed.

    The offsets keep one magnitude, so that the Fraction arithmetic of the
    count costs the same on every seed."""
    rng = random.Random(seed)
    pts = list(gen_grid(GRID_SIDE))
    rng.shuffle(pts)
    dx, dy = (rng.choice((-1, 1)) * rng.randrange(1000, 2000) for _ in "xy")
    return PointSet(tuple(Point(p.x + dx, p.y + dy) for p in pts))


def make_projection(seed: int) -> PointSet:
    """A random base augmented by its meets with a random generic line."""
    rng = random.Random(seed)
    base = gen_random(PROJECTION_BASE_N, 10 ** 5, rng.randrange(2 ** 32))
    for _ in range(1000):
        ell = CanonicalLine.of(1, -rng.randrange(10 ** 4, 10 ** 5),
                               rng.randrange(10 ** 9, 10 ** 10))
        try:
            return gen_projection_augmented(base, ell)
        except ValueError:  # line not generic for this base; draw again
            continue
    raise RuntimeError(f"seed {seed}: no generic augmentation line found")


# --- independent integer predicates ------------------------------------------

def integer_points(points: PointSet) -> list[tuple[int, int]]:
    out = []
    for p in points:
        if p.x.denominator != 1 or p.y.denominator != 1:
            raise ValueError("integer coordinates expected")
        out.append((p.x.numerator, p.y.numerator))
    return out


def cross(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def points_on_line(pts: list[tuple[int, int]], i: int, j: int) -> int:
    """Number of points on the line through pts[i] and pts[j], by O(n) scan."""
    p, q = pts[i], pts[j]
    return sum(1 for r in pts if cross(p, q, r) == 0)


def brute_force_count(pts: list[tuple[int, int]], c: int) -> int:
    """c-ordinary triangles by testing every triple: O(n^3), for tests only."""
    n = len(pts)
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = points_on_line(pts, i, j)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mult[i][j] > c:
                continue
            for k in range(j + 1, n):
                if mult[i][k] <= c and mult[j][k] <= c and cross(pts[i], pts[j], pts[k]):
                    count += 1
    return count


# --- report checks -----------------------------------------------------------

def _common(report: Optional[dict], code: int, want_code: int, n: int) -> list[str]:
    if report is None:
        return ["report is not a JSON object"]
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if report.get("n") != n:
        problems.append(f"report n={report.get('n')!r}, input has {n} points")
    return problems


def check_count_random(report, code, points) -> list[str]:
    """Exact count against C(n,3) minus the collinear triples of the
    report's own spectrum, which must satisfy the pair-sum identity."""
    n = len(points)
    problems = _common(report, code, 0, n)
    if problems:
        return problems
    f = dict((k, v) for k, v in report["spectrum"])
    by_mult = {l: f[l] - f.get(l + 1, 0) for l in f}
    if any(v < 0 for v in by_mult.values()) or sorted(f) != list(range(2, len(f) + 2)):
        return [f"spectrum is not a cumulative table: {report['spectrum']!r}"]
    if sum(comb(l, 2) * v for l, v in by_mult.items()) != comb(n, 2):
        problems.append("spectrum breaks the pair-sum identity")
    if max(by_mult, default=0) > DEFAULT_C:
        problems.append("a line is c-rich; the complement formula does not apply")
    expected = comb(n, 3) - sum(comb(l, 3) * v for l, v in by_mult.items())
    if report.get("count_kind") != "exact" or report.get("count") != expected:
        problems.append(f"count {report.get('count')!r} ({report.get('count_kind')}), "
                        f"expected exact {expected}")
    return problems


def check_fast_random(report, code, points) -> list[str]:
    """Every listed triangle is non-collinear and each side carries at most
    c points; the reported count covers the list and is positive."""
    pts = integer_points(points)
    n = len(pts)
    problems = _common(report, code, 0, n)
    if problems:
        return problems
    listed = report["triangles"]
    for tri in listed:
        if len(tri) != 3 or len(set(tri)) != 3 or not all(
                isinstance(t, int) and 0 <= t < n for t in tri):
            problems.append(f"bad triangle indices {tri!r}")
            continue
        i, j, k = tri
        if cross(pts[i], pts[j], pts[k]) == 0:
            problems.append(f"triangle {tri!r} is collinear")
        for a, b in ((i, j), (i, k), (j, k)):
            on = points_on_line(pts, a, b)
            if on > DEFAULT_C:
                problems.append(f"side ({a}, {b}) of {tri!r} carries {on} > c points")
    count = report.get("count")
    if not isinstance(count, int) or count < max(len(listed), 1):
        problems.append(f"count {count!r} below the {len(listed)} listed triangles or < 1")
    return problems


def check_grid(report, code, points) -> list[str]:
    problems = _common(report, code, 0, len(points))
    if problems:
        return problems
    if report.get("count_kind") != "exact" or report.get("count") != GRID_COUNT:
        problems.append(f"count {report.get('count')!r}, expected exact {GRID_COUNT}")
    return problems


def check_bounds(report, code, points) -> list[str]:
    problems = _common(report, code, 0, len(points))
    if problems:
        return problems
    if report.get("all_satisfied") is not True or not report.get("bounds"):
        problems.append("not every bound is satisfied")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("count-random",
             "exact count on a random set: all time in the O(n^2) line census, no rich line",
             "find", ("--mode", "count"), make_count_random, check_count_random),
    Workload("fast-random",
             "default fast find: builds every line as an object, takes the rich-line case",
             "find", (), make_fast_random, check_fast_random),
    Workload("grid-count",
             "count on a grid with hundreds of 3-rich lines: rich-line intersection and triple loop",
             "find", ("--c", str(GRID_C), "--mode", "count"), make_grid, check_grid),
    Workload("bounds-projection",
             "verify-bounds on a projection set: incidence bound and poor graph on ~2,000-bit integers",
             "verify-bounds", ("--c", "3"), make_projection, check_bounds),
)}


def check(workload: Workload, text: str, code: int, points: PointSet) -> list[str]:
    """Problems with one command's output; an empty list means correct."""
    try:
        return workload.check(parse_report(text), code, points)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
