"""Instance generators: grids, seeded random sets, degenerate two-line unions,
rich-line stress sets, cubic progressions, and the projection augmentation
that kills all 2-ordinary triangles.
"""
from __future__ import annotations

import operator
import random
from collections.abc import Iterable
from itertools import combinations
from math import gcd

from .geom import CanonicalLine, PointSet, _coord
from .incidence import DegeneracyTag, _cross, classify_degeneracy
from .pointfile import _ratio_text


def gen_grid(g: int) -> PointSet:
    """The g x g integer grid {0..g-1}^2 in row-major order."""
    if g < 1:
        raise ValueError("grid size must be >= 1")
    return PointSet.of([(x, y) for y in range(g) for x in range(g)])


def gen_two_line_union(n1: int, n2: int) -> PointSet:
    """n1 points (1..n1, 0) on the x-axis and n2 points (0, 1..n2) on the y-axis."""
    if n1 < 1 or n2 < 1:
        raise ValueError("two-line union needs n1, n2 >= 1")
    return PointSet.of([(i, 0) for i in range(1, n1 + 1)]
                       + [(0, j) for j in range(1, n2 + 1)])


def gen_projection_augmented(P1: PointSet, ell: CanonicalLine) -> PointSet:
    """P1 plus, for each line determined by P1, its intersection with ell,
    ordered by x, then y.

    All added points are collinear on ell, and every determined line of P1
    picks one up, which eliminates 2-ordinary triangles.  ell must be generic:
    it meets every determined line in a single point and avoids P1.
    """
    a, b, c = ell
    homogeneous = P1.homogeneous
    for i, (x, y, w) in enumerate(homogeneous):
        if a * x + b * y + c * w == 0:
            raise ValueError(f"point {i} of the base set lies on the augmentation line")
    # checked before the pairs: a collinear base is refused as such also
    # where its line is parallel to ell.  (0, 0, 0) holds a base under 3 points
    a0, b0, c0 = _cross(homogeneous, 0, 1) if len(P1) > 2 else (0, 0, 0)
    if all(a0 * x + b0 * y + c0 * w == 0 for x, y, w in homogeneous[2:]):
        raise ValueError("base set is collinear")
    added = set()  # the meets as reduced rows, each once
    for i, j in combinations(range(len(P1)), 2):
        # the pair's unreduced line, never ell: ell holds no base point
        a1, b1, c1 = _cross(homogeneous, i, j)
        d = a * b1 - a1 * b
        if d == 0:
            raise ValueError("augmentation line not generic: parallel to a determined line")
        x, y = b * c1 - b1 * c, a1 * c - a * c1
        if d < 0:
            x, y, d = -x, -y, -d
        gx, gy = gcd(x, d), gcd(y, d)
        added.add((x // gx, d // gx, y // gy, d // gy))
    # By x, then y: on ell, x alone unless ell is vertical (b = 0).  With s =
    # 2 * bitlen(largest denominator), distinct coordinates p/q differ by
    # more than 2^-s, so the key floor(p * 2^s / q) is exact.
    k = 0 if b else 2
    s = 2 * max(row[k + 1] for row in added).bit_length()
    # the added points lie on ell and the base points off it: all distinct
    return PointSet._of_rows(P1.rows + tuple(sorted(added, key=lambda row: (row[k] << s)
                                                    // row[k + 1])), distinct=True)


def gen_rich_line_plus(k: int, extras: Iterable) -> PointSet:
    """(0,0)..(k-1,0) on the x-axis plus off-axis extra points.

    Exercises the rich-line case: for suitable c the x-axis exceeds alpha*n
    while the extras form the non-collinear remainder.
    """
    if k < 2:
        raise ValueError("rich-line base needs k >= 2")
    rows = [_coord(x) + _coord(y) for x, y in extras]
    for xn, xd, yn, _ in rows:
        if yn == 0:
            raise ValueError(f"extra point ({_ratio_text(xn, xd)}, 0) lies on the x-axis")
    if len(set(rows)) != len(rows):
        raise ValueError("duplicate extra point")
    extra = PointSet._of_rows(rows, distinct=True)
    if classify_degeneracy(extra).tag is DegeneracyTag.ALL_COLLINEAR:
        raise ValueError("extra points are all collinear")
    # the extras are distinct and off the axis
    return PointSet._of_rows([(i, 1, 0, 1) for i in range(k)] + rows, distinct=True)


#: Generator identity for reports: bump when the sampling scheme changes.
RANDOM_SCHEME = "mt19937-randrange-v1"


def gen_random(n: int, coordinate_bound: int, seed: int) -> PointSet:
    """n distinct integer points drawn uniformly from [0, bound]^2.

    Sampling scheme RANDOM_SCHEME: the Mersenne Twister of random.Random(seed)
    draws each coordinate, x first, then y, as r = getrandbits(k) for
    k = (bound + 1).bit_length(), drawing again until r <= bound (the loop
    that randrange(bound + 1) runs); duplicates are rejected.  Identical seed
    and parameters reproduce the identical set.  The bound must be an int.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = operator.index(coordinate_bound) + 1
    if m <= n:
        raise ValueError("coordinate bound must be >= n to keep distinctness feasible")
    k = m.bit_length()
    getrandbits = random.Random(seed).getrandbits
    rows: dict[tuple[int, int, int, int], None] = {}  # the integer rows drawn, in order
    attempts = 0
    while len(rows) < n:
        attempts += 1
        if attempts > 100 * n + 1000:
            raise ValueError(f"could not place {n} distinct points in [0,{coordinate_bound}]^2")
        x = getrandbits(k)
        while x >= m:
            x = getrandbits(k)
        y = getrandbits(k)
        while y >= m:
            y = getrandbits(k)
        rows[x, 1, y, 1] = None
    return PointSet._of_rows(rows, distinct=True)


def gen_cubic_progression(m: int) -> PointSet:
    """{(t, t^3) : t in [-m, m]}.

    Three points are collinear exactly when t1 + t2 + t3 = 0 and no four are
    ever collinear, giving a dense supply of 3-point lines.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return PointSet.of([(t, t ** 3) for t in range(-m, m + 1)])
