"""Metamorphic tests: a map that preserves collinearity keeps every incidence
answer, index by index, so a set and its image check each other exactly at
sizes the brute-force oracle cannot reach.

Each family is compared with its images under an index permutation (undone
before comparing), an integer shear plus translation, a rational affine map,
a projective map whose denominator is positive on the set, and scalings by
2^40 and 2^200.  A scaling of x alone keeps an integer set's Y span within
one int digit, the sheared lift's side of its gate, and a scaling of both
axes takes it to the plain side; the rational maps move every integer set
to the homogeneous lift.  The answers compared are the census histogram,
the rich-pair graph H at c = 3 as index pairs, N_3 and N_4, the degeneracy
tag with the points on each witness line, and fast mode's case and whether
it lists a triangle.
"""
import random
from fractions import Fraction
from functools import cache

import pytest

from ordtri.generators import (
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from ordtri.geom import CanonicalLine, PointSet
from ordtri.incidence import classify_degeneracy, line_census
from ordtri.triangles import count_c_ordinary, find_c_ordinary
from reference import lift_kind

FAMILIES = {
    "grid12": lambda: gen_grid(12),
    "cubic": lambda: gen_cubic_progression(16),
    # through (0, 14) the inverse slopes 1/13 and 1/14, to (1, 1) and (1, 0),
    # differ by less than 2^-(S - 1), S = 2 * bitlen(14) = 8: one bit less
    # of S would key them alike
    "rich-line-plus": lambda: gen_rich_line_plus(
        40, [(0, 14), (1, 1), (3, 7), (-2, 5), (5, 9), (4, 4)]),
    "two-line": lambda: gen_two_line_union(30, 20),
    "projection13": lambda: gen_projection_augmented(
        gen_random(13, 10 ** 5, 7), CanonicalLine.of(1, -13577, 10 ** 9 + 7)),
    "random": lambda: gen_random(100, 10 ** 5, 11),
}


def coordinates(P):
    return [(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in P.rows]


def pointwise(f):
    """The map P -> f(P), point i of the image being f of point i of P."""
    def image(P):
        return PointSet.of([f(x, y) for x, y in coordinates(P)]), range(len(P))
    return image


def permuted(P):
    back = random.Random(5).sample(range(len(P)), len(P))  # image point i is P's back[i]
    return PointSet.of([coordinates(P)[k] for k in back]), back


def projective(P):
    shift = 1 - min(3 * x + 5 * y for x, y in coordinates(P))  # so d >= 1 on P
    assert 65 * shift != 78  # the map's 3x3 matrix has determinant 65 * shift - 78

    def f(x, y):
        d = 3 * x + 5 * y + shift
        return (7 * x - 2 * y + 11) / d, (x + 9 * y - 4) / d
    return pointwise(f)(P)


MAPS = {
    "permutation": permuted,
    # adds 2^22 to every inverse slope: an integer set with a one-digit Y
    # span moves to the sheared lift, with every slope key's gap kept
    "shear": pointwise(lambda x, y: (x - 2 ** 22 * y - 1000003, y + 77)),
    # determinant 2/3 * 5/2 + 1/3 * 1/2 = 11/6
    "affine": pointwise(lambda x, y: ((2 * x - y) / 3 + Fraction(1, 7),
                                      (x + 5 * y) / 2 - Fraction(4, 5))),
    "projective": projective,
    "scale-x-2^40": pointwise(lambda x, y: (x * 2 ** 40, y)),
    "scale-x-2^200": pointwise(lambda x, y: (x * 2 ** 200, y)),
    "scale-2^40": pointwise(lambda x, y: (x * 2 ** 40, y * 2 ** 40)),
    "scale-2^200": pointwise(lambda x, y: (x * 2 ** 200, y * 2 ** 200)),
}


def answers(P, back):
    """The incidence answers of P, point indices named by back[i]."""
    n = len(P)
    at_3, at_4 = line_census(P, rich_threshold=3), line_census(P, rich_threshold=4)
    h = {frozenset((back[u], back[v])) for u, bits in enumerate(at_3.rich)
         for v in range(u + 1, n) if bits >> v & 1}
    degeneracy = classify_degeneracy(P)
    witness = [frozenset(back[k] for k, (x, y, w) in enumerate(P.homogeneous)
                         if a * x + b * y + c * w == 0) for a, b, c in degeneracy.witness]
    fast = find_c_ordinary(P)
    return {"count_by_mult": at_3.count_by_mult, "H": h,
            "N_3": count_c_ordinary(P, 3, at_3), "N_4": count_c_ordinary(P, 4, at_4),
            "degeneracy": (degeneracy.tag, sorted(witness, key=sorted)),
            "fast": (fast.case_taken, bool(fast.triangles))}


@cache
def family(name):
    P = FAMILIES[name]()
    return P, answers(P, range(len(P)))


@pytest.mark.parametrize("map_name", MAPS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_a_collinearity_preserving_map_keeps_every_answer(family_name, map_name):
    P, expected = family(family_name)
    image, back = MAPS[map_name](P)
    assert image.rows != P.rows
    assert answers(image, back) == expected


def test_the_images_take_every_lift():
    grid = gen_grid(12)
    assert [lift_kind(MAPS[name](grid)[0]) for name in ("scale-2^40", "scale-x-2^40", "affine")] \
        == ["plain", "sheared", "homogeneous"]
