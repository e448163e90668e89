from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtri.geom import CanonicalLine, Point
from reference import (
    DegeneratePairError,
    incident,
    intersect,
    line_through,
    normalize,
    orientation,
    point,
)

coords = st.integers(min_value=-50, max_value=50)
small_fracs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
points_int = st.builds(point, coords, coords)
points_frac = st.builds(Point, small_fracs, small_fracs)
any_points = st.one_of(points_int, points_frac)


class TestOrientation:
    def test_collinear_on_axis(self):
        assert orientation(point(0, 0), point(1, 0), point(2, 0)) == 0

    def test_ccw_unit_triangle(self):
        assert orientation(point(0, 0), point(1, 0), point(0, 1)) == 1

    def test_rational_collinear(self):
        p = point(0, 0)
        q = Point(Fraction(1, 3), Fraction(1, 7))
        r = Point(Fraction(2, 3), Fraction(2, 7))
        assert orientation(p, q, r) == 0

    def test_coincident_points_are_collinear(self):
        p = point(3, 4)
        assert orientation(p, p, point(1, 2)) == 0

    @given(any_points, any_points, any_points)
    def test_swap_flips_sign(self, p, q, r):
        assert orientation(p, q, r) == -orientation(p, r, q)


class TestLineThrough:
    def test_x_axis(self):
        assert line_through(point(0, 0), point(1, 0)) == CanonicalLine(0, 1, 0)

    def test_diagonal(self):
        assert line_through(point(1, 0), point(0, 1)) == CanonicalLine(1, 1, -1)

    def test_rational_intercepts(self):
        # x/(1/2) + y/(1/3) = 1 cleared to 2x + 3y - 1 = 0
        l = line_through(point("1/2", 0), point(0, "1/3"))
        assert l == CanonicalLine(2, 3, -1)
        assert incident(l, point("1/2", 0)) and incident(l, point(0, "1/3"))

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            line_through(point(2, 2), point(2, 2))

    @given(any_points, any_points)
    def test_symmetric_and_incident(self, p, q):
        if p == q:
            return
        l = line_through(p, q)
        assert l == line_through(q, p)
        assert incident(l, p) and incident(l, q)

    @given(any_points, any_points, any_points)
    def test_orientation_matches_incidence(self, p, q, r):
        if p == q:
            return
        assert (orientation(p, q, r) == 0) == incident(line_through(p, q), r)

    @given(points_int, points_int, st.integers(min_value=-7, max_value=7))
    def test_scale_invariance(self, p, q, lam):
        if p == q or lam == 0:
            return
        sp = Point(lam * p.x, lam * p.y)
        sq = Point(lam * q.x, lam * q.y)
        l = line_through(sp, sq)
        assert incident(l, sp) and incident(l, sq)


class TestCanonicalLine:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CanonicalLine(0, 0, 1)
        with pytest.raises(ValueError):
            CanonicalLine(2, 4, 6)  # not primitive
        with pytest.raises(ValueError):
            CanonicalLine(-1, 2, 3)  # wrong sign

    def test_normalization(self):
        assert CanonicalLine.of(-2, 4, -6) == CanonicalLine(1, -2, 3)
        assert CanonicalLine.of(0, -3, 9) == CanonicalLine(0, 1, -3)
        # rational triples are the reference's: CanonicalLine.of refuses them
        # (tests/test_incidence.py)
        assert normalize(Fraction(1, 2), Fraction(3, 4), 0) == CanonicalLine(2, 3, 0)
        assert normalize("1/2", "-3/4", 1) == CanonicalLine(2, -3, 4)
        assert normalize(Fraction(-1, 3), 2, "0") == CanonicalLine(1, -6, 0)
        with pytest.raises(ValueError, match=r"^not a line: a = b = 0$"):
            normalize(False, Fraction(0), 1)

    @given(st.integers(-40, 40) | st.integers(), st.integers(-40, 40),
           st.integers(-40, 40) | st.integers())
    def test_int_triple_matches_the_fraction_path(self, a, b, c):
        # a triple of ints is reduced by gcd and sign alone; the reference
        # normalizes the same values as Fractions: the same line or the same
        # error
        def of(normal, *triple):
            try:
                return normal(*triple)
            except ValueError as exc:
                return str(exc)

        line = of(CanonicalLine.of, a, b, c)
        assert line == of(normalize, Fraction(a), Fraction(b), Fraction(c)) \
            == of(normalize, a, Fraction(b), c)
        if a == b == 0:
            assert line == "not a line: a = b = 0"
        else:
            assert all(type(v) is int for v in line)

    def test_int_normalization(self):
        assert CanonicalLine.of(6, -9, 12) == CanonicalLine(2, -3, 4)  # the gcd
        assert CanonicalLine.of(-6, 9, -12) == CanonicalLine(2, -3, 4)  # the sign of a
        assert CanonicalLine.of(0, -4, 6) == CanonicalLine(0, 2, -3)  # a = 0: the sign of b
        assert CanonicalLine.of(0, 5, 0) == CanonicalLine(0, 1, 0)
        assert CanonicalLine.of(True, False, -3) == CanonicalLine(1, 0, -3)  # bools are ints
        for triple in ((0, 0, 5), (False, 0, 1)):
            with pytest.raises(ValueError, match=r"^not a line: a = b = 0$"):
                CanonicalLine.of(*triple)

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    def test_idempotent(self, a, b, c):
        if a == 0 and b == 0:
            return
        l = CanonicalLine.of(a, b, c)
        assert CanonicalLine.of(l.a, l.b, l.c) == l


class TestIntersect:
    def test_axes_meet_at_origin(self):
        assert intersect(CanonicalLine(0, 1, 0), CanonicalLine(1, 0, 0)) == point(0, 0)

    def test_parallel(self):
        assert intersect(CanonicalLine(0, 1, 0), CanonicalLine(0, 1, -1)) is None

    def test_identical(self):
        assert intersect(CanonicalLine(0, 1, 0), CanonicalLine(0, 1, 0)) is None

    def test_crossing_diagonals(self):
        u = intersect(CanonicalLine(1, 1, -1), CanonicalLine(1, -1, 0))
        assert u == Point(Fraction(1, 2), Fraction(1, 2))

    @given(any_points, any_points, any_points, any_points)
    @settings(max_examples=200)
    def test_intersection_is_incident_to_both(self, p1, q1, p2, q2):
        if p1 == q1 or p2 == q2:
            return
        l1, l2 = line_through(p1, q1), line_through(p2, q2)
        u = intersect(l1, l2)
        if isinstance(u, Point):
            assert incident(l1, u) and incident(l2, u)
