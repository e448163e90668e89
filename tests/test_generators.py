import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtri.geom import CanonicalLine
from ordtri.incidence import DegeneracyTag, PointSet, classify_degeneracy, line_census
from ordtri.generators import (
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
import reference
from reference import enumerate_lines, incident, intersect, orientation, point


class TestGrid:
    def test_sizes(self):
        assert len(gen_grid(1)) == 1
        assert len(gen_grid(2)) == 4
        assert enumerate_lines(gen_grid(2)).line_count == 6
        assert enumerate_lines(gen_grid(3)).line_count == 20

    def test_max_multiplicity_is_g(self):
        for g in (2, 3, 5, 8):
            assert enumerate_lines(gen_grid(g)).max_multiplicity == g

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_grid(0)


class TestTwoLineUnion:
    def test_2_2(self):
        P = gen_two_line_union(2, 2)
        assert len(P) == 4
        assert classify_degeneracy(P).tag is DegeneracyTag.TWO_LINE_UNION

    def test_5_1(self):
        assert classify_degeneracy(gen_two_line_union(5, 1)).tag is \
            DegeneracyTag.TWO_LINE_UNION

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            gen_two_line_union(3, 0)


def _outcome(gen, *args):
    """The rows gen makes, or the text of the ValueError it raises."""
    try:
        return gen(*args).rows
    except ValueError as exc:
        return str(exc)


# bases of integer and of rational points, and lines that are general,
# vertical (b = 0: every added x ties, so y decides the order) or horizontal
integer_bases = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                         min_size=1, max_size=7, unique=True)
ratios = st.fractions(-6, 6, max_denominator=4)
rational_bases = st.lists(st.tuples(ratios, ratios), min_size=1, max_size=7, unique=True)
line_coef = st.integers(-4, 4)
offsets = st.integers(-40, 40)
lines = st.one_of(
    st.tuples(line_coef, line_coef, offsets).filter(lambda t: t[0] or t[1]),
    st.tuples(line_coef.filter(bool), st.just(0), offsets),
    st.tuples(st.just(0), line_coef.filter(bool), offsets),
)


class TestProjectionAugmented:
    def test_unit_triangle_example(self):
        tri = PointSet.of([(0, 0), (1, 0), (0, 1)])
        ell = CanonicalLine.of(1, -1, 5)  # y = x + 5
        P = gen_projection_augmented(tri, ell)
        assert len(P) == 6
        added = set(P) - set(tri)
        assert added == {point(-5, 0), point(0, 5), point(-2, 3)}
        assert all(incident(ell, p) for p in added)

    def test_added_points_cover_every_base_line(self):
        base = PointSet.of([(0, 0), (3, 1), (1, 4), (5, 5)])
        # slope 1/2 avoids all six base slopes (1/3, 4, 1, -3/2, 2, 1/4)
        ell = CanonicalLine.of(1, -2, 1000)
        P = gen_projection_augmented(base, ell)
        base_profile = enumerate_lines(base)
        full_profile = enumerate_lines(P)
        for l in base_profile.entries:
            assert full_profile.entries[l] > base_profile.entries[l]

    @pytest.mark.parametrize("base, ell", [
        (gen_random(12, 10 ** 5, 3), CanonicalLine.of(1, -13577, 10 ** 9 + 7)),
        (PointSet.of([(0, 0), ("1/2", "1/3"), (2, "5/7"), (-1, 3), ("7/4", "-2/9"), (3, 1)]),
         CanonicalLine.of(3, -2, 1)),
    ], ids=["integer-base", "rational-base"])
    def test_matches_the_reference_lines(self, base, ell):
        # the base, then the meets of ell with every line of the reference
        # profile, ascending: the same points in the same order, so the same
        # point file
        added = sorted({intersect(ell, l) for l in enumerate_lines(base).entries})
        assert gen_projection_augmented(base, ell) == PointSet(tuple(base) + tuple(added))

    @pytest.mark.parametrize("coords, triple, order", [
        ([(0, 0), (1, 3), (2, 1), ("7/2", "-1/3")], (2, 0, -9), "y"),  # x = 9/2
        ([(0, 0), (1, 3), (2, 1), ("7/2", "-1/3")], (0, 3, 4), "x"),  # y = -4/3
    ], ids=["vertical", "horizontal"])
    def test_axis_parallel_line(self, coords, triple, order):
        # on a vertical ell every added x ties and y alone orders the rows
        base, ell = PointSet.of(coords), CanonicalLine.of(*triple)
        P = gen_projection_augmented(base, ell)
        assert P.rows == reference.gen_projection_augmented(base, ell).rows
        added = P.points[len(base):]
        assert len(added) == 6 and all(incident(ell, p) for p in added)
        key = (lambda p: p.y) if order == "y" else (lambda p: p.x)
        assert [key(p) for p in added] == sorted(set(map(key, added)))

    @given(st.one_of(integer_bases, rational_bases), lines)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_reference(self, coords, triple):
        # the same rows in the same order, or the same error
        base, ell = PointSet.of(coords), CanonicalLine.of(*triple)
        assert _outcome(gen_projection_augmented, base, ell) == \
            _outcome(reference.gen_projection_augmented, base, ell)

    def assert_rejected(self, coords, triple, message):
        # the same ValueError text as the Fraction reference
        base, ell = PointSet.of(coords), CanonicalLine.of(*triple)
        assert _outcome(gen_projection_augmented, base, ell) == message
        assert _outcome(reference.gen_projection_augmented, base, ell) == message

    def test_parallel_line_rejected(self):
        self.assert_rejected([(0, 0), (1, 0), ("1/2", "1/3")], (0, 1, -7),  # parallel to y=0
                             "augmentation line not generic: parallel to a determined line")

    def test_point_on_line_rejected(self):
        self.assert_rejected([(0, 0), (1, 0), (0, 1)], (1, 1, 0),  # through (0,0)
                             "point 0 of the base set lies on the augmentation line")

    def test_collinear_base_rejected(self):
        for triple in ((1, 0, 9), (1, -1, 9)):  # ell crosses the base line, or is parallel
            self.assert_rejected([(0, 0), (1, 1), (2, 2)], triple, "base set is collinear")

    @pytest.mark.parametrize("coords, triple, message", [
        # a point on ell comes first: here the base is also collinear
        ([(0, 0), (1, 1), (2, 2)], (1, 1, -4), "point 2 of the base set lies on the augmentation line"),
        # and also has a line parallel to ell
        ([(0, 0), (1, 0), (0, 1), (3, 0)], (0, 1, -1), "point 2 of the base set lies on the augmentation line"),
        # then a collinear base, though its one line is parallel to ell, on
        # rational points
        ([("1/2", "1/3"), ("3/2", "4/3"), ("-1/2", "-2/3")], (1, -1, 7), "base set is collinear"),
        # under three points a base is collinear
        ([(0, 0), (1, 2)], (1, 1, 9), "base set is collinear"),
        ([("1/2", 3)], (1, 1, 9), "base set is collinear"),
        # then a line parallel to ell
        ([(0, 0), (1, 0), (0, 1)], (1, 1, 5), "augmentation line not generic: parallel to a determined line"),
    ], ids=["on-ell-collinear", "on-ell-parallel", "collinear-parallel", "two-points", "one-point",
            "parallel"])
    def test_errors_in_precedence(self, coords, triple, message):
        self.assert_rejected(coords, triple, message)

    @pytest.mark.parametrize("shift", [0, "1/3"])
    def test_lines_that_meet_on_ell_add_one_point(self, shift):
        # the line through points 0 and 1 and the vertical through points 2
        # and 3 meet ell: x + 2y = 15 at (5, 5): six lines, five meets
        coords = [(0, 0), (1, 1), (5, 0), (5, 1)]
        if shift:  # translated by (1/3, 1/3), with ell
            coords = [(f"{3 * x + 1}/3", f"{3 * y + 1}/3") for x, y in coords]
        base, ell = PointSet.of(coords), CanonicalLine.of(1, 2, -16 if shift else -15)
        P = gen_projection_augmented(base, ell)
        assert len(P) == 4 + 5
        assert P.rows == reference.gen_projection_augmented(base, ell).rows


class TestRichLinePlus:
    def test_case_i_trigger(self):
        P = gen_rich_line_plus(10, [(0, 1), (1, 1), (2, 3)])
        prof = enumerate_lines(P)
        n = len(P)
        # l_max = 10 > alpha*n = 4*13/11 for c = 10
        assert prof.max_multiplicity == 10
        assert 11 * 10 > 4 * n

    def test_k2_no_rich_line(self):
        P = gen_rich_line_plus(2, [(0, 1), (1, 2), (5, 3)])
        assert enumerate_lines(P).max_multiplicity <= 3

    def test_rejects_on_axis_extra(self):
        with pytest.raises(ValueError):
            gen_rich_line_plus(5, [(7, 0)])

    def test_rejects_duplicate_extra(self):
        with pytest.raises(ValueError):
            gen_rich_line_plus(5, [(0, 1), (0, 1)])

    def test_rejects_collinear_extras(self):
        with pytest.raises(ValueError):
            gen_rich_line_plus(5, [(0, 1), (1, 2), (2, 3)])

    def test_rational_extras(self):
        P = gen_rich_line_plus(4, [(Fraction(1, 2), Fraction(1, 3)), (0, 1)])
        assert len(P) == 6


class TestRandom:
    def test_seed_reproducibility(self):
        assert gen_random(50, 100, 7).rows == gen_random(50, 100, 7).rows

    def test_seed_sensitivity(self):
        assert gen_random(50, 100, 7).rows != gen_random(50, 100, 8).rows

    def test_small(self):
        P = gen_random(3, 10, 0)
        assert len(P) == 3 and len(set(P.rows)) == 3

    def test_bounds_respected(self):
        P = gen_random(30, 40, 3)
        assert all(xd == yd == 1 and 0 <= xn <= 40 and 0 <= yn <= 40
                   for xn, xd, yn, yd in P.rows)

    def test_general_position_with_large_bound(self):
        P = gen_random(50, 10 ** 6, 1)
        assert enumerate_lines(P).max_multiplicity == 2  # post-hoc check

    def test_rejects_tight_bound(self):
        with pytest.raises(ValueError):
            gen_random(10, 5, 0)

    # the scheme is the loop randrange(bound + 1) runs on getrandbits: the
    # same sets as the randrange oracle, draws of 2 to 71 bits, with the
    # bound just below, at and just above a power of two
    @pytest.mark.parametrize("n, bound", [
        (1, 1), (3, 10), (50, 50), (200, 2 ** 16 - 1), (200, 2 ** 16), (200, 2 ** 16 + 1),
        (1000, 10 ** 8), (30, 2 ** 64 - 1), (20, 2 ** 70),
    ])
    def test_matches_the_randrange_oracle(self, n, bound):
        for seed in range(21):
            assert gen_random(n, bound, seed).rows == reference.gen_random(n, bound, seed).rows, seed

    @pytest.mark.parametrize("n, bound", [(0, 10), (-1, 10), (10, 9), (10, 0), (2, 1)])
    def test_errors_match_the_oracle(self, n, bound):
        assert _outcome(gen_random, n, bound, 0) == _outcome(reference.gen_random, n, bound, 0)

    # an integral float or Fraction bound is refused, not drawn from
    @pytest.mark.parametrize("bound", [1e5, Fraction(10 ** 5)])
    def test_non_int_bound_is_refused(self, bound):
        with pytest.raises(TypeError):
            gen_random(10, bound, 1)


class TestCubicProgression:
    def test_m1_collinear_triple(self):
        P = gen_cubic_progression(1)
        assert orientation(point(-1, -1), point(0, 0), point(1, 1)) == 0
        assert len(P) == 3

    def test_no_four_collinear(self):
        for m in range(1, 21):
            census = line_census(gen_cubic_progression(m))
            assert census.max_multiplicity <= 3

    def test_f3_counts_zero_sum_triples(self):
        for m in (2, 3, 5):
            ts = range(-m, m + 1)
            expected = sum(1 for tri in itertools.combinations(ts, 3) if sum(tri) == 0)
            census = line_census(gen_cubic_progression(m))
            assert census.f(3) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_cubic_progression(0)
