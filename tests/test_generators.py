import itertools
from fractions import Fraction

import pytest

from ordtri.geom import CanonicalLine, incident, intersect, orientation, point
from ordtri.incidence import DegeneracyTag, PointSet, classify_degeneracy, line_census
from ordtri.generators import (
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from reference import enumerate_lines


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


class TestProjectionAugmented:
    TRIANGLE = gen_grid(2)  # actually use an explicit triangle below

    def test_unit_triangle_example(self):
        from ordtri.incidence import PointSet
        tri = PointSet.of([(0, 0), (1, 0), (0, 1)])
        ell = CanonicalLine.of(1, -1, 5)  # y = x + 5
        P = gen_projection_augmented(tri, ell)
        assert len(P) == 6
        added = set(P) - set(tri)
        assert added == {point(-5, 0), point(0, 5), point(-2, 3)}
        assert all(incident(ell, p) for p in added)

    def test_added_points_cover_every_base_line(self):
        from ordtri.incidence import PointSet
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

    def test_parallel_line_rejected(self):
        from ordtri.incidence import PointSet
        tri = PointSet.of([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            gen_projection_augmented(tri, CanonicalLine.of(0, 1, -7))  # parallel to y=0

    def test_point_on_line_rejected(self):
        from ordtri.incidence import PointSet
        tri = PointSet.of([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            gen_projection_augmented(tri, CanonicalLine.of(1, 1, 0))  # through (0,0)

    def test_collinear_base_rejected(self):
        from ordtri.incidence import PointSet
        base = PointSet.of([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValueError):
            gen_projection_augmented(base, CanonicalLine.of(1, 0, 9))


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
        assert gen_random(50, 100, 7).points == gen_random(50, 100, 7).points

    def test_seed_sensitivity(self):
        assert gen_random(50, 100, 7).points != gen_random(50, 100, 8).points

    def test_small(self):
        P = gen_random(3, 10, 0)
        assert len(P) == 3 and len(set(P.points)) == 3

    def test_bounds_respected(self):
        P = gen_random(30, 40, 3)
        assert all(0 <= p.x <= 40 and 0 <= p.y <= 40 for p in P)

    def test_general_position_with_large_bound(self):
        P = gen_random(50, 10 ** 6, 1)
        assert enumerate_lines(P).max_multiplicity == 2  # post-hoc check

    def test_rejects_tight_bound(self):
        with pytest.raises(ValueError):
            gen_random(10, 5, 0)


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
