import io
import itertools
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtri.geom import CanonicalLine, incident, line_through, orientation, point
from ordtri.incidence import (
    DegeneracyTag,
    PointSet,
    SylvesterGallaiError,
    UnderdeterminedError,
    classify_degeneracy,
    enumerate_lines,
    find_ordinary_line,
    line_census,
    pair_line_multiplicity,
    points_on_line,
    spectrum_f,
    spectrum_table,
)
import ordtri.geom
import ordtri.incidence
from ordtri.generators import gen_cubic_progression, gen_grid, gen_random, gen_two_line_union
from ordtri.pointfile import parse_points


def brute_force_profile(P):
    """Independent recount: group collinear index sets over all pairs."""
    n = len(P)
    lines = {}
    for i, j in itertools.combinations(range(n), 2):
        members = frozenset(
            k for k in range(n) if orientation(P[i], P[j], P[k]) == 0 or k in (i, j))
        lines[members] = len(members)
    return sorted(lines.values())


GRID3 = gen_grid(3)
UNIT_TRIANGLE = PointSet.of([(0, 0), (1, 0), (0, 1)])
# Rational sets whose lowest top line (first) and lowest ordinary line
# (second) differ between scaled-coordinate and original-coordinate triples.
RATIONAL_TOP_TIE = PointSet.of([(-1, -2), (-1, "-3/5"), (0, -1), ("1/2", "1/5"), ("1/2", 4),
                                (1, -2), ("3/2", "-1/5"), (2, 1)])
RATIONAL_ORDINARY_TIE = PointSet.of([(-1, "-7/3"), ("-3/2", "5/4"), ("3/2", "-3/2"),
                                     ("-9/4", "4/5"), ("-3/2", "5/3")])
CENSUS_SETS = [
    GRID3, UNIT_TRIANGLE, gen_cubic_progression(4),
    gen_random(20, 25, 3), gen_random(40, 60, 9),
    PointSet.of([("1/2", 0), (0, "1/3"), (1, 1), ("1/4", "1/6"), (2, 5)]),
    RATIONAL_TOP_TIE, RATIONAL_ORDINARY_TIE,
]


class TestEnumerateLines:
    def test_grid3_golden(self):
        prof = enumerate_lines(GRID3)
        assert prof.line_count == 20
        assert prof.multiplicity_histogram() == {3: 8, 2: 12}

    def test_three_collinear(self):
        prof = enumerate_lines(PointSet.of([(0, 0), (1, 1), (2, 2)]))
        assert prof.entries == {CanonicalLine(1, -1, 0): 3}

    def test_unit_triangle(self):
        prof = enumerate_lines(UNIT_TRIANGLE)
        assert sorted(prof.entries.values()) == [2, 2, 2]

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            enumerate_lines(PointSet.of([(0, 0)]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        P = gen_random(14, 14, seed)  # small bound forces collinear groups
        prof = enumerate_lines(P)
        assert sorted(prof.entries.values()) == brute_force_profile(P)

    def test_rational_coordinates(self):
        P = PointSet.of([("1/2", 0), (0, "1/3"), (1, 1), ("1/4", "1/6")])
        prof = enumerate_lines(P)
        assert sorted(prof.entries.values()) == brute_force_profile(P)

    def test_multiplicity_recount_via_incident(self):
        prof = enumerate_lines(GRID3)
        for l, mult in prof.entries.items():
            assert len(points_on_line(GRID3, l)) == mult

    def test_order_independence(self):
        shuffled = PointSet(tuple(reversed(GRID3.points)))
        assert enumerate_lines(shuffled).entries == enumerate_lines(GRID3).entries

    @given(st.sets(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                   min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_pair_sum_identity(self, coords):
        P = PointSet.of(sorted(coords))
        prof = enumerate_lines(P)
        assert sum(comb(l, 2) for l in prof.entries.values()) == comb(len(P), 2)


class TestSpectrum:
    def test_grid3(self):
        prof = enumerate_lines(GRID3)
        assert spectrum_f(prof, 2) == 20
        assert spectrum_f(prof, 3) == 8
        assert spectrum_f(prof, 4) == 0
        assert spectrum_table(prof) == [(2, 20), (3, 8)]

    def test_k_below_two_rejected(self):
        prof = enumerate_lines(GRID3)
        with pytest.raises(ValueError):
            spectrum_f(prof, 1)

    def test_nonincreasing(self):
        prof = enumerate_lines(gen_random(25, 30, 7))
        values = [spectrum_f(prof, k) for k in range(2, prof.max_multiplicity + 2)]
        assert values == sorted(values, reverse=True)


class TestLineCensus:
    @pytest.mark.parametrize("P", CENSUS_SETS)
    def test_census_matches_profile(self, P):
        prof = enumerate_lines(P)
        census = line_census(P)
        assert census.count_by_mult == prof.multiplicity_histogram()
        assert census.spectrum_table() == spectrum_table(prof)

    def test_rich_line_collection(self):
        P = gen_grid(4)
        census = line_census(P, rich_threshold=3)
        prof = enumerate_lines(P)
        expected = sorted(((l, m) for l, m in prof.entries.items() if m > 3),
                          key=lambda pair: pair[0].triple())
        assert list(census.rich) == expected
        assert all(census.members[l] == tuple(points_on_line(P, l)) for l, _ in expected)

    @pytest.mark.parametrize("P", CENSUS_SETS + [gen_grid(5), PointSet.of([(0, 0), (1, 1), (2, 2)])])
    def test_top_and_ordinary_match_profile(self, P):
        prof = enumerate_lines(P)
        census = line_census(P, top=True, ordinary=True)
        top = min((l for l, m in prof.entries.items() if m == prof.max_multiplicity),
                  key=CanonicalLine.triple)
        ordinary = min((l for l, m in prof.entries.items() if m == 2),
                       key=CanonicalLine.triple, default=None)
        assert (census.top, census.ordinary) == (top, ordinary)
        for line in (top, ordinary):
            if line is not None:
                assert census.members[line] == tuple(points_on_line(P, line))

    def test_reports_only_what_is_asked(self):
        census = line_census(GRID3)
        assert (census.top, census.ordinary, census.rich, census.members) == (None, None, (), {})


class TestClassifyDegeneracy:
    def test_too_small(self):
        assert classify_degeneracy(PointSet.of([(0, 0), (1, 1)])).tag is DegeneracyTag.TOO_SMALL

    def test_all_collinear(self):
        cls = classify_degeneracy(PointSet.of([(0, 0), (1, 1), (2, 2)]))
        assert cls.tag is DegeneracyTag.ALL_COLLINEAR
        assert cls.witness == (CanonicalLine(1, -1, 0),)

    def test_two_line_union(self):
        P = PointSet.of([(i, 0) for i in range(5)] + [(0, j) for j in range(1, 5)])
        cls = classify_degeneracy(P)
        assert cls.tag is DegeneracyTag.TWO_LINE_UNION
        l1, l2 = cls.witness
        assert all(incident(l1, p) or incident(l2, p) for p in P)

    def test_two_line_union_single_off_point(self):
        P = PointSet.of([(i, 0) for i in range(5)] + [(1, 1)])
        cls = classify_degeneracy(P)
        assert cls.tag is DegeneracyTag.TWO_LINE_UNION
        l1, l2 = cls.witness
        assert all(incident(l1, p) or incident(l2, p) for p in P)

    def test_grid_non_degenerate(self):
        assert classify_degeneracy(GRID3).tag is DegeneracyTag.NON_DEGENERATE

    @pytest.mark.parametrize("P, tag, witness", [
        (PointSet.of([(0, 0), (1, 1)]), "TooSmall", []),
        (PointSet.of([("1/2", "1/3"), (1, 1), ("3/2", "5/3")]), "AllCollinear", [(4, -3, -1)]),
        (gen_two_line_union(5, 4), "TwoLineUnion", [(0, 1, 0), (1, 0, 0)]),
        (PointSet.of([(0, 1), (2, 2), (0, 2), (3, 3), (0, 3)]),
         "TwoLineUnion", [(1, 0, 0), (1, -1, 0)]),
        (PointSet.of([(0, 1), (2, 2), (3, 3), (0, 2), (0, "1/3"), ("1/2", "1/2")]),
         "TwoLineUnion", [(1, -1, 0), (1, 0, 0)]),
        (PointSet.of([(i, 0) for i in range(5)] + [(1, 1)]),
         "TwoLineUnion", [(0, 1, 0), (1, -1, 0)]),
        (parse_points(io.StringIO((Path(__file__).parent / "data" / "projection.txt").read_text())),
         "NonDegenerate", []),
        (gen_grid(6), "NonDegenerate", []),
    ], ids=["too-small", "collinear", "two-lines", "second-candidate", "third-candidate",
            "line-plus-one-point", "projection", "grid"])
    def test_runs_no_fraction_incidence_test(self, monkeypatch, P, tag, witness):
        def refuse(*args):
            raise AssertionError("Fraction incidence test")
        monkeypatch.setattr(ordtri.geom, "incident", refuse)
        monkeypatch.setattr(ordtri.incidence, "incident", refuse)
        cls = classify_degeneracy(P)
        assert (cls.tag.value, [l.triple() for l in cls.witness]) == (tag, witness)

    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                   min_size=3, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_two_line_witness_always_covers(self, coords):
        P = PointSet.of(sorted(coords))
        cls = classify_degeneracy(P)
        if cls.tag is DegeneracyTag.TWO_LINE_UNION:
            l1, l2 = cls.witness
            assert all(incident(l1, p) or incident(l2, p) for p in P)
        elif cls.tag is DegeneracyTag.NON_DEGENERATE:
            # cross-check: no pair of determined lines covers everything
            prof = enumerate_lines(P)
            lines = list(prof.entries)
            assert not any(
                all(incident(a, p) or incident(b, p) for p in P)
                for a, b in itertools.combinations(lines, 2))


class TestFindOrdinaryLine:
    def test_unit_triangle_deterministic(self):
        l, q, r = find_ordinary_line(UNIT_TRIANGLE)
        sides = [line_through(UNIT_TRIANGLE[i], UNIT_TRIANGLE[j])
                 for i, j in itertools.combinations(range(3), 2)]
        assert l == min(sides, key=CanonicalLine.triple)
        assert incident(l, q) and incident(l, r)

    def test_grid3(self):
        l, q, r = find_ordinary_line(GRID3)
        assert len(points_on_line(GRID3, l)) == 2

    def test_near_collinear(self):
        P = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1)])
        l, q, r = find_ordinary_line(P)
        assert len(points_on_line(P, l)) == 2

    def test_collinear_rejected(self):
        with pytest.raises(SylvesterGallaiError):
            find_ordinary_line(PointSet.of([(0, 0), (1, 1), (2, 2)]))

    def test_too_small_rejected(self):
        with pytest.raises(SylvesterGallaiError):
            find_ordinary_line(PointSet.of([(0, 0), (1, 1)]))


class TestPairLineMultiplicity:
    def test_grid_diagonal(self):
        prof = enumerate_lines(GRID3)
        assert pair_line_multiplicity(prof, GRID3, point(0, 0), point(2, 2)) == 3
        assert pair_line_multiplicity(prof, GRID3, point(0, 0), point(1, 2)) == 2

    def test_unit_triangle(self):
        prof = enumerate_lines(UNIT_TRIANGLE)
        assert pair_line_multiplicity(prof, UNIT_TRIANGLE, point(0, 0), point(1, 0)) == 2

    def test_unknown_point(self):
        prof = enumerate_lines(UNIT_TRIANGLE)
        with pytest.raises(ValueError):
            pair_line_multiplicity(prof, UNIT_TRIANGLE, point(0, 0), point(9, 9))


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PointSet.of([(0, 0), (1, 1), (0, 0)])

    def test_equal_rationals_are_duplicates(self):
        with pytest.raises(ValueError):
            PointSet.of([("1/2", 0), ("2/4", 0)])
