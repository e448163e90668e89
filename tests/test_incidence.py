import io
import itertools
import random
import sys
from collections import Counter, defaultdict
from decimal import Decimal
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtri.geom import CanonicalLine
from ordtri.incidence import (
    DegeneracyTag,
    PointSet,
    SylvesterGallaiError,
    UnderdeterminedError,
    _scaled_line_key,
    _slope_keys,
    classify_degeneracy,
    line_census,
)
from ordtri.richline import find_ordinary_line
from ordtri.triangles import find_case_poor_graph
import ordtri.geom
import ordtri.incidence
from ordtri.generators import (
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from ordtri.pointfile import PointFileError, format_points, parse_points
from reference import (
    LIFTS,
    _unscale,
    enumerate_lines,
    first_ordinary_pair,
    incident,
    lift_kind,
    line_through,
    orientation,
    pair_line_multiplicity,
    point,
    points_on_line,
    spectrum_f,
    spectrum_table,
    top_line,
    with_lift,
)


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
# Inputs on which the census's sweep order (Y descending, then X ascending)
# is far from index order, or has ties in Y.
ORDER_SETS = CENSUS_SETS + [
    # a horizontal and a vertical line of 5 or 6 points each, twice
    PointSet.of([(x, 0) for x in range(6)] + [(0, y) for y in range(1, 6)]
                + [(x, 4) for x in (2, 3, 5, 7)] + [(3, y) for y in (1, 2, 7)]),
    # many points sharing one Y
    PointSet.of([(x, 2) for x in range(-7, 8)] + [(0, 0), (1, 5), (-3, -1), (4, 9)]),
    # negative coordinates
    PointSet.of([(x - 3, y - 4) for x in range(-1, 4) for y in range(-2, 3)]
                + [(-17, -5), (-1, -13)]),
    # coordinates of about 2**200
    PointSet.of([(2 ** 200 * x + 7, 2 ** 200 * y - 3) for x in range(4) for y in range(4)]
                + [(2 ** 200 + 1, -2 ** 201), (-2 ** 199, 2 ** 200 + 5)]),
    # x and y denominators that differ
    PointSet.of([(Fraction(x, 3), Fraction(y, 5)) for x in range(4) for y in range(4)]
                + [("1/7", "2/9"), ("-5/2", "1/5")]),
    # a grid stretched along x, with negative coordinates, at -2**70: its
    # lift is sheared (PointSet.lifted)
    PointSet.of([(2 ** 31 * x - 2 ** 70, y - 3) for x in range(-2, 3) for y in range(5)]
                + [(2 ** 30 - 2 ** 70, 7), (-2 ** 70 - 3, -9)]),
]
CENSUS_ASKS = [{"rich_threshold": t} for t in (2, 3, 12000)] + [{"top": True}]


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
        # H is the union of the cliques of the lines with more than 3 points:
        # the 4 rows, the 4 columns and the 2 long diagonals of the grid
        P = gen_grid(4)
        census = line_census(P, rich_threshold=3)
        expected = [0] * len(P)
        for l, m in enumerate_lines(P).entries.items():
            if m > 3:
                on = points_on_line(P, l)
                for i in on:
                    expected[i] |= sum(1 << j for j in on if j != i)
        assert census.rich == expected
        assert [bits.bit_count() for bits in census.rich] == [
            9 if x == y or x + y == 3 else 6 for y in range(4) for x in range(4)]

    @pytest.mark.parametrize("P", CENSUS_SETS + [gen_grid(5), PointSet.of([(0, 0), (1, 1), (2, 2)])])
    def test_top_and_ordinary_match_profile(self, P):
        census = line_census(P, top=True)
        top = top_line(P, enumerate_lines(P))
        assert census.top == top
        assert census.members[top] == tuple(points_on_line(P, top))
        ordinary = first_ordinary_pair(P)
        if ordinary is None:
            with pytest.raises(SylvesterGallaiError):
                find_ordinary_line(P)
        else:
            assert find_ordinary_line(P) == ordinary

    def test_reports_only_what_is_asked(self):
        census = line_census(GRID3)
        assert (census.top, census.rich, census.members) == (None, (), {})


def brute_force_census(P, rich_threshold=None, top=False):
    """The census's reports from every pair keyed one at a time: the
    histogram, the rich-pair graph H as the set of pairs (i, j), i < j, on
    lines with more than rich_threshold points, the top line and its
    members."""
    pts, sx, sy = P.scaled_ints
    groups = defaultdict(set)
    for i, j in itertools.combinations(range(len(P)), 2):
        groups[_scaled_line_key(*pts[i], *pts[j])] |= {i, j}
    lines = {CanonicalLine(*_unscale(key, sx, sy)): tuple(sorted(idx))
             for key, idx in groups.items()}
    rich, members, top_line = None, {}, None
    if rich_threshold is not None:
        rich = {pair for idx in lines.values() if len(idx) > rich_threshold
                for pair in itertools.combinations(idx, 2)}
    if top:  # the line of most points whose first point in sweep order comes first
        most = max(map(len, lines.values()))
        top_line = min((l for l, idx in lines.items() if len(idx) == most),
                       key=lambda l: (min((-P[k].y, P[k].x) for k in lines[l]), l.triple()))
        members[top_line] = lines[top_line]
    return dict(Counter(map(len, lines.values()))), rich, members, top_line


def census_in_p_indices(P, perm, **asks):
    """The census of P reordered so that its k-th point is P[perm[k]], with
    H (as brute_force_census gives it) and the members mapped back to
    P-indices.  H's bitsets must be symmetric."""
    census = line_census(PointSet(tuple(P[k] for k in perm)), **asks)
    rich = None
    if census.rich_threshold is not None:
        h = census.rich
        assert len(h) == len(P)
        assert all(h[u] >> v & 1 == h[v] >> u & 1 for u in range(len(P)) for v in range(len(P)))
        rich = {tuple(sorted((perm[u], perm[v]))) for u in range(len(P))
                for v in range(u + 1, len(P)) if h[u] >> v & 1}
    members = {l: tuple(sorted(perm[k] for k in idx)) for l, idx in census.members.items()}
    return census.count_by_mult, rich, members, census.top


def line_partition(P, k):
    """The other points of P grouped by their line through point k, once by
    the slope keys of the census kernel and once by the primitive triple of
    _scaled_line_key, as sorted lists of P-indices.  The keys toward the
    points below k, computed without the level key as the census does, must
    be the same."""
    lifted, level, _ = P.lifted
    pts, _, _ = P.scaled_ints
    others = [j for j in range(len(P)) if j != k]
    keys = dict(zip(others, _slope_keys(lifted[k], [lifted[j] for j in others], level)))
    below = [j for j in others if pts[j][1] < pts[k][1]]
    assert _slope_keys(lifted[k], [lifted[j] for j in below]) == [keys[j] for j in below]
    assert all(keys[j] < level for j in below)
    by_key, by_triple = defaultdict(list), defaultdict(list)
    for j in others:
        by_key[keys[j]].append(j)
        by_triple[_scaled_line_key(*pts[k], *pts[j])].append(j)
    return sorted(by_key.values()), sorted(by_triple.values())


BITS_PER_DIGIT = sys.int_info.bits_per_digit


def unsheared_lift(P):
    """PointSet.lifted as it was before the shear: (X << S, Y), the level
    key (span(X) + 1) << S, S as its docstring sets it, and the sweep keys
    (-Y, X << S)."""
    pts, _, _ = P.scaled_ints
    xs, ys = zip(*pts)
    shift = 2 * (max(ys) - min(ys)).bit_length()
    return ([(x << shift, y) for x, y in pts], (max(xs) - min(xs) + 1) << shift,
            [(-y, x << shift) for x, y in pts])


def lift_of(P):
    """(S, sheared) of P.lifted, a plain or sheared lift.  S is read off the
    level key, L = (span(X) + 1) << S unsheared and 2L sheared; the lift
    must be the one that the gate picks (sheared iff span(Y) fits in one
    int digit and span(X) << S does not), by its formula."""
    pts, _, _ = P.scaled_ints
    xs, ys = zip(*pts)
    span_x, span_y = max(xs) - min(xs), max(ys) - min(ys)
    lifted, level, sweep = P.lifted
    top = (level // (span_x + 1)).bit_length() - 1
    readings = []
    for shift, sheared in ((top, False), (top - 1, True)):
        L = (span_x + 1) << shift
        if sheared:
            lift = [(((x - min(xs)) << shift) - L * (y - min(ys)), y) for x, y in pts], 2 * L
        else:
            lift = [(x << shift, y) for x, y in pts], L
        gate = span_y.bit_length() <= BITS_PER_DIGIT < (span_x << shift).bit_length()
        if sheared == gate and (lifted, level) == lift and sweep == [(-y, x) for x, y in lift[0]]:
            readings.append((shift, sheared))
    assert len(readings) == 1, readings
    return readings[0]


def farey_neighbours(span, offset=0):
    """A point at height span above two others whose slopes p/q and p'/q'
    through it are Farey neighbours (|p*q' - p'*q| = 1) with q = span and
    q' = span - 1: two slopes as close as the span allows.  A point level
    with the first joins them, and offset translates all four."""
    q, q2 = span, span - 1
    p = pow(q2, -1, q) if q > 1 else 1  # p*q2 = 1 mod q
    p2 = (p * q2 - 1) // q
    pts = [(0, span), (p, 0), (p2, span - q2), (1, span)]
    return PointSet.of([(x + offset, y + offset) for x, y in pts])


class TestCensusOrder:
    @pytest.mark.parametrize("asks", CENSUS_ASKS + [{"rich_threshold": 1}],
                             ids=lambda asks: ",".join(f"{k}={v}" for k, v in asks.items()))
    @pytest.mark.parametrize("P", ORDER_SETS)
    def test_independent_of_input_order(self, P, asks):
        n = len(P)
        shuffled = list(range(n))
        random.Random(n).shuffle(shuffled)
        for perm in (range(n), shuffled, range(n - 1, -1, -1)):
            if asks.get("rich_threshold", 2) < 2:  # every line is rich: no H to tell
                with pytest.raises(ValueError, match="rich_threshold must be >= 2"):
                    census_in_p_indices(P, list(perm), **asks)
            else:
                assert census_in_p_indices(P, list(perm), **asks) == brute_force_census(P, **asks)

    coords = st.integers(-20, 20) | st.integers(-2 ** 70, 2 ** 70)
    # mixed denominators: a few primes per axis, so the lcm grows past any
    # one denominator and the shift bound of rational input applies
    rationals = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 7, 11, 13]))

    @given(st.sets(st.tuples(coords, coords), min_size=2, max_size=24)
           | st.sets(st.tuples(rationals, rationals), min_size=2, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_key_partition_is_the_line_partition(self, coords):
        P = PointSet.of(sorted(coords))
        for Q in (with_lift(P, kind) for kind in LIFTS):
            for k in range(len(Q)):
                by_key, by_triple = line_partition(Q, k)
                assert by_key == by_triple

    @pytest.mark.parametrize("P", [
        parse_points(io.StringIO((Path(__file__).parent / "data" / "projection.txt").read_text())),
        gen_projection_augmented(PointSet.of([(0, 0), ("1/2", "1/3"), (2, "5/7"), (-1, 3),
                                              ("7/4", "-2/9")]), CanonicalLine.of(3, -2, 1)),
        gen_projection_augmented(gen_random(9, 10 ** 5, 3), CanonicalLine.of(1, -13577, 10 ** 9 + 7)),
    ], ids=["golden-input", "rational-base", "random-base"])
    def test_key_partition_on_projection_sets(self, P):
        """Scaled coordinates of hundreds of bits, under each lift."""
        for kind in LIFTS:
            Q = with_lift(P, kind)
            for k in range(len(Q)):
                by_key, by_triple = line_partition(Q, k)
                assert by_key == by_triple
        assert census_in_p_indices(P, range(len(P)), rich_threshold=2) \
            == brute_force_census(P, rich_threshold=2)

    @pytest.mark.parametrize("span", [2, 3, 7, 8, 1000, 2 ** 30 - 1, 2 ** 30, 2 ** 30 + 1,
                                      2 ** 31 - 1, 2 ** 31, 2 ** 70 - 1, 2 ** 70])
    @pytest.mark.parametrize("offset", [0, -2 ** 70])
    def test_farey_neighbours_at_the_largest_span(self, span, offset):
        """Two slopes 1/(q*q') apart over the full span get distinct keys,
        and the census tells their lines apart.  S = 2 * bitlen(span(Y)), so
        at span = 2^k - 1 the lifted slopes are 2^S / (q*q') > 1 apart, barely.
        With 30-bit int digits, the spans 2^30 - 1, 2^30 and 2^30 + 1 lie on
        both sides of the shear's gate: only 2^30 - 1 fits in one digit, and
        the smaller spans have one-digit dividends."""
        P = farey_neighbours(span, offset)
        (x0, y0), (x1, y1), (x2, y2) = [(p.x - offset, p.y - offset) for p in P[:3]]
        assert abs(x1 * (y0 - y2) - x2 * (y0 - y1)) == 1
        shift, sheared = lift_of(P)
        assert shift == 2 * span.bit_length()
        if BITS_PER_DIGIT == 30:
            assert sheared == (span == 2 ** 30 - 1)
        for k in range(len(P)):
            by_key, by_triple = line_partition(P, k)
            assert by_key == by_triple
        assert census_in_p_indices(P, range(len(P)), rich_threshold=2) \
            == brute_force_census(P, rich_threshold=2)

    # integer sets whose lift is sheared: span(Y) below 2^29, span(X)
    # above 2^30, negative coordinates and offsets of up to 2^70.  The
    # affine images of small sets keep their many collinear triples
    offsets = st.sampled_from([0, 2 ** 70, -2 ** 70]) | st.integers(-10 ** 9, 10 ** 9)
    stretched = st.builds(
        lambda pts, a, b, dx, dy: {(a * x + dx, b * y + dy) for x, y in pts},
        st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=24),
        st.integers(2 ** 30, 2 ** 50) | st.integers(-2 ** 50, -2 ** 30),
        st.integers(1, 2 ** 24) | st.integers(-2 ** 24, -1), offsets, offsets)
    scattered = st.builds(  # (2^41, 0) keeps span(X) above 2^40
        lambda pts, dx, dy: {(x + dx, y + dy) for x, y in pts | {(2 ** 41, 0)}},
        st.sets(st.tuples(st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 28, 2 ** 28)),
                min_size=3, max_size=24),
        offsets, offsets)

    @given(stretched | scattered)
    @settings(max_examples=200, deadline=None)
    def test_sheared_keys(self, coords):
        """Every dividend the census divides is positive, every key is the
        unsheared key plus L, and the keys still partition the points by
        their lines."""
        P = PointSet.of(sorted(coords))
        pts, _, _ = P.scaled_ints
        if len({x for x, _ in pts}) == 1:  # span(X) = 0: one vertical line
            return
        assert lift_of(P)[1]
        (lifted, level, sweep), (plain, plain_level, plain_sweep) = P.lifted, unsheared_lift(P)
        assert level == 2 * plain_level
        order = sorted(range(len(P)), key=sweep.__getitem__)
        assert order == sorted(range(len(P)), key=plain_sweep.__getitem__)
        for r, u in enumerate(order):
            x0, below = lifted[u][0], [k for k in order[r + 1:] if pts[k][1] < pts[u][1]]
            assert all(lifted[k][0] - x0 > 0 for k in below)
            assert _slope_keys(lifted[u], [lifted[k] for k in below]) \
                == [key + plain_level for key in _slope_keys(plain[u], [plain[k] for k in below])]
        for k in range(len(P)):
            by_key, by_triple = line_partition(P, k)
            assert by_key == by_triple
        assert census_in_p_indices(P, range(len(P)), rich_threshold=2) \
            == brute_force_census(P, rich_threshold=2)

    @pytest.mark.parametrize("P", [
        parse_points(io.StringIO((Path(__file__).parent / "data" / "projection.txt").read_text())),
        # as the benchmark's bounds-projection input is made
        gen_projection_augmented(gen_random(13, 10 ** 5, 7), CanonicalLine.of(1, -13577, 10 ** 9 + 7)),
        # a sheared base: span(Y) = 3, span(X) = 2^40
        gen_projection_augmented(PointSet.of([(0, 0), (2 ** 40, 1), (5, 3), (2 ** 39, 2)]),
                                 CanonicalLine.of(1, -7, 3)),
    ], ids=["golden-input", "bounds-projection", "sheared-base"])
    def test_multi_digit_spans_are_not_sheared(self, P):
        """The projection sets' scaled spans take many int digits, so the
        integer set of their scaled coordinates is not sheared; the sets
        themselves are rational, so they take the homogeneous lift."""
        pts, _, _ = P.scaled_ints
        assert (max(y for _, y in pts) - min(y for _, y in pts)).bit_length() > BITS_PER_DIGIT
        scaled = PointSet.of(pts)
        assert scaled.lifted == unsheared_lift(scaled)
        assert lift_kind(scaled) == "plain"
        assert lift_kind(P) == "homogeneous"

    def test_rows_with_and_without_a_repeated_normal(self, monkeypatch):
        """A random set plus a 5-point line: the line's first three points
        in sweep order see a repeated key, most rows do not."""
        P = PointSet.of(list(gen_random(40, 10 ** 6, 2))
                        + [(10 ** 7 + 3 * t, 5 - 2 * t) for t in range(5)])
        counters = []

        class CountingCounter(Counter):
            def __init__(self, *args):
                counters.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ordtri.incidence, "Counter", CountingCounter)
        for asks in CENSUS_ASKS:
            counters.clear()
            assert census_in_p_indices(P, range(len(P)), **asks) == brute_force_census(P, **asks)
            rows_counted = [args for args in counters if args]  # the histogram starts empty
            assert 3 <= len(rows_counted) < len(P) - 1
        census = line_census(P, top=True)
        assert census.members[census.top] == tuple(range(40, 45))


def projection_set(base_n, seed):
    """A base of base_n random points and its meets with a random generic
    line, as the benchmark makes its bounds-projection input."""
    rng = random.Random(seed)
    base = gen_random(base_n, 10 ** 5, rng.randrange(2 ** 32))
    while True:
        ell = CanonicalLine.of(1, -rng.randrange(10 ** 4, 10 ** 5), rng.randrange(10 ** 9, 10 ** 10))
        try:
            return gen_projection_augmented(base, ell)
        except ValueError:  # not generic for this base
            continue


def gate_set(side):
    """The CI's set on either side of the shear's gate: three 5-point lines
    and two more points, over a Y span of 2^30 + side."""
    span = 2 ** 30 + side
    lo = -(span // 2)
    mid = lo + span // 2
    pts = {(-5, lo), (7, lo + span)}
    for a, b, x0 in ((3, span // 8, -40), (-2, span // 6, 11), (1, -(span // 5), -3)):
        pts |= {(x0 + a * t, mid + b * (t - 2)) for t in range(5)}
    return PointSet.of(sorted(pts))


class TestLifts:
    """One kernel, three lifts: forced on the same set, each lift gives the
    same sweep order, the census the same histogram, H, top line and
    members, the rich-line search the same ordinary line, and the
    poor-graph listing the same triangles."""

    @staticmethod
    def reports(P, rich_threshold):
        out = []
        for kind in LIFTS:
            Q = with_lift(P, kind)
            census = line_census(Q, rich_threshold=rich_threshold, top=True)
            try:
                ordinary = find_ordinary_line(Q)
            except SylvesterGallaiError as exc:
                ordinary = str(exc)
            order = sorted(range(len(Q)), key=Q.lifted[2].__getitem__)
            out.append((census.count_by_mult, census.rich, census.top, census.members, ordinary,
                        order, find_case_poor_graph(Q, census, rich_threshold)))
        return out

    rationals = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 7, 11, 13]))
    # a small grid under a rational scale and offset, plus rational points:
    # lines of 3 to 5 points, so H has edges at threshold 2
    grids = st.builds(
        lambda g, scale, dx, dy, extra: {(scale * x + dx, scale * y + dy)
                                         for x in range(g) for y in range(g)} | extra,
        st.integers(3, 5), rationals.filter(bool), rationals, rationals,
        st.sets(st.tuples(rationals, rationals), max_size=6))

    @given(st.sets(st.tuples(rationals, rationals), min_size=2, max_size=24) | grids)
    @settings(max_examples=150, deadline=None)
    def test_rational_sets(self, coords):
        P = PointSet.of(sorted(coords))
        plain, sheared, homogeneous = self.reports(P, 2)
        assert plain == sheared == homogeneous
        assert census_in_p_indices(P, range(len(P)), rich_threshold=2) \
            == brute_force_census(P, rich_threshold=2)

    @pytest.mark.parametrize("base_n", [5, 8, 12, 16, 20])
    def test_projection_sets(self, base_n):
        P = projection_set(base_n, base_n)
        plain, sheared, homogeneous = self.reports(P, 3)
        assert plain == sheared == homogeneous
        # ell holds every meet, one per base line unless two lines meet it at one point
        count_by_mult, rich, top, members, _, _, _ = homogeneous
        assert len(members[top]) == len(P) - base_n == max(count_by_mult)
        assert sum(bits.bit_count() for bits in rich) == len(members[top]) * (len(members[top]) - 1)
        if base_n <= 12:
            assert census_in_p_indices(P, range(len(P)), rich_threshold=3, top=True) \
                == brute_force_census(P, rich_threshold=3, top=True)

    @pytest.mark.parametrize("side", [-1, 1], ids=["sheared", "not-sheared"])
    def test_gate_sets(self, side):
        P = gate_set(side)
        if BITS_PER_DIGIT == 30:
            assert lift_kind(P) == ("sheared" if side < 0 else "plain")
        plain, sheared, homogeneous = self.reports(P, 3)
        assert plain == sheared == homogeneous
        assert census_in_p_indices(P, range(len(P)), rich_threshold=3, top=True) \
            == brute_force_census(P, rich_threshold=3, top=True)

    @pytest.mark.parametrize("P", [
        projection_set(5, 5), projection_set(13, 13),
        PointSet.of([(0, 0), ("1/2", "1/3"), (2, "5/7"), (-1, 3)]),
        PointSet.of([(0, 0), (1, "1/2"), (3, 5)]),
    ], ids=["projection-5", "projection-13", "rational", "one-half"])
    def test_rational_input_takes_the_homogeneous_lift(self, P):
        assert lift_kind(P) == "homogeneous"


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
        # no package module may grow a Fraction incidence test again
        for module in (ordtri.geom, ordtri.incidence):
            monkeypatch.setattr(module, "incident", refuse, raising=False)
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


def centre_first(m):
    """The m x m grid (m odd) with its centre moved to index 0: every line
    through the centre holds a third point, so the first row of the
    ordinary-line search finds no ordinary pair."""
    P = gen_grid(m)
    centre = point(m // 2, m // 2)
    return PointSet((centre,) + tuple(p for p in P if p != centre))


def off_top_line(P):
    census = line_census(P, top=True)
    on = set(census.members[census.top])
    return [i for i in range(len(P)) if i not in on]


class TestFindOrdinaryLine:
    def test_unit_triangle_deterministic(self):
        l, q, r = find_ordinary_line(UNIT_TRIANGLE)
        assert (l, q, r) == (line_through(UNIT_TRIANGLE[0], UNIT_TRIANGLE[1]), 0, 1)

    def test_grid3(self):
        l, q, r = find_ordinary_line(GRID3)
        assert points_on_line(GRID3, l) == [q, r]

    def test_near_collinear(self):
        P = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1)])
        l, q, r = find_ordinary_line(P)
        assert points_on_line(P, l) == [q, r]

    @pytest.mark.parametrize("P, off_top", [
        *((gen_random(n, bound, seed), False)
          for n, bound, seed in [(12, 12, 1), (30, 30, 2), (40, 10 ** 6, 3), (25, 25, 4)]),
        *((gen_grid(m), False) for m in (3, 4, 5, 6)),
        *((gen_cubic_progression(m), False) for m in (2, 3, 4, 5)),
        (gen_projection_augmented(gen_grid(3), CanonicalLine.of(1, -7, 100)), False),
        (gen_projection_augmented(PointSet.of([(0, 0), ("1/2", "1/3"), (2, "5/7"), (-1, 3)]),
                                  CanonicalLine.of(3, -2, 1)), False),
        (gen_rich_line_plus(12, [(0, 1), (1, 2), (3, 7), (5, -2)]), True),
        (gen_rich_line_plus(9, [(0, j) for j in range(1, 8)] + [(1, 1)]), True),
        (gen_rich_line_plus(14, [(0, 1), (1, 1), (2, 1), (1, 2), (3, "1/2")]), True),
        (centre_first(7), False), (centre_first(5), False),
        (RATIONAL_TOP_TIE, False), (RATIONAL_ORDINARY_TIE, False),
    ])
    def test_matches_first_ordinary_pair(self, P, off_top):
        indices = off_top_line(P) if off_top else None
        assert find_ordinary_line(P, indices) == first_ordinary_pair(P, indices)

    def test_skips_a_line_noted_by_an_earlier_row(self):
        # (3, 3), (0, 1) and (6, 5) are the only grid points on their line:
        # row 0 notes it, and row 1 sees it first, as a group of one point
        first = [(3, 3), (0, 1), (6, 5)]
        P = PointSet.of(first + [(x, y) for x in range(7) for y in range(7)
                                 if (x, y) not in first])
        l, i, j = find_ordinary_line(P)
        assert (l, i, j) == first_ordinary_pair(P) and (i, j) != (1, 2)

    def test_collinear_remainder_rejected(self):
        P = PointSet.of([(i, 0) for i in range(6)] + [(0, 1), (1, 1), (2, 1)])
        with pytest.raises(SylvesterGallaiError, match="collinear"):
            find_ordinary_line(P, off_top_line(P))

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

    # point-file tokens and the exact values they stand for: signed and
    # zero-padded tokens, unreduced p/q, zero in three spellings, 71-bit
    # integers and a 79-bit numerator over 2^80
    TOKENS = ["3", "2/4", "-6/3", "0/5", "-00012/0008", "+0", "-0",
              str(2 ** 70), str(-2 ** 70), f"{2 ** 79 - 1}/{2 ** 80}"]

    def test_every_constructor_makes_the_same_rows(self):
        pairs = [(self.TOKENS[i], self.TOKENS[i - 3]) for i in range(len(self.TOKENS))]
        exact = [(Fraction(x), Fraction(y)) for x, y in pairs]
        built = [parse_points(io.StringIO("".join(f"{x} {y}\n" for x, y in pairs))),
                 # ints where the value is one: the row is made without a Fraction
                 PointSet.of([tuple(v.numerator if v.denominator == 1 else v for v in xy)
                              for xy in exact]),
                 PointSet(tuple(point(*xy) for xy in exact))]
        rows = tuple((x.numerator, x.denominator, y.numerator, y.denominator) for x, y in exact)
        # the Fraction walk PointSet made before it held rows
        sx, sy = lcm(*(x.denominator for x, _ in exact)), lcm(*(y.denominator for _, y in exact))
        scaled = [(int(x * sx), int(y * sy)) for x, y in exact]
        homogeneous = [(int(x * w), int(y * w), w)
                       for x, y in exact for w in [lcm(x.denominator, y.denominator)]]
        text = "".join(f"{x} {y}\n" for x, y in exact)
        first = built[0]
        for P in built:
            assert P == first and hash(P) == hash(first)
            assert P.rows == rows and P.points == tuple(exact)
            assert all(type(v) is Fraction for p in P.points for v in p)
            assert P.scaled_ints == (scaled, sx, sy)
            assert P.homogeneous == homogeneous
            assert P.lifted == first.lifted
            assert format_points(P) == text
        assert parse_points(io.StringIO(text)) == first

    # coordinates are exact: a float, a decimal or a string outside the
    # point-file grammar is refused, not rationalized, and a line triple is
    # ints (bools are ints)
    @pytest.mark.parametrize("build, error", [
        *((lambda v=v: PointSet.of([(v, 0)]), ValueError)
          for v in (0.1, Decimal("0.1"), "1.5", "1e3", " 3 ")),
        *((lambda v=v: CanonicalLine.of(v, 1, 2), TypeError)
          for v in (0.5, Fraction(1, 2), "1/2")),
    ], ids=["float", "decimal", "decimal-string", "exponent", "spaces",
            "line-float", "line-fraction", "line-string"])
    def test_non_rational_coordinates_are_refused(self, build, error):
        with pytest.raises(error):
            build()

    def test_every_constructor_reports_a_duplicate_alike(self):
        # (-6/3, 0/5) and (-2, -0) are one point
        with pytest.raises(PointFileError) as info:
            parse_points(io.StringIO("-6/3 0/5\n1 2\n-2 -0\n1 2 # again\n"))
        assert str(info.value) == "duplicate points: line 3 repeats line 1; line 4 repeats line 2"
        for make in (lambda: PointSet.of([("-6/3", "0/5"), (1, 2), (-2, 0)]),
                     lambda: PointSet.of([(Fraction(-6, 3), 0), (1, 2), (-2, Fraction(0, 5))]),
                     lambda: PointSet((point("-6/3", "0/5"), point(1, 2), point(-2, "-0")))):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == ("duplicate point at indices 0 and 2: "
                                       "Point(x=Fraction(-2, 1), y=Fraction(0, 1))")

    # parse_points names the line of a bad coordinate only once one fails;
    # PointSet.of names the point
    @pytest.mark.parametrize("make, message", [
        (lambda: parse_points(io.StringIO("0 0\n# note\n\n1 1.5\n")),
         "line 4: bad coordinate '1.5' (integer or p/q rational required)"),
        (lambda: parse_points(io.StringIO("1 2\n3/0 1 # zero denominator\n")),
         "line 2: bad coordinate '3/0' (integer or p/q rational required)"),
        (lambda: PointSet.of([(0, "1e3")]),
         "point: bad coordinate '1e3' (integer or p/q rational required)"),
    ], ids=["second-token", "first-token", "point"])
    def test_bad_coordinate_messages(self, make, message):
        with pytest.raises(PointFileError) as info:
            make()
        assert str(info.value) == message
