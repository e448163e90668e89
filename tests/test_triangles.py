import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtri.geom import CanonicalLine
import ordtri.incidence
import ordtri.richline
import ordtri.triangles
from ordtri.incidence import DegeneracyTag, InvariantError, PointSet, line_census
from ordtri.richline import RichCasePreconditionError, find_case_rich_line
from ordtri.triangles import (
    CaseTaken,
    Constants,
    build_poor_graph,
    count_c_ordinary,
    exceeds_alpha_n,
    find_c_ordinary,
    find_case_poor_graph,
    poor_graph_size,
)
from ordtri.generators import (
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from reference import (
    PoorGraph,
    count_triangles,
    enumerate_all_c_ordinary,
    enumerate_lines,
    first_ordinary_pair,
    incident,
    line_through,
    orientation,
    point,
    points_on_line,
    top_line,
    validate_c_ordinary,
    with_lift,
)

GRID3 = gen_grid(3)
GRID3_PROFILE = enumerate_lines(GRID3)
UNIT_TRIANGLE = PointSet.of([(0, 0), (1, 0), (0, 1)])


def slow_oracle(P, c):
    """Definition transcribed literally: triple loop, no shared machinery."""
    prof = enumerate_lines(P)
    found = []
    for i, j, k in itertools.combinations(range(len(P)), 3):
        p, q, r = P[i], P[j], P[k]
        if orientation(p, q, r) == 0:
            continue
        if all(prof.entries[line_through(u, v)] <= c
               for u, v in ((p, q), (p, r), (q, r))):
            found.append((i, j, k))
    return found


class TestValidate:
    def test_unit_triangle(self):
        prof = enumerate_lines(UNIT_TRIANGLE)
        assert validate_c_ordinary(UNIT_TRIANGLE, prof, (0, 1, 2), 2)

    def test_collinear_triple_rejected(self):
        idx = (0, 1, 2)  # (0,0), (1,0), (2,0) in the grid row-major order
        assert orientation(GRID3[0], GRID3[1], GRID3[2]) == 0
        assert not validate_c_ordinary(GRID3, GRID3_PROFILE, idx, 100)

    def test_grid_threshold_sensitivity(self):
        # (0,0), (2,2), (1,0): the diagonal and the x-axis both hold 3 points
        triple = (GRID3.points.index(point(0, 0)), GRID3.points.index(point(2, 2)),
                  GRID3.points.index(point(1, 0)))
        assert not validate_c_ordinary(GRID3, GRID3_PROFILE, triple, 2)
        assert validate_c_ordinary(GRID3, GRID3_PROFILE, triple, 3)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            validate_c_ordinary(GRID3, GRID3_PROFILE, (0, 0, 1), 3)
        with pytest.raises(ValueError):
            validate_c_ordinary(GRID3, GRID3_PROFILE, (0, 1, 99), 3)


class TestOracle:
    def test_unit_triangle(self):
        assert enumerate_all_c_ordinary(UNIT_TRIANGLE, 2) == (1, [(0, 1, 2)])

    def test_collinear_points(self):
        P = PointSet.of([(i, 0) for i in range(4)])
        assert enumerate_all_c_ordinary(P, 100)[0] == 0

    def test_projection_construction_kills_2_ordinary(self):
        aug = gen_projection_augmented(UNIT_TRIANGLE, CanonicalLine.of(1, -1, 5))
        assert enumerate_all_c_ordinary(aug, 2)[0] == 0

    def test_limit_truncates_list_not_count(self):
        count, tris = enumerate_all_c_ordinary(GRID3, 3, limit=5)
        full_count, full = enumerate_all_c_ordinary(GRID3, 3)
        assert count == full_count and tris == full[:5]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            enumerate_all_c_ordinary(GRID3, 3, limit=-1)

    @pytest.mark.parametrize("seed,c", [(s, c) for s in range(4) for c in (3, 5)])
    def test_matches_literal_definition(self, seed, c):
        P = gen_random(16, 18, seed)
        count, tris = enumerate_all_c_ordinary(P, c)
        expected = slow_oracle(P, c)
        assert tris == expected and count == len(expected)


class TestPoorGraph:
    def test_unit_triangle_k3(self):
        census = line_census(UNIT_TRIANGLE, rich_threshold=2)
        g = PoorGraph.of(build_poor_graph(UNIT_TRIANGLE, census, 2))
        assert g.edge_count == 3

    def test_collinear_triple_keeps_edges(self):
        P = PointSet.of([(0, 0), (1, 0), (2, 0)])
        g = PoorGraph.of(build_poor_graph(P, line_census(P, rich_threshold=3), 3))
        assert g.edge_count == 3  # triangle exists in G, filtered later

    def test_grid_c2_edges(self):
        g = PoorGraph.of(build_poor_graph(GRID3, line_census(GRID3, rich_threshold=2), 2))
        assert g.edge_count == 12

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_identity(self, seed):
        P = gen_random(25, 30, seed)
        prof = enumerate_lines(P)
        for c in (2, 3, 5):
            g = PoorGraph.of(build_poor_graph(P, line_census(P, rich_threshold=c), c))
            assert g.edge_count == sum(comb(l, 2) for l in prof.entries.values() if l <= c)

    def test_poor_path_equals_oracle(self):
        for seed in range(6):
            P = gen_random(50, 10 ** 6, seed)
            tris, count = find_case_poor_graph(P, line_census(P, rich_threshold=3), 3)
            oracle_count, oracle = enumerate_all_c_ordinary(P, 3)
            assert count == oracle_count and tris == oracle

    def test_collinear_filter_bound(self):
        P = gen_random(40, 45, 11)
        prof = enumerate_lines(P)
        for c in (3, 5):
            census = line_census(P, rich_threshold=c)
            g = PoorGraph.of(build_poor_graph(P, census, c))
            _, kept = find_case_poor_graph(P, census, c)
            filtered = count_triangles(g) - kept
            assert filtered <= sum(comb(l, 3) for l in prof.entries.values() if l <= c)

    def test_census_of_another_set_or_threshold_rejected(self):
        for census in (line_census(gen_grid(4), rich_threshold=3),
                       line_census(GRID3, rich_threshold=2), line_census(GRID3)):
            with pytest.raises(ValueError):
                build_poor_graph(GRID3, census, 3)
            with pytest.raises(ValueError):
                find_case_poor_graph(GRID3, census, 3)

    def test_limit_lists_a_prefix_and_counts_all(self):
        P = gen_grid(5)
        census = line_census(P, rich_threshold=3)
        full, count = find_case_poor_graph(P, census, 3)
        assert count == len(full) == enumerate_all_c_ordinary(P, 3)[0]
        for limit in (0, 1, 7, count, count + 5):
            assert find_case_poor_graph(P, census, 3, limit) == (full[:limit], count)

    def test_full_listing_cross_checks_the_counter(self, monkeypatch):
        import ordtri.triangles
        P = gen_grid(4)
        census = line_census(P, rich_threshold=3)
        real = count_c_ordinary(P, 3, census)
        monkeypatch.setattr(ordtri.triangles, "count_c_ordinary", lambda *args: real + 1)
        with pytest.raises(InvariantError, match="listed"):
            find_case_poor_graph(P, census, 3)
        with pytest.raises(InvariantError, match="listed"):
            find_case_poor_graph(P, census, 3, limit=real + 2)
        tris, count = find_case_poor_graph(P, census, 3, limit=4)  # stopped early
        assert len(tris) == 4 and count == real + 1

    def test_exhaustive_find_builds_h_once(self, monkeypatch):
        # the listing's G and the count both come from the census's H, whose
        # build checks every point of a rich group on the group's line: a
        # slope key shared by the mirror slopes t and -t puts the points of
        # two lines in one group, which the census refuses.  The fault folds
        # every key about the key of a vertical line (points 0 and 6): 0 on
        # the 6x6 grid, and L on the grid stretched along x, whose lift is
        # sheared (PointSet.lifted) so that every key is positive; 0 again
        # on the grid under the homogeneous lift, the triples (X, Y, W)
        real = ordtri.incidence._slope_keys
        grid = gen_grid(6)
        for P in (grid, PointSet.of([(x << 25, y) for x, _, y, _ in grid.rows]),
                  with_lift(grid, "homogeneous")):
            rep = find_c_ordinary(P, 3, mode="exhaustive")
            assert rep.count == len(rep.triangles) == enumerate_all_c_ordinary(P, 3)[0]
            lifted = P.lifted[0]
            vertical = real(lifted[6], [lifted[0]])[0]
            monkeypatch.setattr(ordtri.incidence, "_slope_keys", lambda *args: [
                vertical + abs(key - vertical) for key in real(*args)])
            with pytest.raises(InvariantError, match="is grouped on the line through"):
                find_c_ordinary(P, 3, mode="exhaustive")
            monkeypatch.setattr(ordtri.incidence, "_slope_keys", real)


def brute_poor_adjacency(P):
    """For each point, its neighbours in G for every c: the multiplicity of
    each pair's line by an O(n) collinearity scan, from the definition."""
    n = len(P)
    mult = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        mult[i][j] = mult[j][i] = sum(1 for k in range(n)
                                      if orientation(P[i], P[j], P[k]) == 0)
    return lambda c: tuple(tuple(j for j in range(n) if j != i and mult[i][j] <= c)
                           for i in range(n))


class TestCensusPoorGraph:
    """The census-built G and its census-read size against the definition."""

    @pytest.mark.parametrize("P", [
        *(gen_grid(g) for g in range(3, 9)),
        *(gen_cubic_progression(m) for m in range(2, 6)),
        gen_projection_augmented(GRID3, CanonicalLine.of(1, -7, 100)),
        gen_projection_augmented(gen_random(6, 10 ** 5, 1000),
                                 CanonicalLine.of(1, -12345, 6789012345)),
        gen_random(30, 35, 1), gen_random(40, 10 ** 6, 2),
        gen_two_line_union(4, 5),
        gen_rich_line_plus(12, [(0, 1), (1, 2), (3, 7)]),
        PointSet.of([(0, 0), (1, 1)]),
    ])
    def test_equals_brute_force(self, P):
        adjacency = brute_poor_adjacency(P)
        for c in (2, 3, 4, 5, 12000):
            census = line_census(P, rich_threshold=c)
            g = PoorGraph.of(build_poor_graph(P, census, c))
            assert g.adj == adjacency(c), c
            assert poor_graph_size(P, c, census) == (g.edge_count, count_triangles(g)), c

    @pytest.mark.parametrize("P", [
        *(gen_grid(g) for g in range(9, 17)),
        gen_cubic_progression(20),
        gen_projection_augmented(gen_grid(4), CanonicalLine.of(1, -7, 100)),
        gen_projection_augmented(gen_random(13, 10 ** 5, 7),
                                 CanonicalLine.of(1, -12345, 6789012345)),
        gen_random(300, 10 ** 9, 5),  # no three collinear: r = 0 at every c
    ])
    def test_count_equals_poor_graph_triangles(self, P):
        # the other exact formula, T(G) less the collinear poor triples, as
        # the reference at sizes the O(n^3) oracle does not reach
        for c in (2, 3, 4, 8, 11):
            census = line_census(P, rich_threshold=c)
            collinear = sum(comb(l, 3) * k for l, k in census.count_by_mult.items() if l <= c)
            g = PoorGraph.of(build_poor_graph(P, census, c))
            assert count_c_ordinary(P, c, census) + collinear == count_triangles(g), c


RICH_EXAMPLE = gen_rich_line_plus(10, [(0, 1), (1, 1), (2, 3)])


def profile_rich_case(P, c):
    """The rich-line path spelled out on the full line profile: the census's
    top line (top_line), the ordinary line of the points off it through
    their first index pair, and the apexes excluded by the profile."""
    prof = enumerate_lines(P)
    line = top_line(P, prof)
    on = points_on_line(P, line)
    _, qi, ri = first_ordinary_pair(P, [i for i in range(len(P)) if i not in on])
    q, r = P[qi], P[ri]
    too_rich = {i for i in on for apex in (q, r)
                if prof.entries[line_through(P[i], apex)] > c}
    crossing = {i for i in on if orientation(P[i], q, r) == 0}
    return line, q, r, too_rich, too_rich | crossing


def witness_points(P, witness):
    """The points q and r of a rich-line witness, once its q and r are
    checked to be int indices into P of two points off its rich line."""
    for i in (witness.q, witness.r):
        assert type(i) is int and 0 <= i < len(P)
        assert not incident(witness.rich_line, P[i])
    return P[witness.q], P[witness.r]


class TestRichCase:
    def test_example_instance(self):
        prof = enumerate_lines(RICH_EXAMPLE)
        x_axis = CanonicalLine(0, 1, 0)
        witness, tris = find_case_rich_line(RICH_EXAMPLE, line_census(RICH_EXAMPLE, 10, top=True), 10)
        assert witness.rich_line == x_axis
        assert len(tris) >= 4  # ceil(10/2) - 1
        assert all(validate_c_ordinary(RICH_EXAMPLE, prof, t, 10) for t in tris)
        oracle = set(map(tuple, enumerate_all_c_ordinary(RICH_EXAMPLE, 10)[1]))
        assert set(map(tuple, tris)) <= oracle

    def test_exclusion_bounds(self):
        prof = enumerate_lines(RICH_EXAMPLE)
        witness, _ = find_case_rich_line(RICH_EXAMPLE, line_census(RICH_EXAMPLE, 10, top=True), 10)
        assert witness.rich_line == CanonicalLine(0, 1, 0)
        l = prof.entries[CanonicalLine(0, 1, 0)]
        assert len(witness.excluded - witness.survivors) <= l
        assert witness.guarantee == (l + 1) // 2 - 1

    def test_collinear_remainder_rejected(self):
        P = gen_rich_line_plus(10, [(0, 1), (1, 1)])  # remainder is 2 points
        with pytest.raises(RichCasePreconditionError):
            find_case_rich_line(P, line_census(P, 10, top=True), 10)

    def test_not_rich_rejected(self):
        census = line_census(GRID3, top=True)  # top: a 3-point row of the grid
        assert len(census.members[census.top]) == 3
        with pytest.raises(RichCasePreconditionError):
            find_case_rich_line(GRID3, census, 3)

    def test_census_without_top_rejected(self):
        with pytest.raises(RichCasePreconditionError):
            find_case_rich_line(RICH_EXAMPLE, line_census(RICH_EXAMPLE), 10)

    def test_witness_points_come_from_their_rows(self):
        # q and r are P-indices, which the report formats from their rows:
        # the n-point view of Fractions is never built
        P = PointSet.of([(x, 0) for x in range(10)] + [(0, 1), (1, 2), (3, 7), (-4, 5)])
        witness, _ = find_case_rich_line(P, line_census(P, 10, top=True), 10)
        assert "points" not in vars(P)
        assert (witness.q, witness.r) == (10, 11)
        assert witness_points(P, witness) == (point(0, 1), point(1, 2))

    def test_survivors_never_collinear_with_qr(self):
        witness, tris = find_case_rich_line(RICH_EXAMPLE, line_census(RICH_EXAMPLE, 10, top=True), 10)
        for s in witness.survivors:
            assert orientation(RICH_EXAMPLE[s], *witness_points(RICH_EXAMPLE, witness)) != 0

    def test_apex_on_too_rich_line_excluded(self):
        # x = 0 holds (0, 0) and seven extras: 8 points > c = 7 through q = (0, 1)
        P = gen_rich_line_plus(9, [(0, j) for j in range(1, 8)] + [(1, 1)])
        witness, tris = find_case_rich_line(P, line_census(P, 7, top=True), 7)
        assert witness_points(P, witness) == (point(0, 1), point(1, 1))
        assert witness.excluded == {0} and 0 not in witness.survivors
        assert len(tris) == 8

    # a finder that returns a pair on a line of many points, or a census
    # whose top line lists the wrong members, trips each check in turn; the
    # crossing check is implied by the first, so only members that hold q
    # and r, on their own 2-point line, trip it alone
    @pytest.mark.parametrize("P, members, c, qi, ri, message", [
        (RICH_EXAMPLE, None, 10, 0, 1, "extra points"),
        (RICH_EXAMPLE, tuple(range(12)), 10, 10, 11, "twice"),
        (PointSet.of([(0, j) for j in range(6)] + [(1, 0)]), (0, 1, 2, 3, 4), 5, 5, 6,
         "reach l/4"),
        (gen_rich_line_plus(4, [(0, 1), (0, 2), (1, 1)]), (0,), 100, 4, 5, "survivors"),
    ], ids=["qr-line-holds-4", "crossing-twice", "exclusions-reach-l/4", "no-survivor"])
    def test_checks_raise_invariant_error(self, monkeypatch, P, members, c, qi, ri, message):
        census = line_census(P, c, top=True)
        if members is not None:
            census = census._replace(members={census.top: members})
        monkeypatch.setattr(ordtri.richline, "find_ordinary_line",
                            lambda P, indices: (None, qi, ri))
        with pytest.raises(InvariantError, match=message):
            find_case_rich_line(P, census, c)

    def test_census_at_another_threshold_rejected(self):
        with pytest.raises(ValueError, match="rich_threshold=10"):
            find_case_rich_line(RICH_EXAMPLE, line_census(RICH_EXAMPLE, 9, top=True), 10)

    def test_matches_profile_definition(self):
        rng = random.Random(5)
        checked = with_too_rich = 0
        for _ in range(300):
            x0 = rng.randrange(-2, 6)
            extras = {(x0, j) for j in range(1, rng.randrange(2, 9))} | \
                {(rng.randrange(-3, 7), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 4))}
            try:
                P = gen_rich_line_plus(rng.randrange(4, 16), sorted(extras))
            except ValueError:  # extras collinear
                continue
            c = rng.randrange(3, 10)
            try:
                witness, _ = find_case_rich_line(P, line_census(P, c, top=True), c)
            except RichCasePreconditionError:
                continue
            line, q, r, too_rich, excluded = profile_rich_case(P, c)
            assert (witness.rich_line, *witness_points(P, witness)) == (line, q, r)
            assert witness.excluded == excluded
            checked += 1
            with_too_rich += bool(too_rich)
        assert checked >= 100 and with_too_rich >= 2


class TestCountOnly:
    @pytest.mark.parametrize("seed,c", [(s, c) for s in range(6) for c in (3, 5, 10)])
    def test_equals_oracle_random(self, seed, c):
        P = gen_random(35, 40, seed)  # dense: plenty of rich lines for small c
        assert count_c_ordinary(P, c) == enumerate_all_c_ordinary(P, c)[0]

    @pytest.mark.parametrize("P", [
        GRID3, gen_grid(5), gen_cubic_progression(6),
        gen_two_line_union(4, 4), gen_rich_line_plus(12, [(0, 1), (1, 2), (3, 7)]),
        PointSet.of([(i, 0) for i in range(8)]),
        gen_grid(4), gen_grid(6), gen_grid(7), gen_grid(8),
        *(gen_cubic_progression(m) for m in range(2, 6)),
    ])
    def test_equals_oracle_families(self, P):
        for c in (3, 4, 5):
            assert count_c_ordinary(P, c) == enumerate_all_c_ordinary(P, c)[0]

    @pytest.mark.parametrize("c", [1, 0, -1])
    def test_every_line_rich_counts_zero_without_a_census(self, monkeypatch, c):
        # at c <= 1 every pair is on a rich line; the census refuses such a
        # threshold, and the counter needs none
        calls = []
        monkeypatch.setattr(ordtri.triangles, "line_census",
                            lambda *args, **kwargs: calls.append(args))
        assert count_c_ordinary(gen_grid(4), c) == 0
        assert calls == []
        with pytest.raises(ValueError, match="rich_threshold must be >= 2"):
            line_census(gen_grid(4), rich_threshold=c)

    def test_cross_line_rich_triangles(self):
        # three long lines forming a triangle of mutual intersection points
        pts = {(t, 0) for t in range(7)} | {(0, t) for t in range(1, 7)} \
            | {(t, 6 - t) for t in range(1, 6)} | {(1, 1), (2, 3)}
        P = PointSet.of(sorted(pts))
        for c in (3, 4, 5):
            assert count_c_ordinary(P, c) == enumerate_all_c_ordinary(P, c)[0]

    def test_concurrent_rich_lines(self):
        # a row, a column and both diagonals through the origin, each with at
        # least 5 points: rich and concurrent there at c = 3 and at c = 4
        pts = {(0, 0)} | {(t, 0) for t in range(1, 5)} | {(0, t) for t in range(1, 5)} \
            | {(t, t) for t in range(1, 5)} | {(t, -t) for t in range(1, 5)} \
            | {(t, 5) for t in range(-3, 1)} | {(-5, t) for t in range(-3, 1)} \
            | {(2, 7), (3, 9), (-4, 6)}
        P = PointSet.of(sorted(pts))
        census = line_census(P, rich_threshold=3)
        origin = P.points.index(point(0, 0))
        through_origin = {line_through(P[origin], P[j]) for j in range(len(P))
                          if census.rich[origin] >> j & 1}
        assert len(through_origin) >= 3
        for c in (3, 4):
            census = line_census(P, rich_threshold=c)
            assert count_c_ordinary(P, c, census) == enumerate_all_c_ordinary(P, c)[0]

    def test_grid12_golden_without_line_intersection(self, monkeypatch):
        def no_intersect(*args):
            raise AssertionError("count_c_ordinary must not intersect lines")
        import ordtri.geom
        import ordtri.triangles
        # no package module may grow a Fraction intersection again
        for module in (ordtri.geom, ordtri.triangles):
            monkeypatch.setattr(module, "intersect", no_intersect, raising=False)
        assert count_c_ordinary(gen_grid(12), 3) == 74168


class TestDispatch:
    def test_unit_triangle_defaults(self):
        rep = find_c_ordinary(UNIT_TRIANGLE)
        assert rep.count == 1 and rep.count_is_exact
        assert rep.case_taken is CaseTaken.POOR_GRAPH

    def test_two_line_union_small(self):
        P = gen_two_line_union(2, 2)
        rep = find_c_ordinary(P, 3)
        assert rep.classification.tag is DegeneracyTag.TWO_LINE_UNION
        assert rep.count == enumerate_all_c_ordinary(P, 3)[0] > 0

    def test_rich_instance(self):
        rep = find_c_ordinary(RICH_EXAMPLE, 10)
        assert rep.case_taken is CaseTaken.RICH_LINE
        assert not rep.count_is_exact
        prof = enumerate_lines(RICH_EXAMPLE)
        l_max = prof.max_multiplicity
        assert rep.count >= (l_max + 1) // 2 - 1
        assert rep.count <= enumerate_all_c_ordinary(RICH_EXAMPLE, 10)[0]

    def test_all_collinear(self):
        P = PointSet.of([(i, i) for i in range(5)])
        rep = find_c_ordinary(P, 3)
        assert rep.count == 0 and rep.case_taken is CaseTaken.DEGENERATE

    def test_exhaustive_equals_oracle(self):
        for seed in range(5):
            P = gen_random(30, 35, seed)
            rep = find_c_ordinary(P, 3, mode="exhaustive")
            count, tris = enumerate_all_c_ordinary(P, 3)
            assert rep.count == count and list(rep.triangles) == tris

    def test_count_mode_materializes_nothing(self):
        rep = find_c_ordinary(GRID3, 3, mode="count")
        assert rep.triangles == () and rep.count == enumerate_all_c_ordinary(GRID3, 3)[0]

    def test_nonempty_iff_exists(self):
        # general-position remainder too small: fast paths may come up empty
        for P, c in [(gen_two_line_union(3, 3), 3),
                     (gen_grid(2), 3),
                     (PointSet.of([(0, 0), (1, 0), (2, 1), (3, 5)]), 3)]:
            rep = find_c_ordinary(P, c)
            assert (rep.count > 0) == (enumerate_all_c_ordinary(P, c)[0] > 0)

    def test_limit_truncates(self):
        rep = find_c_ordinary(GRID3, 3, mode="exhaustive", limit=2)
        assert len(rep.triangles) == 2 and rep.count == 76

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            find_c_ordinary(GRID3, 3, mode="turbo")

    @pytest.mark.parametrize("mode", ["fast", "exhaustive", "count"])
    def test_negative_limit_rejected(self, mode):
        P = gen_rich_line_plus(10, [(0, 1), (1, 2), (3, 7)])
        with pytest.raises(ValueError):
            find_c_ordinary(P, 5, mode=mode, limit=-1)

    def test_small_c_rejected(self):
        with pytest.raises(ValueError):
            Constants(2)

    def test_alpha_gate_is_strict(self):
        # alpha*n = 4n/(c+1); a line of exactly alpha*n points does not exceed it
        assert not exceeds_alpha_n(7, 5, 10) and exceeds_alpha_n(7, 6, 10)
        assert exceeds_alpha_n(7, 5, 9) and not exceeds_alpha_n(7, 0, 1)

    @given(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                   min_size=3, max_size=14), st.sampled_from([3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_soundness_and_oracle_equivalence(self, coords, c):
        P = PointSet.of(sorted(coords))
        rep = find_c_ordinary(P, c, mode="exhaustive")
        count, tris = enumerate_all_c_ordinary(P, c)
        assert rep.count == count
        prof = enumerate_lines(P)
        assert all(validate_c_ordinary(P, prof, t, c) for t in rep.triangles)
