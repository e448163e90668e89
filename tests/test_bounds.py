import random
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ordtri.bounds import (
    BoundReport,
    check_eg,
    check_incidence_bound,
    check_medium_sum,
    check_st,
    eg_lower_bound,
    st_threshold,
)
from ordtri.cli_gen_bounds import _ratio
from ordtri.incidence import PointSet, line_census
from ordtri.pointfile import _ratio_text
from ordtri.triangles import Constants, build_poor_graph, derive_constants, exceeds_alpha_n
from ordtri.generators import gen_grid, gen_projection_augmented, gen_random
from ordtri.geom import CanonicalLine
from reference import (
    PoorGraph,
    count_incidences,
    count_triangles,
    enumerate_lines,
    spectrum_table,
)


def make_graph(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return PoorGraph(n=n, adj=tuple(tuple(sorted(a)) for a in adj))


def complete_graph(n):
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def eg_of(g):
    return check_eg(g.n, g.edge_count, count_triangles(g))


def st_of(P):
    return check_st(len(P), spectrum_table(enumerate_lines(P)))


def incidence_bound_of(P, lines):
    return check_incidence_bound(len(P), len(lines), count_incidences(P, lines))


def medium_sum_of(prof, constants):
    return check_medium_sum(prof.n, prof.multiplicity_histogram(), constants)


def checked(r):
    """A BoundReport's checked side, an integer over its scale, as a Fraction."""
    return Fraction(r.checked, r.scale)


def threshold(r):
    return Fraction(r.threshold, r.scale)


class TestStThreshold:
    def test_boundary_k_eq_sqrt_n(self):
        # k*k == n takes the n^2/k^3 branch: 125 * 100^2 / 10^3
        assert st_threshold(100, 10, 125) == (1250, 1)

    def test_above_sqrt(self):
        assert st_threshold(100, 11, 125) == (12500, 11)

    def test_small(self):
        assert st_threshold(9, 3, 125) == (375, 1)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            st_threshold(1, 2)
        with pytest.raises(ValueError):
            st_threshold(10, 1)


class TestCheckSt:
    def test_grid3(self):
        P = gen_grid(3)
        reports = st_of(P)
        by_name = {r.name: r for r in reports}
        assert checked(by_name["line-richness f(3)"]) == 8
        assert threshold(by_name["line-richness f(3)"]) == 375
        assert all(r.satisfied for r in reports)

    def test_ten_collinear(self):
        P = PointSet.of([(i, 0) for i in range(10)])
        reports = st_of(P)
        top = [r for r in reports if r.name == "line-richness f(10)"][0]
        # k = 10 > sqrt(10): the n/k branch applies, 125 * 10 / 10
        assert checked(top) == 1 and threshold(top) == 125
        assert all(r.satisfied for r in reports)

    @pytest.mark.parametrize("seed", range(10))
    def test_theorem_holds_on_random(self, seed):
        P = gen_random(40, 40, seed)
        assert all(r.satisfied for r in st_of(P))


class TestIncidenceBound:
    def test_single_incidence(self):
        from ordtri.geom import CanonicalLine
        P = PointSet.of([(0, 0), (5, 5)])
        r = incidence_bound_of(P, [CanonicalLine(0, 1, 0)])
        assert r.satisfied and r.details["incidences"] == 1

    def test_grid3_all_determined_lines(self):
        P = gen_grid(3)
        prof = enumerate_lines(P)
        lines = list(prof.entries)
        assert count_incidences(P, lines) == 8 * 3 + 12 * 2 == 48
        assert incidence_bound_of(P, lines).satisfied

    def test_no_lines(self):
        P = gen_grid(2)
        r = incidence_bound_of(P, [])
        assert r.satisfied and r.details["incidences"] == 0

    def test_duplicate_lines_rejected(self):
        from ordtri.geom import CanonicalLine
        with pytest.raises(ValueError):
            count_incidences(gen_grid(2), [CanonicalLine(0, 1, 0)] * 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_theorem_holds_on_random(self, seed):
        P = gen_random(30, 30, seed)
        prof = enumerate_lines(P)
        assert incidence_bound_of(P, list(prof.entries)).satisfied

    @pytest.mark.parametrize("P", [
        gen_random(40, 50, 3),
        gen_random(60, 10 ** 6, 4),
        gen_projection_augmented(gen_random(6, 10 ** 5, 1000),
                                 CanonicalLine.of(1, -12345, 6789012345)),
        gen_projection_augmented(gen_grid(3), CanonicalLine.of(1, -7, 100)),
        # x and y denominators differ
        PointSet.of([(Fraction(i, 3), Fraction(j, 7)) for i in range(4) for j in range(4)]
                    + [(Fraction(1, 2), Fraction(5, 9)), (Fraction(-4, 5), Fraction(2, 11))]),
    ])
    def test_determined_lines_count_their_multiplicities(self, P):
        prof = enumerate_lines(P)
        assert count_incidences(P, list(prof.entries)) == sum(prof.entries.values())


class TestEgBound:
    def test_k4_tight(self):
        assert eg_lower_bound(4, 6) == (4, 1)
        r = eg_of(complete_graph(4))
        assert r.satisfied and r.details["triangles"] == 4 and checked(r) == 4

    def test_empty_graph(self):
        assert eg_lower_bound(5, 0) == (0, 1)

    def test_vacuous_negative(self):
        assert eg_lower_bound(100, 2000)[0] < 0  # the numerator; the denominator is > 0
        r = eg_of(random_graph(100, 0.3, 1))
        assert r.satisfied

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            eg_lower_bound(0, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randrange(2, 60), rng.random(), seed + 100)
        assert eg_of(g).satisfied

    def test_dense_nonvacuous(self):
        for n in (6, 10, 14):
            g = complete_graph(n)
            r = eg_of(g)
            assert r.satisfied and not r.vacuous

    def test_poor_graph_pipeline(self):
        for seed in range(5):
            P = gen_random(30, 35, seed)
            g = PoorGraph.of(build_poor_graph(P, line_census(P, rich_threshold=5), 5))
            assert eg_of(g).satisfied


class TestCountTriangles:
    def test_k4(self):
        assert count_triangles(complete_graph(4)) == 4

    def test_c5(self):
        assert count_triangles(make_graph(5, [(i, (i + 1) % 5) for i in range(5)])) == 0

    def test_k5_minus_edge(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
        assert count_triangles(make_graph(5, edges)) == comb(5, 3) - 3 == 7

    @given(st.integers(2, 25), st.floats(0, 1), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_combination_scan(self, n, p, seed):
        import itertools
        g = random_graph(n, p, seed)
        adj = [set(a) for a in g.adj]
        expected = sum(1 for a, b, c in itertools.combinations(range(n), 3)
                       if b in adj[a] and c in adj[a] and c in adj[b])
        assert count_triangles(g) == expected

    @pytest.mark.parametrize("p", [0, 0.1, 0.5, 0.9, 1])
    def test_matches_brute_force_with_isolated_vertices(self, p):
        import itertools
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(3, 30)
            isolated = set(rng.sample(range(n), seed % 4))
            g = make_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                               if not {u, v} & isolated and rng.random() < p])
            adj = [set(a) for a in g.adj]
            expected = sum(1 for a, b, c in itertools.combinations(range(n), 3)
                           if b in adj[a] and c in adj[a] and c in adj[b])
            if p == 1:
                assert expected == comb(n - len(isolated), 3)
            assert count_triangles(g) == expected


def alpha_is(c, num, den):
    """alpha = 4/(c+1) is num/den, read through exceeds_alpha_n(c, l, n),
    l > alpha*n: at n = den, alpha*n = num is not exceeded by num points
    and is by num + 1, and at n = den - 1 it is by num."""
    return (not exceeds_alpha_n(c, num, den) and exceeds_alpha_n(c, num + 1, den)
            and exceeds_alpha_n(c, num, den - 1))


class TestDeriveConstants:
    def test_headline_constants(self):
        k = derive_constants(125)
        assert k.c == 12000 and alpha_is(k.c, 4, 12001) and k.c_prime == 125

    def test_unit(self):
        k = derive_constants(1)
        assert k.c == 96 and alpha_is(k.c, 4, 97)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            derive_constants(0)


class TestMediumSum:
    def test_general_position_zero(self):
        P = gen_random(20, 10 ** 6, 5)
        prof = enumerate_lines(P)
        assert prof.max_multiplicity == 2  # verified, not assumed
        reports = medium_sum_of(prof, Constants(3, 125))
        assert all(r.satisfied for r in reports)
        assert reports[0].checked == 0

    def test_grid3_small_c(self):
        prof = enumerate_lines(gen_grid(3))
        # c = 3 keeps all lines poor: combined medium sum is 0; with the grid
        # spectrum the c=2-style sum 8 * C(3,2) = 24 is checked via census
        mults = list(prof.entries.values())
        assert sum(comb(l, 2) for l in mults if l > 2) == 24
        reports = medium_sum_of(prof, Constants(3, 125))
        assert all(r.satisfied for r in reports)

    def test_precondition_rich_line(self):
        # alpha*n = 4*10/8 = 5 < 9 points on one line
        P = PointSet.of([(i, 0) for i in range(9)] + [(0, 1)])
        prof = enumerate_lines(P)
        with pytest.raises(ValueError):
            medium_sum_of(prof, Constants(7, 125))

    def test_dyadic_halves_count_only_lines_above_c(self):
        # the 4-point line has l*l > n = 9: medium above sqrt n at c = 3,
        # not medium at all at c = 5
        P = PointSet.of([(i, 0) for i in range(4)] + [(0, 1), (1, 2), (3, 5), (7, 2), (5, 9)])
        prof = enumerate_lines(P)
        assert prof.max_multiplicity == 4
        assert [checked(r) for r in medium_sum_of(prof, Constants(3, 125))[:3]] == [6, 0, 6]
        assert [checked(r) for r in medium_sum_of(prof, Constants(5, 125))[:3]] == [0, 0, 0]

    def test_edge_floor_corollary(self):
        for seed in range(5):
            P = gen_random(25, 30, seed)
            prof = enumerate_lines(P)
            const = Constants(5, 125)
            if any((const.c + 1) * l > 4 * len(P) for l in prof.entries.values()):
                continue
            reports = medium_sum_of(prof, const)
            floor = [r for r in reports if r.name == "poor-graph edge floor"][0]
            assert floor.satisfied


class TestAgainstFractions:
    """Every check gives the verdict, the vacuous flag and the printed
    checked and threshold texts of its formulas in Fractions (reference)."""

    @staticmethod
    def agrees(r, lower, upper, vacuous=False):
        assert (r.satisfied, r.vacuous) == (lower <= upper, vacuous)
        assert (_ratio(r.checked, r.scale), _ratio(r.threshold, r.scale)) == (
            _ratio_text(lower.numerator, lower.denominator),
            _ratio_text(upper.numerator, upper.denominator))

    @given(st.integers(2, 10 ** 4), st.integers(1, 200),
           st.lists(st.tuples(st.integers(2, 150), st.integers(0, 10 ** 7)), max_size=6),
           st.integers(0, 10 ** 7))
    @settings(max_examples=150, deadline=None)
    def test_check_st(self, n, c_prime, spectrum, f_root):
        # k = isqrt(n) and k = isqrt(n) + 1 sit on either side of sqrt(n)
        spectrum += [(max(2, isqrt(n)), f_root), (isqrt(n) + 1, f_root)]
        reports = check_st(n, spectrum, c_prime)
        assert len(reports) == len(spectrum)
        for r, (k, fk) in zip(reports, spectrum):
            self.agrees(r, Fraction(fk), reference.st_threshold(n, k, c_prime))

    @given(st.integers(-3, 300), st.integers(0, 10 ** 4), st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_check_eg(self, n, m, t3):
        # n < 1 has no bound: the check holds vacuously at 0
        lower = reference.eg_lower_bound(n, m) if n >= 1 else Fraction(0)
        self.agrees(check_eg(n, m, t3), lower, Fraction(t3), lower <= 0)

    @given(st.data(), st.integers(2, 10 ** 5), st.integers(3, 40) | st.integers(41, 12000),
           st.integers(1, 3) | st.integers(4, 200))
    @settings(max_examples=150, deadline=None)
    def test_check_medium_sum(self, data, n, c, c_prime):
        # every line at most alpha*n = 4n/(c+1) points: case (ii)
        top = 4 * n // (c + 1)
        hist = data.draw(st.dictionaries(st.integers(2, max(2, top)),
                                         st.integers(1, 5) | st.integers(6, 10 ** 9),
                                         max_size=0 if top < 2 else 8))
        reports = check_medium_sum(n, hist, Constants(c, c_prime))
        low = sum(comb(l, 2) * k for l, k in hist.items() if c < l and l * l <= n)
        high = sum(comb(l, 2) * k for l, k in hist.items() if c < l and l * l > n)
        unit = reference.medium_unit(n, c, c_prime)
        for r, part, times in zip(reports, (low + high, low, high), (24, 8, 16)):
            self.agrees(r, Fraction(part), times * unit)
        floor = reference.edge_floor(n, c, c_prime)
        poor = sum(comb(l, 2) * k for l, k in hist.items() if l <= c)
        self.agrees(reports[3], floor, Fraction(poor), floor <= 0)


class TestBoundReport:
    def test_rejects_nonpositive_scale(self):
        # the verdict compares numerators, so it holds only over a positive scale
        for scale in (0, -3):
            with pytest.raises(ValueError, match="scale must be >= 1"):
                BoundReport("b", "n=2", 1, 2, scale=scale)
        assert BoundReport("b", "n=2", 3, 2, scale=2).scale == 2
