"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Every check is exact; no tolerances.  The shared corpus below is the single
source of generated instances for the census, bound, and equivalence criteria,
so a violation anywhere in it fails the corresponding criterion outright.
"""

import json
import random
import time
from math import comb

import pytest

from ordtri.bounds import (
    check_eg,
    check_incidence_bound,
    check_st,
    eg_lower_bound,
)
from ordtri.cli import main
from ordtri.generators import (
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from ordtri.geom import CanonicalLine
from ordtri.incidence import PointSet, line_census
from ordtri.richline import find_ordinary_line
from ordtri.triangles import build_poor_graph, derive_constants, exceeds_alpha_n, find_c_ordinary
from reference import (
    PoorGraph,
    count_incidences,
    count_triangles,
    enumerate_all_c_ordinary,
    enumerate_lines,
    line_through,
    points_on_line,
    spectrum_table,
    validate_c_ordinary,
)

C_VALUES = (3, 5, 10)


def ok(num, text):
    print(f"criterion {num:2d}: PASS  {text}")


def rich_extras(shift):
    # (0,1), (1,1+s), (2,3+2s) are never collinear and never on y=0
    return [(0, 1), (1, 1 + shift), (2, 3 + 2 * shift)]


@pytest.fixture(scope="module")
def random_sets():
    """200 seeded random sets with n <= 200 (most small, a few large)."""
    rng = random.Random(20260823)
    out = []
    for seed in range(200):
        n = rng.choice((rng.randrange(5, 40), rng.randrange(40, 100),
                        rng.randrange(5, 25)))
        if seed % 40 == 0:
            n = rng.randrange(150, 201)
        out.append(gen_random(n, max(4 * n * n, 10 ** 5), seed))
    return out


@pytest.fixture(scope="module")
def corpus():
    """>= 100 seeded instances across all six generator families, n <= 300."""
    instances = []

    def add(name, P):
        instances.append((name, P))

    for seed in range(50):
        n = 6 + (seed * 7) % 25
        add(f"random-{seed}", gen_random(n, max(n * n, 500), seed))
    add("random-big-200", gen_random(200, 10 ** 6, 42))
    add("random-big-300", gen_random(300, 10 ** 6, 42))
    for g in range(2, 8):
        add(f"grid-{g}", gen_grid(g))
    for n1, n2 in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4), (5, 3), (7, 2),
                   (8, 8), (10, 5), (12, 12), (15, 4), (20, 20)]:
        add(f"two-line-{n1}-{n2}", gen_two_line_union(n1, n2))
    for k in range(4, 16):
        add(f"rich-{k}", gen_rich_line_plus(k, rich_extras(k)))
    for seed in range(10):
        base = gen_random(4 + seed % 4, 10 ** 5, 1000 + seed)
        add(f"projection-{seed}", _augment(base, seed))
    for m in range(1, 11):
        add(f"cubic-{m}", gen_cubic_progression(m))
    assert len(instances) >= 100
    return instances


def _augment(base, seed):
    rng = random.Random(seed)
    while True:  # generic line: off all points, parallel to no determined line
        ell = CanonicalLine.of(1, -rng.randrange(10 ** 4, 10 ** 5),
                               rng.randrange(10 ** 9, 10 ** 10))
        try:
            return gen_projection_augmented(base, ell)
        except ValueError:
            continue


def _cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out


def _strip_timing(text):
    rep = json.loads(text)
    rep.pop("timing_seconds", None)
    return json.dumps(rep)


def test_criterion_01_grid_golden():
    t0 = time.perf_counter_ns()
    census = line_census(gen_grid(3))
    elapsed = time.perf_counter_ns() - t0
    assert census.line_count == 20
    assert census.f(2) == 20 and census.f(3) == 8 and census.f(4) == 0
    assert sum(comb(l, 2) * k for l, k in census.count_by_mult.items()) == comb(9, 2)
    assert elapsed < 1_000_000
    ok(1, f"3x3 grid golden values exact in {elapsed / 1000:.0f} us")


def test_criterion_02_pair_sum_identity(random_sets):
    families = list(random_sets)
    families += [gen_grid(g) for g in range(2, 31)]  # g=1 determines no line
    families += [gen_cubic_progression(m) for m in range(1, 21)]
    for P in families:
        census = line_census(P)
        assert sum(comb(l, 2) * k for l, k in census.count_by_mult.items()) \
            == comb(len(P), 2)
    ok(2, f"pair-sum identity exact on {len(families)} instances "
          f"({len(random_sets)} random, 29 grids, 20 cubics)")


def test_criterion_03_richness_threshold(corpus):
    checked = 0
    for name, P in corpus:
        reports = check_st(len(P), spectrum_table(enumerate_lines(P)))
        assert all(r.satisfied for r in reports), name
        checked += len(reports)
    ok(3, f"f(k) <= threshold(n,k,125) for all {checked} (instance, k) pairs "
          f"over {len(corpus)} instances")


def test_criterion_04_incidence_bound(corpus):
    t0 = time.perf_counter()
    for name, P in corpus:
        lines = list(enumerate_lines(P).entries)
        assert check_incidence_bound(len(P), len(lines),
                                     count_incidences(P, lines)).satisfied, name
    elapsed = time.perf_counter() - t0
    # generous: integer incidence tests take seconds, Fraction tests minutes
    assert elapsed < 60
    ok(4, f"incidence bound holds (exact integer comparison) on "
          f"{len(corpus)} instances in {elapsed:.1f}s (< 60s)")


def test_criterion_05_triangle_lower_bound(corpus):
    assert eg_lower_bound(4, 6) == (4, 1)
    adj = tuple(tuple(v for v in range(4) if v != u) for u in range(4))
    assert count_triangles(PoorGraph(n=4, adj=adj)) == 4

    rng = random.Random(99)
    graphs = 0
    for _ in range(100):
        n = rng.randrange(2, 101)
        p = rng.random()
        edges = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges[u].append(v)
                    edges[v].append(u)
        g = PoorGraph(n=n, adj=tuple(tuple(e) for e in edges))
        assert check_eg(n, g.edge_count, count_triangles(g)).satisfied
        graphs += 1

    poor = 0
    for name, P in corpus:
        for c in C_VALUES:
            g = PoorGraph.of(build_poor_graph(P, line_census(P, rich_threshold=c), c))
            assert check_eg(g.n, g.edge_count, count_triangles(g)).satisfied, (name, c)
            poor += 1
    ok(5, f"t3(K4)=4 tight; bound satisfied on {graphs} random graphs and "
          f"{poor} poor graphs")


def test_criterion_06_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    runs = 0
    for name, P in corpus:
        prof = enumerate_lines(P)
        big = len(P) > 60
        for c in C_VALUES:
            limit = 500 if big else None
            oracle_count, _ = enumerate_all_c_ordinary(P, c, limit=limit)
            rep = find_c_ordinary(P, c, mode="exhaustive", limit=limit)
            assert rep.count == oracle_count, (name, c)
            assert rep.count_is_exact
            for t in rep.triangles:
                assert validate_c_ordinary(P, prof, t, c), (name, c, t)
            runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    ok(6, f"exhaustive == oracle on {runs} (instance, c) runs "
          f"({len(corpus)} instances x c in {{3,5,10}}) in {elapsed:.1f}s; "
          f"all listed triangles validate")


def test_criterion_07_rich_case_guarantee():
    c = 10
    count = 0
    for k in range(8, 28):
        P = gen_rich_line_plus(k, rich_extras(k))
        prof = enumerate_lines(P)
        rep = find_c_ordinary(P, c, mode="fast")
        w = rep.rich_witness
        assert w is not None, k
        l_max = prof.entries[w.rich_line]
        assert prof.max_multiplicity == l_max
        assert rep.count >= (l_max + 1) // 2 - 1
        on_idx = points_on_line(P, w.rich_line)
        assert all(type(i) is int and 0 <= i < len(P) and i not in on_idx for i in (w.q, w.r))
        p_q = [i for i in on_idx if prof.entries[line_through(P[i], P[w.q])] > c]
        p_r = [i for i in on_idx if prof.entries[line_through(P[i], P[w.r])] > c]
        assert 4 * len(p_q) < l_max and 4 * len(p_r) < l_max
        for t in rep.triangles:
            assert validate_c_ordinary(P, prof, t, c)
        count += 1
    ok(7, f"rich-line path met ceil(l/2)-1 guarantee and exclusion inclusions "
          f"on {count} instances")


def test_criterion_08_projection_kills_2_ordinary():
    seeds = 0
    for seed in range(7):
        base = gen_random(4 + seed % 5, 10 ** 5, 500 + seed)
        if len(base) > 12:
            continue
        P = _augment(base, seed)
        assert len(P) <= 12 + comb(12, 2)
        count, _ = enumerate_all_c_ordinary(P, 2)
        assert count == 0, seed
        seeds += 1
    assert seeds >= 5
    ok(8, f"projection-augmented sets have exactly zero 2-ordinary triangles "
          f"({seeds} seeds)")


def test_criterion_09_constant_derivation():
    k = derive_constants(125)
    assert k.c == 12000
    # alpha = 4/(c+1) is read through the gate l > alpha*n: at n = 12001,
    # alpha*n = 4 is not exceeded by 4 points and is by 5, and at n = 12000
    # it is by 4
    assert not exceeds_alpha_n(k.c, 4, 12001) and exceeds_alpha_n(k.c, 5, 12001)
    assert exceeds_alpha_n(k.c, 4, 12000)
    ok(9, "derive_constants(125) = (c=12000, alpha=4/12001) exactly")


def test_criterion_10_ordinary_line(random_sets):
    found = 0
    for P in random_sets:
        census = line_census(P)
        if census.line_count == 1:
            continue  # collinear: Sylvester-Gallai does not apply
        line, i, j = find_ordinary_line(P)
        assert points_on_line(P, line) == [i, j]
        found += 1
    assert found >= 200
    ok(10, f"ordinary line found with multiplicity exactly 2 on "
           f"{found} non-collinear instances")


def test_criterion_11_performance(tmp_path, capsys):
    path = tmp_path / "n5000.txt"
    code, out = _cli(capsys, "generate", "--kind", "random", "--n", "5000",
                     "--bound", "100000000", "--seed", "12000")
    assert code == 0
    path.write_text(out)
    t0 = time.perf_counter()
    code, out = _cli(capsys, "find", str(path), "--c", "12000", "--mode", "count")
    elapsed = time.perf_counter() - t0
    assert code == 0
    rep = json.loads(out)
    assert rep["count_kind"] == "exact" and rep["case_taken"] == "PoorGraph"
    assert rep["triangles"] == []
    # independent cross-check: with every line poor, the c-ordinary count is
    # the number of non-collinear triples, straight from the census spectrum
    with open(path) as fh:
        from ordtri.pointfile import parse_points
        P = parse_points(fh)
    census = line_census(P)
    assert census.max_multiplicity <= 12000
    expected = comb(len(P), 3) - sum(comb(l, 3) * k
                                     for l, k in census.count_by_mult.items())
    assert rep["count"] == expected
    assert elapsed < 120
    ok(11, f"n=5000, c=12000 count mode: exact count {rep['count']} via "
           f"PoorGraph path in {elapsed:.1f}s (< 120s)")


def test_criterion_12_determinism(tmp_path, capsys):
    gen = ("generate", "--kind", "random", "--n", "60", "--bound", "5000",
           "--seed", "7")
    _, out1 = _cli(capsys, *gen)
    _, out2 = _cli(capsys, *gen)
    assert out1 == out2
    path = tmp_path / "p.txt"
    path.write_text(out1)
    commands = [
        ("analyze", str(path)),
        ("find", str(path), "--c", "5", "--mode", "exhaustive"),
        ("find", str(path), "--c", "12000", "--mode", "count"),
        ("verify-bounds", str(path), "--c", "5"),
    ]
    for argv in commands:
        _, a = _cli(capsys, *argv)
        _, b = _cli(capsys, *argv)
        assert _strip_timing(a) == _strip_timing(b), argv
    ok(12, f"repeated runs byte-identical modulo timing field "
           f"({len(commands) + 1} commands x 2)")
