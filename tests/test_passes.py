"""Pair-pass guard: every command makes one pass over the point pairs.

A pass is one `line_census` call; the pair kernel `_scaled_line_key` makes
one pass per C(n, 2) calls.  Both are wrapped at every binding in the
package, so a call through any import counts.  No command uses the pair
kernel: only the tests' brute-force oracle keys pairs one at a time.  The
rich-line path's search for an ordinary line off the rich line groups the
pairs of its rows as the census does, by `_slope_keys`; it typically stops
in its first row, which the count of computed keys checks.  Every other
line multiplicity the rich-line path needs comes from the census.  The
poor-graph listing keys each edge of the poor graph once, by `_slope_keys`.
"""
import json
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import ordtri.cli
import ordtri.incidence
from ordtri.geom import CanonicalLine, PointSet
from ordtri.generators import (
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from ordtri.pointfile import format_points
from reference import lift_kind

DATA = Path(__file__).parent / "data"
WATCHED = {"line_census": ordtri.incidence, "_scaled_line_key": ordtri.incidence}


def wrap_every_binding(monkeypatch, home, name, wrap):
    original = getattr(home, name)
    wrapper = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ordtri" or mod_name.startswith("ordtri."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, wrapper)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    for name, home in WATCHED.items():
        wrap_every_binding(monkeypatch, home, name, counting(name))
    return counts


@pytest.fixture
def keys(monkeypatch):
    """The number of slope keys computed, by every caller of `_slope_keys`."""
    counts = Counter()

    def wrap(fn):
        def counted(*args):
            out = fn(*args)
            counts["keys"] += len(out)
            return out
        return counted

    wrap_every_binding(monkeypatch, ordtri.incidence, "_slope_keys", wrap)
    return counts


def run(capsys, monkeypatch, *argv):
    monkeypatch.chdir(DATA)
    assert ordtri.cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv, case", [
    (("analyze", "grid6.txt"), None),
    (("find", "grid6.txt", "--c", "3", "--mode", "count"), "PoorGraph"),
    (("find", "random60.txt", "--c", "5", "--mode", "exhaustive"), "PoorGraph"),
    (("find", "grid6.txt", "--c", "3", "--mode", "exhaustive", "--limit", "12"), "PoorGraph"),
    (("find", "grid6.txt", "--c", "3"), "PoorGraph"),
    (("find", "grid6.txt", "--c", "2", "--mode", "exhaustive", "--allow-small-c"), "PoorGraph"),
    (("verify-bounds", "projection.txt"), None),
    (("verify-bounds", "grid6.txt", "--c", "3"), None),
], ids=["analyze", "count", "exhaustive", "exhaustive-limit", "fast-poor-graph", "small-c",
        "verify-bounds", "verify-bounds-c-3"])
def test_one_census_and_no_pair_kernel(capsys, monkeypatch, calls, argv, case):
    report = run(capsys, monkeypatch, *argv)
    assert report.get("case_taken") == case
    assert calls == {"line_census": 1}


@pytest.mark.parametrize("argv", [
    ("analyze",), ("find", "--c", "3", "--mode", "count"), ("find", "--c", "3", "--mode", "exhaustive"),
    ("verify-bounds", "--c", "3"),
], ids=["analyze", "count", "exhaustive", "verify-bounds"])
def test_one_census_on_the_homogeneous_lift(capsys, monkeypatch, calls, tmp_path, argv):
    """A projection set on a 13-point random base, rational input whose
    scaled coordinates have about 2,000 bits: its census keys pairs on the
    homogeneous lift, still in one pass."""
    P = gen_projection_augmented(gen_random(13, 10 ** 5, 7), CanonicalLine.of(1, -13577, 10 ** 9 + 7))
    assert lift_kind(P) == "homogeneous"
    path = tmp_path / "projection.txt"
    path.write_text(format_points(P))
    run(capsys, monkeypatch, argv[0], str(path), *argv[1:])
    assert calls == {"line_census": 1}


@pytest.mark.parametrize("argv", [("--mode", "exhaustive"), ()], ids=["exhaustive", "fast"])
def test_poor_graph_listing_keys_each_edge_once_on_the_census_lift(capsys, monkeypatch, calls,
                                                                  keys, tmp_path, argv):
    """The listing decides collinearity by the census's slope keys: each
    row keys its neighbours above it in G once, so a run computes the
    census's C(n, 2) keys, the input having no two points level, and one
    per edge of G, |G| = sum over l <= c of C(l, 2) N_l.  The input is
    rational, keyed on the homogeneous lift, and nothing reads its scaled
    integer coordinates.  Its top line is not above alpha*n, so fast mode
    falls back to the listing before any rich-line search."""
    P = gen_projection_augmented(gen_random(13, 10 ** 5, 7), CanonicalLine.of(1, -13577, 10 ** 9 + 7))
    n = len(P)
    assert lift_kind(P) == "homogeneous"
    assert len({row[2:] for row in P.rows}) == n
    path = tmp_path / "projection.txt"
    path.write_text(format_points(P))

    def unread(self):
        raise AssertionError("scaled_ints read on rational input")

    monkeypatch.setattr(PointSet, "scaled_ints", property(unread))
    report = run(capsys, monkeypatch, "find", str(path), "--c", "3", *argv)
    assert report["case_taken"] == "PoorGraph"
    assert calls == {"line_census": 1}
    f = dict(report["spectrum"])
    poor_edges = sum(comb(l, 2) * (f[l] - f.get(l + 1, 0)) for l in f if l <= 3)
    assert keys["keys"] == comb(n, 2) + poor_edges


def test_rich_line_path_censuses_p_and_the_points_off_the_line(capsys, monkeypatch, calls):
    report = run(capsys, monkeypatch, "find", "rich.txt")
    assert report["case_taken"] == "RichLine"
    assert calls == {"line_census": 1}


def test_fast_mode_computes_one_census_of_normals(capsys, monkeypatch, tmp_path, keys):
    """The census and the ordinary-line search's first row: at most
    C(n, 2) + n slope keys.  The multiplicities of the lines from q and r
    to the rich line come from the census's H, which keys nothing more.
    The census gives the pairs level with their row the level key without
    the kernel, so the input has no two points level."""
    n = 300
    path = tmp_path / "random.txt"
    path.write_text(format_points(gen_random(n, 10 ** 6, 1)))
    assert ordtri.cli.main(["find", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["case_taken"] == "RichLine"
    assert len({p.y for p in gen_random(n, 10 ** 6, 1)}) == n
    assert n * (n - 1) // 2 < keys["keys"] <= n * (n - 1) // 2 + n


# the second input takes the rich-line path first, whose search off the line
# finds the points there collinear
@pytest.mark.parametrize("n1, n2, c", [(30, 30, "3"), (30, 8, "5")],
                         ids=["no-line-above-alpha-n", "points-off-the-line-collinear"])
def test_fast_mode_reports_no_triangle_from_the_poor_graph(capsys, monkeypatch, calls,
                                                          tmp_path, n1, n2, c):
    path = tmp_path / "two-line.txt"
    path.write_text(format_points(gen_two_line_union(n1, n2)))
    assert ordtri.cli.main(["find", str(path), "--c", c]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["case_taken"], report["count"], report["triangles"]) == ("PoorGraph", 0, [])
    assert calls == {"line_census": 1}



@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("P", [
    *(gen_grid(g) for g in range(5, 17)),
    gen_rich_line_plus(12, [(0, j) for j in range(1, 9)] + [(1, 1), (2, 3)]),
    gen_projection_augmented(gen_random(13, 10 ** 5, 7), CanonicalLine.of(1, -13577, 10 ** 9 + 7)),
], ids=[*(f"grid{g}" for g in range(5, 17)), "rich-line-plus", "projection13"])
def test_census_builds_each_rich_line_once(monkeypatch, P, t):
    """H's cliques come from one cross product per line of more than t
    points, at its owner: a later point of the line finds the line's bits in
    its own row and skips the group.  A rebuilt clique would set no new bit,
    so only this count shows a rebuild."""
    crosses = Counter()
    cross = ordtri.incidence._cross

    def counted(*args):
        crosses["_cross"] += 1
        return cross(*args)

    monkeypatch.setattr(ordtri.incidence, "_cross", counted)
    census = ordtri.incidence.line_census(P, rich_threshold=t)
    assert crosses["_cross"] == sum(k for l, k in census.count_by_mult.items() if l > t)
