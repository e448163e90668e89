"""Pair-pass guard: every command makes one pass over the point pairs.

A pass is one `line_census` call; the pair kernel `_scaled_line_key` makes
one pass per C(n, 2) calls.  Both, `_scaled_multiplicities` and the O(n^3)
oracle `enumerate_all_c_ordinary` are wrapped at every binding in the
package, so a call through any import counts.  Only the oracle may use the
pair kernel, and only `--allow-small-c` runs the oracle.
"""
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import ordtri.cli
import ordtri.incidence
import ordtri.triangles
from ordtri.generators import gen_two_line_union
from ordtri.pointfile import format_points

DATA = Path(__file__).parent / "data"
WATCHED = {"line_census": ordtri.incidence, "_scaled_line_key": ordtri.incidence,
           "_scaled_multiplicities": ordtri.incidence,
           "enumerate_all_c_ordinary": ordtri.triangles}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    modules = [m for name, m in sys.modules.items()
               if name == "ordtri" or name.startswith("ordtri.")]
    for name, home in WATCHED.items():
        original = getattr(home, name)
        wrapper = counting(name, original)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, wrapper)
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
    (("verify-bounds", "projection.txt"), None),
    (("verify-bounds", "grid6.txt", "--c", "3"), None),
], ids=["analyze", "count", "exhaustive", "exhaustive-limit", "fast-poor-graph",
        "verify-bounds", "verify-bounds-c-3"])
def test_one_census_and_no_pair_kernel(capsys, monkeypatch, calls, argv, case):
    report = run(capsys, monkeypatch, *argv)
    assert report.get("case_taken") == case
    assert calls == {"line_census": 1}


def test_rich_line_path_censuses_p_and_the_points_off_the_line(capsys, monkeypatch, calls):
    report = run(capsys, monkeypatch, "find", "rich.txt")
    assert report["case_taken"] == "RichLine"
    assert calls == {"line_census": 2}


# the second input takes the rich-line path first, whose census of the
# points off the line finds them collinear
@pytest.mark.parametrize("n1, n2, c, censuses", [(30, 30, "3", 1), (30, 8, "5", 2)],
                         ids=["no-line-above-alpha-n", "points-off-the-line-collinear"])
def test_fast_mode_reports_no_triangle_from_the_poor_graph(capsys, monkeypatch, calls,
                                                          tmp_path, n1, n2, c, censuses):
    path = tmp_path / "two-line.txt"
    path.write_text(format_points(gen_two_line_union(n1, n2)))
    assert ordtri.cli.main(["find", str(path), "--c", c]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["case_taken"], report["count"], report["triangles"]) == ("PoorGraph", 0, [])
    assert calls == {"line_census": censuses}


def test_only_the_oracle_uses_the_pair_kernel(capsys, monkeypatch, calls):
    report = run(capsys, monkeypatch, "find", "grid6.txt", "--c", "2",
                 "--mode", "exhaustive", "--allow-small-c")
    assert report["case_taken"] == "Oracle"
    assert calls["enumerate_all_c_ordinary"] == 1
    assert calls["_scaled_multiplicities"] == 1
    assert calls["_scaled_line_key"] == 2 * (36 * 35 // 2)  # multiplicities, then G
