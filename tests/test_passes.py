"""Pair-pass guard: every command makes one pass over the point pairs.

A pass is one `line_census` call; the pair kernel `_scaled_line_key` makes
one pass per C(n, 2) calls.  Both, and `_scaled_multiplicities`, are
wrapped at every binding in the package, so a call through any import
counts.  Only the brute-force oracle may use the pair kernel.
"""
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import ordtri.cli
import ordtri.incidence

DATA = Path(__file__).parent / "data"
WATCHED = ("line_census", "_scaled_line_key", "_scaled_multiplicities")


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
    for name in WATCHED:
        original = getattr(ordtri.incidence, name)
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


def test_only_the_oracle_uses_the_pair_kernel(capsys, monkeypatch, calls):
    report = run(capsys, monkeypatch, "find", "grid6.txt", "--c", "2",
                 "--mode", "exhaustive", "--allow-small-c")
    assert report["case_taken"] == "Oracle"
    assert calls["_scaled_multiplicities"] == 1
    assert calls["_scaled_line_key"] == 2 * (36 * 35 // 2)  # multiplicities, then G
