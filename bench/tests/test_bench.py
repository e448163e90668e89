"""Tests of the benchmark itself: output checks, seeded inputs, tracing.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ordtri  # noqa: E402
import ordtri.cli  # noqa: E402
from ordtri.generators import gen_random  # noqa: E402
from ordtri.incidence import PointSet  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, check, point_file  # noqa: E402


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ordtri.cli.main(argv)
    return code, buf.getvalue()


def _write(tmp_path, points) -> str:
    path = tmp_path / "points.txt"
    path.write_bytes(point_file(points))
    return str(path)


# --- output checks -----------------------------------------------------------

def test_count_check_accepts_real_report_and_rejects_tampered(tmp_path):
    points = gen_random(40, 10 ** 4, 3)
    code, text = _cli(["find", _write(tmp_path, points), "--mode", "count"])
    w = WORKLOADS["count-random"]
    assert check(w, text, code, points) == []
    report = json.loads(text)

    off = dict(report, count=report["count"] + 1)
    assert check(w, json.dumps(off), code, points)
    spectrum = copy.deepcopy(report)
    spectrum["spectrum"][0][1] += 1
    assert check(w, json.dumps(spectrum), code, points)
    assert check(w, text, 3, points)
    assert check(w, "not json", code, points)


def test_fast_check_rejects_collinear_triangle():
    points = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1), (5, 7)])
    w = WORKLOADS["fast-random"]
    good = {"n": 5, "triangles": [[0, 1, 3]], "count": 1}
    assert check(w, json.dumps(good), 0, points) == []
    collinear = dict(good, triangles=[[0, 1, 2]])
    assert any("collinear" in p for p in check(w, json.dumps(collinear), 0, points))
    short = dict(good, triangles=[[0, 1, 3], [0, 1, 4]])
    assert check(w, json.dumps(short), 0, points)
    assert check(w, json.dumps(dict(good, triangles=[[0, 1, 9]])), 0, points)


def test_grid_check_rejects_count_off_by_one():
    points = workloads.make_grid(1)
    w = WORKLOADS["grid-count"]
    report = {"n": len(points), "count": workloads.GRID_COUNT, "count_kind": "exact"}
    assert check(w, json.dumps(report), 0, points) == []
    report["count"] += 1
    assert check(w, json.dumps(report), 0, points)


def test_bounds_check_rejects_unsatisfied():
    points = PointSet.of([(0, 0), (1, 0), (0, 1)])
    w = WORKLOADS["bounds-projection"]
    report = {"n": 3, "bounds": [{"satisfied": True}], "all_satisfied": True}
    assert check(w, json.dumps(report), 0, points) == []
    assert check(w, json.dumps(dict(report, all_satisfied=False)), 0, points)
    assert check(w, json.dumps(report), 1, points)


def test_grid_count_matches_brute_force():
    for seed in (1, 2):
        pts = workloads.integer_points(workloads.make_grid(seed))
        assert workloads.brute_force_count(pts, workloads.GRID_C) == workloads.GRID_COUNT


def test_brute_force_matches_cli_on_small_grid(tmp_path):
    points = ordtri.gen_grid(5)
    code, text = _cli(["find", _write(tmp_path, points), "--c", "3", "--mode", "count"])
    pts = workloads.integer_points(points)
    assert json.loads(text)["count"] == workloads.brute_force_count(pts, 3)


# --- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_are_byte_identical(name):
    make = WORKLOADS[name].make
    assert point_file(make(7)) == point_file(make(7))
    assert point_file(make(7)) != point_file(make(8))


# --- tracing -----------------------------------------------------------------

def _bindings():
    """Every function and classmethod object reachable from the package."""
    out = {}
    for mod in [ordtri, *(getattr(ordtri, m) for m in tracing.LAYERS)]:
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if isinstance(obj, type):
                for attr, raw in vars(obj).items():
                    out[(mod.__name__, name, attr)] = raw
    return out


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    path = _write(tmp_path, gen_random(30, 10 ** 4, 5))
    tracer = tracing.Tracer()
    with tracer:
        assert ordtri.triangles.enumerate_lines is not before[("ordtri.triangles", "enumerate_lines")]
        assert ordtri.cli.line_census is not before[("ordtri.cli", "line_census")]
        assert ordtri.incidence.line_census is not before[("ordtri.incidence", "line_census")]
        code, _ = tracer.run(_cli, ["find", path])
        assert code == 0
        tracer.run(_cli, ["find", path])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.runs[0] == tracer.runs[1]
    assert tracer.runs[0]["calls"]["geom.CanonicalLine.of"] > 0


def test_self_times_cover_the_root_span(tmp_path):
    path = _write(tmp_path, gen_random(30, 10 ** 4, 5))
    tracer = tracing.Tracer()
    with tracer:
        tracer.run(ordtri.cli.main, ["verify-bounds", path, "--c", "3"])
    own = tracer.self_times(0)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) == pytest.approx(tracer.main_seconds(0), abs=1e-9)
    metrics = tracer.layer_metrics(0, report_bytes=1)
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER)
    assert metrics["incidence.pair_passes"] == 3
    assert metrics["bounds.incidence_tests"] == 30 * metrics["incidence.lines"]


@pytest.mark.parametrize("points, c", [(gen_random(30, 10 ** 4, 5), "12000"),
                                       (ordtri.gen_grid(5), "3")])
def test_count_mode_makes_two_pair_passes(tmp_path, points, c):
    """One census in the count and one for the spectrum; the line keys that
    the census computes for its rich groups are not pair passes."""
    tracer = tracing.Tracer()
    with tracer:
        tracer.run(ordtri.cli.main, ["find", _write(tmp_path, points), "--c", c, "--mode", "count"])
    assert tracer.layer_metrics(0, report_bytes=1)["incidence.pair_passes"] == 2
    assert tracer.runs[0]["calls"].get(tracing.PAIR_KEY, 0) == 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 20, 30, 1, 0],
                    ["b", 50, 60, 0, 0], ["a", 0, 5, -1, 1]]
    own = tracer.self_times(0)
    assert own == {"a": 60 / 1e9, "b": 30 / 1e9, "c": 10 / 1e9}


# --- the benchmark contract ---------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, unit, better) for n, (unit, better, _) in tracing.PER_LAYER.items()]
    moved = {w for _, _, moves in tracing.PER_LAYER.values() for _, w in moves}
    assert moved <= set(WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert {e for _, _, moves in tracing.PER_LAYER.values() for e, _ in moves} <= e2e


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "count-random",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
