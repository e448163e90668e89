import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ordtri.cli
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
from ordtri.incidence import InvariantError, PointSet, classify_degeneracy
from ordtri.pointfile import PointFileError, _ratio_text, format_points, parse_points
from ordtri.triangles import find_c_ordinary
from reference import enumerate_all_c_ordinary, enumerate_lines, spectrum_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


def strip_timing(report):
    report = dict(report)
    report.pop("timing_seconds", None)
    return report


@pytest.fixture
def grid_file(tmp_path, capsys):
    path = tmp_path / "grid3.txt"
    code, out, _ = run(capsys, "generate", "--kind", "grid", "--size", "3")
    assert code == 0
    path.write_text(out)
    return str(path)


class TestPointFile:
    def test_roundtrip(self):
        P = PointSet.of([(0, 0), ("1/2", "-3/7"), (-4, 9)])
        assert parse_points(io.StringIO(format_points(P))).points == P.points
        assert parse_points(io.StringIO(format_points(P))).rows == P.rows

    # an integral row is written as its two numerators, any other row
    # coordinate by coordinate: both give the text of each coordinate
    @pytest.mark.parametrize("points", [
        [(3, 4)], [(3, "1/2")], [("1/2", 3)], [(0, 0)], [(-5, 0)], [(0, -7)], [(-3, -4)],
        [("-3/7", 2)], [(2, "-3/7")], [("-3/7", "-1/2")], [(2 ** 70, -2 ** 70)],
        [(-2 ** 70, f"{2 ** 70}/3")], [(f"-1/{2 ** 70}", 2 ** 70)],
        [(0, 0), (3, "1/2"), ("1/2", 3), (-4, 9), ("-3/7", "-1/2"), (2 ** 70, -2 ** 70)],
    ])
    def test_rows_are_written_as_their_coordinate_texts(self, points):
        P = PointSet.of(points)
        text = format_points(P)
        assert text == "".join(f"{_ratio_text(xn, xd)} {_ratio_text(yn, yd)}\n"
                               for xn, xd, yn, yd in P.rows)
        assert parse_points(io.StringIO(text)).rows == P.rows

    # signs, zeros, leading zeros and unreduced fractions: each token reads
    # as the Fraction of its text, and the file writes back in lowest terms
    @pytest.mark.parametrize("tok, written", [
        ("+3", "3"), ("-0", "0"), ("+0", "0"), ("007/010", "7/10"), ("2/4", "1/2"),
        ("-6/3", "-2"), ("0/5", "0"), ("-00012/0008", "-3/2"), (str(-2 ** 70), str(-2 ** 70)),
        (f"{3 ** 50}/{2 ** 80}", f"{3 ** 50}/{2 ** 80}"),
    ])
    def test_token_forms_roundtrip(self, tok, written):
        P = parse_points(io.StringIO(f"{tok} {tok}\n"))
        assert P[0] == (Fraction(tok), Fraction(tok))
        assert all(type(v) is Fraction and type(v.numerator) is int for v in P[0])
        text = format_points(P)
        assert text == f"{written} {written}\n"
        assert parse_points(io.StringIO(text)).points == P.points

    def test_comments_and_blanks(self):
        P = parse_points(io.StringIO("# header\n\n1 2\n  # note\n3 4\n"))
        assert len(P) == 2
        P = parse_points(io.StringIO("1 0 # note\n2/3 -1#tight\n"))
        assert [(str(p.x), str(p.y)) for p in P] == [("1", "0"), ("2/3", "-1")]
        with pytest.raises(PointFileError, match="line 1"):
            parse_points(io.StringIO("1 # 2\n"))

    def test_duplicate_reports_line_numbers(self):
        with pytest.raises(PointFileError, match="line 3 repeats line 1"):
            parse_points(io.StringIO("1 2\n3 4\n1 2\n"))

    def test_floats_rejected(self):
        with pytest.raises(PointFileError, match="line 1"):
            parse_points(io.StringIO("0.5 1\n"))

    def test_malformed_row(self):
        with pytest.raises(PointFileError, match="line 2"):
            parse_points(io.StringIO("1 2\n1 2 3\n"))


class TestGenerate:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "grid", "--size", "3")
        assert code == 0 and len(out.strip().splitlines()) == 9

    def test_two_line(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "two-line",
                           "--n1", "2", "--n2", "2")
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_projection_matches_library(self, capsys, tmp_path):
        tri = tmp_path / "tri.txt"
        tri.write_text("0 0\n1 0\n0 1\n")
        code, out, _ = run(capsys, "generate", "--kind", "projection",
                           "--input", str(tri), "--line", "1,-1,5")
        assert code == 0 and len(out.strip().splitlines()) == 6

    # each --line token must be an integer as a point file writes one
    @pytest.mark.parametrize("line", ["\u0661,-1,5", "1_0, -1 ,5", "1.0,-1,5", "1,-1", "1,2/1,5"])
    def test_line_follows_the_point_file_integer_grammar(self, capsys, tmp_path, line):
        tri = tmp_path / "tri.txt"
        tri.write_text("0 0\n1 0\n0 1\n")
        code, out, err = run(capsys, "generate", "--kind", "projection",
                             "--input", str(tri), f"--line={line}")
        assert (code, out) == (2, "")
        assert err == f"error: bad line triple {line!r}: expected three integers A,B,C\n"

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "generate", "--kind", "grid")
        assert code == 2 and "size" in err

    # an --extra token must read exactly as the same token in a point file
    @pytest.mark.parametrize("tok", ["1.5", "1e3", "1/0", "\u0663", "0x10", "", "-3/7", "+2",
                                     "007/010"])
    def test_extra_follows_the_point_file_grammar(self, capsys, tok):
        try:
            expected = parse_points(io.StringIO(f"{tok} 5\n"))[0]
        except PointFileError:
            expected = None
        code, out, err = run(capsys, "generate", "--kind", "rich-line", "--k", "4",
                             f"--extra={tok},5")  # '=': a leading '-' is not an option
        if expected is None:
            assert (code, out) == (2, "") and err.startswith(f"error: --extra '{tok},5': ")
        else:
            assert code == 0 and parse_points(io.StringIO(out))[-1] == expected

    # the grammar matches the whole token: "$" alone would also match
    # before a trailing newline
    @pytest.mark.parametrize("extra", ["1\n,2", "1,2\n", "1/3\n,2", "1,2/5\n"])
    def test_extra_rejects_a_trailing_newline(self, capsys, extra):
        code, out, err = run(capsys, "generate", "--kind", "rich-line", "--k", "3",
                             "--extra", extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --extra {extra!r}: bad coordinate")

    @pytest.mark.parametrize("extra", ["1", "1,2,3", ""])
    def test_extra_needs_two_coordinates(self, capsys, extra):
        code, out, err = run(capsys, "generate", "--kind", "rich-line", "--k", "4",
                             f"--extra={extra}")
        assert (code, out) == (2, "") and err == f"error: --extra {extra!r}: expected 'X,Y'\n"

    # an extra point on the x-axis is named in point-file numbers
    @pytest.mark.parametrize("extra, shown", [("7,0", "7"), ("2/4,-0/3", "1/2")])
    def test_extra_on_the_axis(self, capsys, extra, shown):
        code, out, err = run(capsys, "generate", "--kind", "rich-line", "--k", "4",
                             "--extra", "0,1", "--extra", extra)
        assert (code, out) == (2, "")
        assert err == f"error: extra point ({shown}, 0) lies on the x-axis\n"

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "generate", "--kind", "random",
                         "--n", "20", "--bound", "100", "--seed", "5")
        _, out2, _ = run(capsys, "generate", "--kind", "random",
                         "--n", "20", "--bound", "100", "--seed", "5")
        assert out1 == out2


class TestAnalyze:
    def test_grid_report(self, capsys, grid_file):
        code, rep = run_json(capsys, "analyze", grid_file)
        assert code == 0
        assert rep["line_count"] == 20
        assert rep["spectrum"] == [[2, 20], [3, 8]]
        assert rep["degeneracy"]["tag"] == "NonDegenerate"
        assert rep["pair_sum_identity"]["holds"]

    def test_collinear(self, capsys, tmp_path):
        f = tmp_path / "col.txt"
        f.write_text("0 0\n1 1\n2 2\n")
        code, rep = run_json(capsys, "analyze", str(f))
        assert code == 0 and rep["degeneracy"]["tag"] == "AllCollinear"

    def test_duplicate_point_errors(self, capsys, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("0 0\n0 0\n")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 2 and "repeats" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/points.txt")
        assert code == 2

    @pytest.mark.parametrize("argv", [["analyze"], ["find"], ["verify-bounds"],
                                      ["generate", "--kind", "projection", "--line", "1,-1,5",
                                       "--input"]],
                             ids=["analyze", "find", "verify-bounds", "generate-projection"])
    @pytest.mark.parametrize("name", ["", "missing.txt"], ids=["directory", "missing"])
    def test_unreadable_input_is_an_input_error(self, capsys, tmp_path, argv, name):
        path = str(tmp_path / name) if name else str(tmp_path)
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n1 0\n0 1\n"))
        code, rep = run_json(capsys, "analyze", "-")
        assert code == 0 and rep["line_count"] == 3


class TestFind:
    def test_unit_triangle_defaults(self, capsys, tmp_path):
        f = tmp_path / "tri.txt"
        f.write_text("0 0\n1 0\n0 1\n")
        code, rep = run_json(capsys, "find", str(f))
        assert code == 0
        assert rep["count"] == 1 and rep["count_kind"] == "exact"
        assert rep["triangles"] == [[0, 1, 2]]

    def test_exit_3_when_none(self, capsys, tmp_path):
        f = tmp_path / "col.txt"
        f.write_text("0 0\n1 1\n2 2\n3 3\n")
        code, rep = run_json(capsys, "find", str(f), "--c", "3")
        assert code == 3 and rep["count"] == 0

    # the grammar takes ASCII digits only: an Arabic-Indic three is not 3
    @pytest.mark.parametrize("bad", ["1/0", "-3/00", "\u0663"],
                             ids=["zero-denominator", "zeros-denominator", "non-ascii-digit"])
    def test_bad_coordinate_is_an_input_error(self, capsys, tmp_path, bad):
        f = tmp_path / "bad.txt"
        f.write_text(f"0 0\n1 {bad}\n0 1\n", encoding="utf-8")
        code, out, err = run(capsys, "find", str(f))
        assert (code, out) == (2, "")
        assert f"line 2: bad coordinate {bad!r}" in err

    def test_small_c_rejected(self, capsys, grid_file):
        code, _, err = run(capsys, "find", grid_file, "--c", "2")
        assert code == 2 and "c must be" in err

    def test_small_c_escape_hatch(self, capsys, tmp_path):
        tri = tmp_path / "tri.txt"
        tri.write_text("0 0\n1 0\n0 1\n")
        aug = tmp_path / "aug.txt"
        code, out, _ = run(capsys, "generate", "--kind", "projection",
                           "--input", str(tri), "--line", "1,-1,5")
        aug.write_text(out)
        code, rep = run_json(capsys, "find", str(aug), "--c", "2",
                             "--mode", "exhaustive", "--allow-small-c")
        assert code == 3 and rep["count"] == 0

    def test_rich_case_report(self, capsys, tmp_path):
        f = tmp_path / "rich.txt"
        f.write_text("".join(f"{i} 0\n" for i in range(10)) + "0 1\n1 1\n2 3\n")
        code, rep = run_json(capsys, "find", str(f), "--c", "10")
        assert code == 0
        assert rep["case_taken"] == "RichLine"
        assert rep["count_kind"] == "lower_bound"
        assert rep["rich_case"]["guaranteed_minimum"] == 4

    def test_limit(self, capsys, grid_file):
        code, rep = run_json(capsys, "find", grid_file, "--c", "3",
                             "--mode", "exhaustive", "--limit", "2")
        assert rep["count"] == 76 and len(rep["triangles"]) == 2

    def test_negative_limit_rejected_on_rich_line_path(self, capsys, tmp_path):
        f = tmp_path / "rich.txt"
        code, out, _ = run(capsys, "generate", "--kind", "rich-line", "--k", "10",
                           "--extra", "0,1", "--extra", "1,2", "--extra", "3,7")
        f.write_text(out)
        code, rep = run_json(capsys, "find", str(f), "--c", "5")
        assert rep["case_taken"] == "RichLine"
        code, out, err = run(capsys, "find", str(f), "--c", "5", "--limit", "-1")
        assert code == 2 and out == "" and "limit" in err

    @pytest.mark.parametrize("args", [("--c", "3", "--mode", "exhaustive"),
                                      ("--c", "3", "--mode", "count"),
                                      ("--c", "2", "--mode", "exhaustive", "--allow-small-c")])
    def test_negative_limit_rejected(self, capsys, grid_file, args):
        code, out, err = run(capsys, "find", grid_file, *args, "--limit", "-1")
        assert code == 2 and out == "" and "limit" in err

    @pytest.mark.parametrize("c_prime", ["0", "-3"])
    @pytest.mark.parametrize("args", [(), ("--c", "3", "--mode", "count"),
                                      ("--c", "2", "--mode", "exhaustive", "--allow-small-c")],
                             ids=["default", "count", "small-c"])
    def test_c_prime_below_1_rejected(self, capsys, grid_file, args, c_prime):
        code, out, err = run(capsys, "find", grid_file, *args, "--c-prime", c_prime)
        assert (code, out, err) == (2, "", "error: c_prime must be >= 1\n")

    def test_count_mode(self, capsys, grid_file):
        code, rep = run_json(capsys, "find", grid_file, "--c", "3", "--mode", "count")
        assert rep["count"] == 76 and rep["triangles"] == []

    def test_triangles_revalidate_after_reload(self, capsys, grid_file):
        from reference import enumerate_lines, validate_c_ordinary
        code, rep = run_json(capsys, "find", grid_file, "--c", "3", "--mode", "exhaustive")
        with open(grid_file) as fh:
            P = parse_points(fh)
        prof = enumerate_lines(P)
        assert all(validate_c_ordinary(P, prof, tuple(t), 3) for t in rep["triangles"])


class TestVerifyBounds:
    def test_grid_all_satisfied(self, capsys, grid_file):
        code, rep = run_json(capsys, "verify-bounds", grid_file, "--c", "3")
        assert code == 0 and rep["all_satisfied"]
        assert rep["constants"]["alpha"] == "1"

    def test_line_of_alpha_n_points_keeps_medium_sum(self, capsys, tmp_path):
        # alpha*n = 4*10/8 = 5 points on the x-axis: not above alpha*n
        f = tmp_path / "alpha.txt"
        f.write_text("".join(f"{i} 0\n" for i in range(5))
                     + "0 1\n1 3\n3 7\n6 2\n2 11\n")
        code, rep = run_json(capsys, "verify-bounds", str(f), "--c", "7")
        assert code == 0 and rep["skipped"] == []
        assert sum(b["name"].startswith("medium-line") for b in rep["bounds"]) == 3

    def test_rich_line_skips_medium_sum(self, capsys, tmp_path):
        f = tmp_path / "col.txt"
        f.write_text("".join(f"{i} 0\n" for i in range(9)) + "0 1\n")
        code, rep = run_json(capsys, "verify-bounds", str(f), "--c", "7")
        assert code == 0
        assert any("rich line present" in s["reason"] for s in rep["skipped"])
        assert not any(b["name"].startswith("medium-line") for b in rep["bounds"])

    def test_default_constants_reported(self, capsys, grid_file):
        code, rep = run_json(capsys, "verify-bounds", grid_file)
        assert rep["constants"]["c"] == 12000
        assert rep["constants"]["alpha"] == "4/12001"

    @pytest.mark.parametrize("c_prime", ["0", "-3"])
    @pytest.mark.parametrize("c", [None, "3"])
    def test_c_prime_below_1_rejected(self, capsys, grid_file, c, c_prime):
        args = ("--c", c) if c else ()
        code, out, err = run(capsys, "verify-bounds", grid_file, *args, "--c-prime", c_prime)
        assert (code, out, err) == (2, "", "error: c_prime must be >= 1\n")


def write_points(tmp_path, P, name="points.txt"):
    path = tmp_path / name
    path.write_text(format_points(P))
    return str(path)


SMALL_C = ("--mode", "exhaustive", "--allow-small-c")
SMALL_C_FAMILIES = pytest.mark.parametrize("P", [
    *(gen_grid(g) for g in range(2, 8)),
    *(gen_cubic_progression(m) for m in range(1, 6)),
    gen_random(30, 40, 3), gen_random(25, 10 ** 6, 1),
    gen_two_line_union(5, 6),
    gen_rich_line_plus(12, [(0, 1), (1, 2), (3, 7)]),
    gen_projection_augmented(PointSet.of([(0, 0), (1, 0), (0, 1)]),
                             CanonicalLine.of(1, -1, 5)),
    gen_projection_augmented(gen_grid(3), CanonicalLine.of(1, -7, 100)),
], ids=[*(f"grid-{g}" for g in range(2, 8)), *(f"cubic-{m}" for m in range(1, 6)),
        "random-30", "random-25", "two-line", "rich-line", "projection-triangle",
        "projection-grid-3"])


class TestSmallC:
    """--allow-small-c runs exhaustive mode's poor-graph listing on one
    census; the reference oracle judges its reports."""

    @SMALL_C_FAMILIES
    @pytest.mark.parametrize("limit", [None, 5])
    def test_c_2_matches_the_oracle(self, capsys, tmp_path, P, limit):
        args = ("--limit", str(limit)) if limit is not None else ()
        code, rep = run_json(capsys, "find", write_points(tmp_path, P), "--c", "2",
                             *SMALL_C, *args)
        count, tris = enumerate_all_c_ordinary(P, 2, limit)
        assert (rep["count"], rep["triangles"]) == (count, [list(t) for t in tris])
        assert code == (0 if count else 3)
        tag = classify_degeneracy(P).tag
        case = "Degenerate" if tag.value in ("TooSmall", "AllCollinear") else "PoorGraph"
        assert (rep["case_taken"], rep["count_kind"]) == (case, "exact")
        assert rep["spectrum"] == [list(kf) for kf in spectrum_table(enumerate_lines(P))]
        assert rep["degeneracy"]["tag"] == tag.value

    # the library takes any integer c in every mode; below c = 3 no line
    # exceeds alpha*n, so fast mode runs the poor-graph listing too
    @SMALL_C_FAMILIES
    @pytest.mark.parametrize("c", [2, 1, 0, -1])
    def test_library_matches_the_oracle_in_every_mode(self, P, c):
        count, tris = enumerate_all_c_ordinary(P, c)
        spectrum = tuple(spectrum_table(enumerate_lines(P)))
        for mode in ("fast", "exhaustive", "count"):
            rep = find_c_ordinary(P, c, mode=mode)
            assert (rep.count, rep.count_is_exact, rep.spectrum) == (count, True, spectrum), mode
            assert list(rep.triangles) == ([] if mode == "count" else tris), mode

    @pytest.mark.parametrize("text, degeneracy, spectrum, case, triangles_at_2", [
        ("", ["TooSmall", []], [], "Degenerate", []),
        ("0 0\n", ["TooSmall", []], [], "Degenerate", []),
        ("0 0\n1 2\n", ["TooSmall", []], [[2, 1]], "Degenerate", []),
        ("0 0\n1 0\n2 0\n", ["AllCollinear", [[0, 1, 0]]], [[2, 1], [3, 1]], "Degenerate", []),
        ("0 0\n1 0\n0 1\n1 1\n", ["TwoLineUnion", [[0, 1, 0], [0, 1, -1]]], [[2, 6]],
         "PoorGraph", [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    ], ids=["n-0", "n-1", "n-2", "collinear-3", "square"])
    @pytest.mark.parametrize("c", [2, 1, 0, -1])
    def test_edge_cases(self, capsys, tmp_path, text, degeneracy, spectrum, case, triangles_at_2,
                        c):
        path = tmp_path / "edge.txt"
        path.write_text(text)
        code, rep = run_json(capsys, "find", str(path), "--c", str(c), *SMALL_C)
        triangles = triangles_at_2 if c == 2 else []
        assert strip_timing(rep) == {
            "version": "1", "command": "find",
            "parameters": {"input": str(path), "c": c, "c_prime": 125,
                           "mode": "exhaustive", "limit": None},
            "n": text.count("\n"),
            "degeneracy": {"tag": degeneracy[0], "witness": degeneracy[1]},
            "spectrum": spectrum, "case_taken": case, "count": len(triangles),
            "count_kind": "exact", "triangles": triangles}
        assert code == (0 if triangles else 3)

    @pytest.mark.parametrize("text", ["", "0 0\n", "0 0\n1 2\n", "0 0\n1 0\n0 1\n1 1\n"],
                             ids=["n-0", "n-1", "n-2", "square"])
    @pytest.mark.parametrize("c", [2, 1, 0, -1])
    def test_negative_limit_rejected(self, capsys, tmp_path, text, c):
        path = tmp_path / "edge.txt"
        path.write_text(text)
        code, out, err = run(capsys, "find", str(path), "--c", str(c), *SMALL_C,
                             "--limit", "-1")
        assert code == 2 and out == "" and "limit" in err


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, capsys, grid_file):
        results = []
        for _ in range(2):
            _, out, _ = run(capsys, "find", grid_file, "--c", "3", "--mode", "exhaustive")
            results.append(json.dumps(strip_timing(json.loads(out)), sort_keys=False))
        assert results[0] == results[1]

    def test_analyze_deterministic(self, capsys, grid_file):
        reports = [strip_timing(run_json(capsys, "analyze", grid_file)[1])
                   for _ in range(2)]
        assert reports[0] == reports[1]


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestStartup:
    # a command imports only what it runs: compared with the modules the
    # interpreter's site setup loaded before the first statement (typing on
    # some hosts), which is the `python -c pass` baseline.  Default find on
    # the 3x3 grid takes the rich-line path and excludes the crossing point
    # of its ordinary line.  A well-formed command line is matched from the
    # command table and its report written by cli._dump, so no command
    # loads argparse, nor gettext and locale, which argparse loads, nor json
    EXACT = {"fractions", "decimal", "_decimal"}
    PARSER = {"argparse", "gettext", "locale", "json"}

    def loaded_by(self, script, *argv):
        """The exit codes printed by script, run as a child with the paths
        argv, and the modules it loaded beyond the interpreter's baseline."""
        script = ("import sys\n"
                  "baseline = set(sys.modules)\n"
                  "from ordtri import cli\n" + script +
                  "print(*codes, file=sys.stderr)\n"
                  "print(*(set(sys.modules) - baseline), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=_child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = proc.stderr.splitlines()
        return codes, set(loaded.split()), proc.stdout

    def test_find_loads_no_unused_module(self, grid_file, tmp_path):
        # the rich-line witness names q and r by index and the report formats
        # them from their rows, so fast find makes no Fraction, also on a
        # rational input
        rich = write_points(tmp_path, gen_rich_line_plus(10, [(0, 1), (1, 2), (3, 7)]))
        rational = write_points(tmp_path, gen_rich_line_plus(
            10, [("1/2", "1/3"), ("-7/4", "2/9"), (3, "5/7")]), "rational.txt")
        codes, loaded, out = self.loaded_by(
            "grid, rich, rational = sys.argv[1:]\n"
            "codes = [cli.main(['find', grid, '--c', '3', '--mode', 'count']),\n"
            "         cli.main(['find', grid, '--c', '3', '--mode', 'fast']),\n"
            "         cli.main(['find', rich]),\n"
            "         cli.main(['find', rational]),\n"
            "         cli.main(['find', grid])]\n", grid_file, rich, rational)
        assert codes == "0 0 0 0 0" and out.count('"case_taken": "RichLine"') == 3
        assert '"q": [\n      "1/2",\n      "1/3"\n    ]' in out
        assert {"ordtri.triangles", "ordtri.richline"} <= loaded
        unused = {"dataclasses", "inspect", "logging", "ordtri.bounds", "ordtri.generators",
                  "ordtri.cli_gen_bounds"}
        assert not (unused | self.EXACT | self.PARSER) & loaded

    def test_integer_commands_make_no_fraction(self, grid_file, tmp_path):
        # the points are read into integer rows, so count, exhaustive and
        # analyze never load fractions, nor decimal, which it imports; a
        # rational input makes no Fraction either.  Nor do they compile the
        # rich-line case or the generate and verify-bounds handlers
        rational = tmp_path / "rational.txt"
        rational.write_text("0 0\n1/2 -6/3\n-00012/0008 +0\n7/3 5\n")
        codes, loaded, out = self.loaded_by(
            "codes = [cli.main(argv) for path in sys.argv[1:] for argv in (\n"
            "    ['find', path, '--c', '3', '--mode', 'count'],\n"
            "    ['find', path, '--c', '3', '--mode', 'exhaustive'],\n"
            "    ['analyze', path])]\n", grid_file, str(rational))
        assert codes == "0 0 0 0 0 0" and out.count('"command": "analyze"') == 2
        unused = {"ordtri.richline", "ordtri.cli_gen_bounds"}
        assert not (unused | self.EXACT | self.PARSER) & loaded

    def test_generate_projection_makes_no_fraction(self, tmp_path):
        # the --line triple is reduced in ints, and each meet is made as its
        # reduced integer row and ordered by integer products, on an integer
        # base and on a rational one
        integer = write_points(tmp_path, gen_random(12, 10 ** 5, 3))
        rational = tmp_path / "rational.txt"
        rational.write_text("0 0\n1/2 1/3\n2 5/7\n-1 3\n7/4 -2/9\n3 1\n")
        codes, loaded, out = self.loaded_by(
            "codes = [cli.main(['generate', '--kind', 'projection', '--input', path,\n"
            "                   '--line=' + line])\n"
            "         for path, line in zip(sys.argv[1::2], sys.argv[2::2])]\n",
            integer, "-2,27154,-2000000014", str(rational), "3,-2,1")
        assert codes == "0 0" and len(out.splitlines()) == (12 + 66) + (6 + 15)
        assert "ordtri.generators" in loaded and not (self.EXACT | self.PARSER) & loaded

    def test_generate_rich_line_makes_no_fraction(self):
        # the --extra points are checked and held as integer rows
        codes, loaded, out = self.loaded_by(
            "codes = [cli.main(['generate', '--kind', 'rich-line', '--k', '4',\n"
            "                   '--extra', '1/2,1/3', '--extra', '0,1'])]\n")
        assert codes == "0" and out == "0 0\n1 0\n2 0\n3 0\n1/2 1/3\n0 1\n"
        assert "ordtri.generators" in loaded
        assert not (self.EXACT | self.PARSER | {"numbers"}) & loaded

    def test_verify_bounds_and_generate_load_no_rich_line(self, grid_file, tmp_path):
        # the bounds are decided in integers over a common scale and printed
        # by gcd, so verify-bounds makes no Fraction, also on a projection
        # set on a rational base
        base = parse_points(io.StringIO("0 0\n1/2 1/3\n2 5/7\n-1 3\n7/4 -2/9\n3 1\n"))
        projection = write_points(
            tmp_path, gen_projection_augmented(base, CanonicalLine.of(3, -2, 1)), "projection.txt")
        codes, loaded, out = self.loaded_by(
            "codes = [cli.main(['verify-bounds', path, '--c', '3']) for path in sys.argv[1:]]\n"
            "codes.append(cli.main(['generate', '--kind', 'grid', '--size', '3']))\n",
            grid_file, projection)
        assert codes == "0 0 0" and out.count('"command": "verify-bounds"') == 2
        assert "/" in out.split('"bounds"')[-1]  # some bound is printed as a ratio
        assert {"ordtri.bounds", "ordtri.cli_gen_bounds", "ordtri.generators"} <= loaded
        assert not ({"ordtri.richline", "numbers"} | self.EXACT | self.PARSER) & loaded

    def test_importtime_books_every_module(self):
        # the package loads its submodules through __import__, whose imports
        # python -X importtime logs: cli's `from . import triangles` too
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ordtri.cli"],
                              env=_child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        for module in ("ordtri.triangles", "ordtri.incidence", "ordtri.geom", "ordtri.pointfile"):
            assert any(line.endswith(f" {module}") for line in lines), module

    def test_help_and_usage_errors_go_through_argparse(self, grid_file):
        codes, loaded, out = self.loaded_by(
            "import contextlib, io\n"
            "codes, err = [], io.StringIO()\n"
            "for argv in (['--help'], ['find', sys.argv[1], '--c', 'three']):\n"
            "    try:\n"
            "        with contextlib.redirect_stderr(err):\n"
            "            cli.main(argv)\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(err.getvalue(), end='')\n", grid_file)
        assert codes == "0 2" and "argparse" in loaded
        assert out.startswith("usage: ordtri [-h] {generate,analyze,find,verify-bounds}")
        assert out.endswith("ordtri find: error: argument --c: invalid int value: 'three'\n")


class TestExitPaths:
    def test_invariant_violation_exits_1(self, capsys, grid_file, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("pair-sum identity violated by the census")
        monkeypatch.setattr(ordtri.cli, "line_census", broken)
        code, out, err = run(capsys, "analyze", grid_file)
        assert code == 1 and out == ""
        assert err == "invariant violated: pair-sum identity violated by the census\n"

    def test_invariant_checks_survive_optimize(self):
        # a census whose histogram disagrees with its H breaks the poor-graph
        # edge identity; slope keys that merge the mirror slopes t and -t
        # group points of two lines together, and the census checks every
        # point of a rich group on the group's line.  The keys are folded
        # about the key of a vertical line (points 0 and 4): 0 on the grid,
        # L on the grid stretched along x, whose lift is sheared
        # (PointSet.lifted) so that every key is positive, and 0 on the grid
        # under the homogeneous lift
        script = ("import ordtri.incidence\n"
                  "from ordtri import (InvariantError, PointSet, build_poor_graph,\n"
                  "                    count_c_ordinary, gen_grid, line_census)\n"
                  "assert False, 'asserts are on'\n"
                  "P = gen_grid(4)\n"
                  "skewed = line_census(P, rich_threshold=3)._replace(count_by_mult={2: 25, 3: 8})\n"
                  "def report(call):\n"
                  "    try:\n"
                  "        call()\n"
                  "    except InvariantError as exc:\n"
                  "        print('raised:', exc)\n"
                  "report(lambda: build_poor_graph(P, skewed, 3))\n"
                  "real = ordtri.incidence._slope_keys\n"
                  "H = PointSet._of_rows(P.rows)\n"
                  "H.lifted = H._lift('homogeneous')\n"
                  "for Q in (P, PointSet.of([(x << 30, y) for x, _, y, _ in P.rows]), H):\n"
                  "    lifted = Q.lifted[0]\n"
                  "    vertical = real(lifted[4], [lifted[0]])[0]\n"
                  "    ordtri.incidence._slope_keys = lambda *args: [\n"
                  "        vertical + abs(key - vertical) for key in real(*args)]\n"
                  "    report(lambda: count_c_ordinary(Q, 3))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        first, *folded = proc.stdout.splitlines()
        assert first.startswith("raised: poor-graph edge identity violated")
        # points 13, 8 and 10 are (1, 3), (0, 2) and (2, 2), x stretched or not
        assert folded == ["raised: point 10 is grouped on the line through points 13 and 8 but is off it"] * 3

    def test_broken_pipe_exits_141_silently(self, tmp_path):
        path = tmp_path / "grid8.txt"
        path.write_text(format_points(gen_grid(8)))
        # the report is about 245 KB, far more than a 64 KiB pipe buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "ordtri", "find", str(path), "--c", "3",
             "--mode", "exhaustive"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head == b'{\n  "versi'
        assert (code, err) == (141, b"")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["generate", "--kind", "grid", "--size", "150"],
                                      ["find", "GRID", "--c", "3", "--mode", "exhaustive"]])
    def test_broken_pipe_exits_141_buffered_or_not(self, tmp_path, argv, unbuffered):
        # each output, 147 KB of points or the ~245 KB report, goes in one
        # write; an unbuffered stdout (PYTHONUNBUFFERED) takes only what the
        # pipe holds before the reader leaves, and the rest must still fail
        path = tmp_path / "grid8.txt"
        path.write_text(format_points(gen_grid(8)))
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "ordtri", *(str(path) if a == "GRID" else a for a in argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (141, b"")

    @pytest.mark.parametrize("points,args,stdout_closed,code", [
        # the ~245 KB report, in one write to a file
        (gen_grid(8), ["--c", "3", "--mode", "exhaustive"], False, 0),
        (PointSet.of([(0, 0), (1, 1), (2, 2), (5, 5)]), [], False, 3),
        (None, [], False, 2),  # a missing path
        # with fd 1 closed, sys.stdout is None: nothing can read the report,
        # as when a reader goes away
        (gen_grid(3), [], True, 141),
    ])
    def test_entry_point_exit_paths(self, capsys, tmp_path, points, args, stdout_closed,
                                    code):
        # python -m ordtri exits through entry(), without the interpreter's
        # teardown: the child's exit code, stdout and stderr are main's
        path = tmp_path / "points.txt"
        if points is not None:
            path.write_text(format_points(points))
        argv = ["find", str(path), *args]
        out_path = tmp_path / "report.json"
        with open(out_path, "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "ordtri", *argv],
                                  stdout=out, stderr=subprocess.PIPE, env=_child_env(),
                                  timeout=60,
                                  preexec_fn=(lambda: os.close(1)) if stdout_closed else None)
        err = proc.stderr.decode()
        assert proc.returncode == code, err
        if stdout_closed:
            assert err == ""
            assert out_path.read_bytes() == b""
            return
        expected_code, expected_out, expected_err = run(capsys, *argv)
        assert (expected_code, err) == (code, expected_err)
        out = out_path.read_text()
        if expected_out:
            assert out.endswith("}\n")
            assert strip_timing(json.loads(out)) == strip_timing(json.loads(expected_out))
        else:
            assert out == "" and err.startswith("error: cannot read ")

    def test_entry_skips_the_teardown(self, grid_file):
        # entry() ends with os._exit once it has flushed, so an atexit
        # handler registered before it does not run; main() returns
        script = ("import atexit, sys\n"
                  "from ordtri import cli\n"
                  "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
                  "assert cli.main(['find', sys.argv[1], '--mode', 'count']) == 0\n"
                  "sys.argv[1:] = ['find', sys.argv[1], '--mode', 'count']\n"
                  "cli.entry()\n")
        proc = subprocess.run([sys.executable, "-c", script, grid_file], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.count('"count": 76') == 2 and proc.stdout.endswith("}\n")

    def test_usage_error_exits_through_argparse(self):
        proc = subprocess.run([sys.executable, "-m", "ordtri", "find"], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: ordtri find")

    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, monkeypatch):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")
        missing = str(tmp_path / "missing.txt")
        monkeypatch.setattr(sys, "stderr", Full())
        assert main(["find", missing]) == 2
        monkeypatch.undo()
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this host")
        # a buffered stderr still holds the message when entry() flushes it
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            with open("/dev/full", "wb") as full:
                proc = subprocess.run([sys.executable, "-m", "ordtri", "find", missing],
                                      stdout=subprocess.PIPE, stderr=full,
                                      env=dict(env, **unbuffered), timeout=60)
            assert (proc.returncode, proc.stdout) == (2, b""), unbuffered
