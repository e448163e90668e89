"""The package's lazy exports and the value types behind them."""
import importlib
import inspect
import os
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import ordtri
from reference import point

HOMES = {
    "geom": ["CanonicalLine", "Point", "PointSet"],
    "incidence": ["DegeneracyClass", "DegeneracyTag", "InvariantError", "LineCensus",
                  "SylvesterGallaiError", "UnderdeterminedError", "classify_degeneracy",
                  "line_census"],
    "triangles": ["DEFAULT_C_PRIME", "DEFAULT_CONSTANTS", "CaseTaken", "Constants",
                  "TriangleReport", "build_poor_graph", "count_c_ordinary", "derive_constants",
                  "find_c_ordinary", "find_case_poor_graph", "poor_graph_size"],
    "richline": ["RichCasePreconditionError", "RichCaseWitness", "find_case_rich_line",
                 "find_ordinary_line"],
    "bounds": ["BoundReport", "check_eg", "check_incidence_bound", "check_medium_sum",
               "check_st", "eg_lower_bound", "st_threshold"],
    "generators": ["RANDOM_SCHEME", "gen_cubic_progression", "gen_grid",
                   "gen_projection_augmented", "gen_random", "gen_rich_line_plus",
                   "gen_two_line_union"],
    "pointfile": ["PointFileError", "format_points", "parse_points"],
}


def test_all_lists_the_exports():
    assert sorted(ordtri.__all__) == sorted(name for names in HOMES.values() for name in names)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_every_export_is_the_object_of_its_home_module(module):
    home = importlib.import_module(f"ordtri.{module}")
    assert getattr(ordtri, module) is home
    for name in HOMES[module]:
        assert getattr(ordtri, name) is getattr(home, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from ordtri import *", namespace)
    assert set(ordtri.__all__) <= set(namespace)
    assert set(ordtri.__all__) <= set(dir(ordtri))
    assert "__version__" in dir(ordtri)


def test_submodule_attribute_imports_it():
    # `ordtri.bounds` after a bare `import ordtri` worked while the package
    # imported every submodule eagerly
    script = ("import sys, ordtri\n"
              "assert 'ordtri.bounds' not in sys.modules\n"
              "assert ordtri.bounds is sys.modules['ordtri.bounds']\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ordtri.no_such_name


@pytest.mark.parametrize("build", [lambda: ordtri.CanonicalLine(2, 0, 0),
                                   lambda: ordtri.CanonicalLine(0, 0, 1),
                                   lambda: ordtri.CanonicalLine(-1, 0, 0),
                                   lambda: ordtri.Constants(2),
                                   lambda: ordtri.Constants(3, 0)],
                         ids=["not-primitive", "not-a-line", "not-normalized", "c-2",
                              "c-prime-0"])
def test_constructors_still_validate(build):
    with pytest.raises(ValueError):
        build()


def test_value_types_keep_repr_hash_and_order():
    p = point(1, "1/2")
    assert type(p) is ordtri.Point and repr(p) == "Point(x=Fraction(1, 1), y=Fraction(1, 2))"
    assert hash(p) == hash((Fraction(1), Fraction(1, 2)))
    assert point(0, 5) < p < point(1, 1)
    line = ordtri.CanonicalLine.of(6, 12, 2)
    assert repr(line) == "CanonicalLine(a=3, b=6, c=1)" and line.triple() == (3, 6, 1)
    P = ordtri.PointSet.of([(0, 0), (1, 0)])
    assert repr(P) == ("PointSet(points=(Point(x=Fraction(0, 1), y=Fraction(0, 1)), "
                       "Point(x=Fraction(1, 1), y=Fraction(0, 1))))")
    assert P == ordtri.PointSet.of([(0, 0), (1, 0)]) != ordtri.PointSet.of([(1, 0), (0, 0)])
    assert hash(P) == hash(ordtri.PointSet(P.points))
    assert ordtri.Constants(3) == ordtri.Constants(3, None)


def test_mutable_defaults_are_fresh():
    first, second = ordtri.LineCensus(2, {2: 1}, None), ordtri.LineCensus(2, {2: 1}, None)
    assert first.members == {} and first.members is not second.members
    reports = [ordtri.BoundReport("b", "n=2", Fraction(0), Fraction(1)) for _ in range(2)]
    assert reports[0].details == {} and reports[0].details is not reports[1].details
    assert not reports[0].vacuous


def annotated(obj):
    """obj and, for a class, the functions defined in its body: methods,
    static and class methods, and property getters."""
    yield obj
    for attr in vars(obj).values() if isinstance(obj, type) else ():
        fn = getattr(attr, "fget", getattr(attr, "__func__", attr))
        if inspect.isfunction(fn):
            yield fn


@pytest.mark.parametrize("name", sorted(ordtri.__all__))
def test_every_public_annotation_resolves(name):
    # the annotations are strings (from __future__ import annotations), so
    # one that names what its module never binds fails only when read
    for obj in annotated(getattr(ordtri, name)):
        if callable(obj):
            typing.get_type_hints(obj)
