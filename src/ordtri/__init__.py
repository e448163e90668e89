"""Exact-arithmetic toolkit for c-ordinary triangles in planar point sets.

The exports load on first use (PEP 562), so a command imports only the
modules it runs.
"""

_EXPORTS = {
    "geom": "CanonicalLine Point PointSet",
    "incidence": "DegeneracyClass DegeneracyTag InvariantError LineCensus "
                 "SylvesterGallaiError UnderdeterminedError classify_degeneracy line_census",
    "triangles": "DEFAULT_C_PRIME DEFAULT_CONSTANTS CaseTaken Constants TriangleReport "
                 "build_poor_graph count_c_ordinary derive_constants find_c_ordinary "
                 "find_case_poor_graph poor_graph_size",
    "richline": "RichCasePreconditionError RichCaseWitness find_case_rich_line "
                "find_ordinary_line",
    "bounds": "BoundReport check_eg check_incidence_bound check_medium_sum check_st "
              "eg_lower_bound st_threshold",
    "generators": "RANDOM_SCHEME gen_cubic_progression gen_grid gen_projection_augmented "
                  "gen_random gen_rich_line_plus gen_two_line_union",
    "pointfile": "PointFileError format_points parse_points",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # __import__ runs the import statement's machinery, which -X importtime
    # logs; a non-empty fromlist makes it return the submodule
    if name in _EXPORTS:  # a submodule, as `ordtri.bounds` after `import ordtri`
        return __import__(f"{__name__}.{name}", fromlist=("_",))
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=("_",)), name)


def __dir__():
    return sorted({*globals(), *__all__})
