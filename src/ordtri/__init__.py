"""Exact-arithmetic toolkit for c-ordinary triangles in planar point sets."""

from .geom import (
    CanonicalLine,
    DegeneratePairError,
    Point,
    incident,
    intersect,
    line_through,
    orientation,
    point,
)
from .incidence import (
    DegeneracyClass,
    DegeneracyTag,
    InvariantError,
    LineCensus,
    PointSet,
    SylvesterGallaiError,
    UnderdeterminedError,
    classify_degeneracy,
    find_ordinary_line,
    line_census,
)
from .triangles import (
    DEFAULT_C_PRIME,
    DEFAULT_CONSTANTS,
    CaseTaken,
    Constants,
    RichCasePreconditionError,
    RichCaseWitness,
    TriangleReport,
    build_poor_graph,
    count_c_ordinary,
    derive_constants,
    find_c_ordinary,
    find_case_poor_graph,
    find_case_rich_line,
    poor_graph_size,
)
from .bounds import (
    BoundReport,
    check_eg,
    check_incidence_bound,
    check_medium_sum,
    check_st,
    eg_lower_bound,
    st_threshold,
)
from .generators import (
    RANDOM_SCHEME,
    gen_cubic_progression,
    gen_grid,
    gen_projection_augmented,
    gen_random,
    gen_rich_line_plus,
    gen_two_line_union,
)
from .pointfile import PointFileError, format_points, parse_points

__version__ = "0.1.0"
