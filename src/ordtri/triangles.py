"""The two-case c-ordinary triangle finder and the exact counter.

A triple of points is c-ordinary when it is non-collinear and each of its
three connecting lines carries at most c points of the set.  Equivalently:
it is a non-collinear triangle of the "poor graph" G whose edges are the
point pairs lying on lines with at most c points, which is what the fast
paths exploit.  The rich-line case lives in richline, which fast mode
alone imports.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import islice
from math import comb

from .incidence import (
    DegeneracyTag,
    InvariantError,
    LineCensus,
    PointSet,
    _slope_keys,
    classify_degeneracy,
    line_census,
)


class Constants(namedtuple("Constants", "c c_prime")):
    """Richness threshold c; the paper's alpha = 4/(c+1) follows from it.

    c_prime is the incidence-bound constant the default c is derived from;
    it is carried along for reporting only.
    """
    __slots__ = ()

    def __new__(cls, c: int, c_prime: int | None = None):
        if c_prime is not None and c_prime < 1:
            raise ValueError("c_prime must be >= 1")
        if c < 3:
            raise ValueError("c must be an integer >= 3")
        return super().__new__(cls, c, c_prime)


def exceeds_alpha_n(c: int, l: int, n: int) -> bool:
    """l > alpha*n for alpha = 4/(c+1), decided in integers as (c+1)*l > 4*n."""
    return (c + 1) * l > 4 * n


def derive_constants(c_prime: int) -> Constants:
    """c = 96*c' and alpha = 4/(c+1); c' = 125 gives the default c = 12000.
    Constants rejects c' < 1."""
    return Constants(96 * c_prime, c_prime)


DEFAULT_C_PRIME = 125
DEFAULT_CONSTANTS = derive_constants(DEFAULT_C_PRIME)


def _bit_indices(bits: int):
    """The positions of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _count_forward_triangles(later: list[int]) -> int:
    """Triangles of a graph from its forward bitsets later: bit v of
    later[u] is set for each neighbour v > u, so every edge (u, v) is held
    once, oriented upward.  A triangle u < v < w shows in later[u] & later[v]
    at its edge (u, v) only, so it is counted once (Chiba & Nishizeki 1985),
    by one word-parallel AND and popcount per edge: no Python code runs per
    triangle."""
    return sum((bits & later[v]).bit_count()
               for bits in later for v in _bit_indices(bits))


class CaseTaken(Enum):
    RICH_LINE = "RichLine"
    POOR_GRAPH = "PoorGraph"
    DEGENERATE = "Degenerate"


class TriangleReport(namedtuple("TriangleReport",
                                "classification case_taken triangles count count_is_exact "
                                "rich_witness spectrum", defaults=(None, ()))):
    """A DegeneracyClass, the CaseTaken, the triangles (possibly truncated),
    their count, whether it is exact (else a proven lower bound), the
    RichCaseWitness if any, and the census spectrum [(k, f(k))]."""
    __slots__ = ()


def _rich_pairs(P: PointSet, census: LineCensus, c: int) -> list[int]:
    """census.rich, the rich-pair graph H of P at threshold c, once census
    is checked to be line_census(P, rich_threshold=c)."""
    if census.n != len(P) or census.rich_threshold != c:
        raise ValueError(f"the census given is not line_census(P, rich_threshold={c})")
    return census.rich


def build_poor_graph(P: PointSet, census: LineCensus, c: int) -> list[int]:
    """Forward bitsets of the graph G with an edge for every pair whose line
    has <= c points: bit v of later[u] is set for each neighbour v > u.

    G is the complement of the rich-pair graph H, so later[u] holds every
    index above u that is not H's.  census must be
    line_census(P, rich_threshold=c); G's edges are checked against its
    histogram."""
    full = (1 << len(P)) - 1
    later = [(full ^ bits) >> u + 1 << u + 1
             for u, bits in enumerate(_rich_pairs(P, census, c))]
    edges = sum(bits.bit_count() for bits in later)
    expected = sum(comb(l, 2) * k for l, k in census.count_by_mult.items() if l <= c)
    if edges != expected:
        raise InvariantError(f"poor-graph edge identity violated: {edges} edges, "
                             f"the census gives {expected}")
    return later


def find_case_poor_graph(P: PointSet, census: LineCensus, c: int,
                         limit: int | None = None
                         ) -> tuple[list[tuple[int, int, int]], int]:
    """List the poor-graph triangles i < j < k in ascending order, k from the
    forward bitsets of i and j, up to limit of them, dropping k iff it is on
    the line through i and j: iff its slope key through i, the census's
    (PointSet.lifted), is j's.  The count comes from count_c_ordinary on the
    same census; a listing that ran to its end must match it."""
    later = build_poor_graph(P, census, c)
    count = count_c_ordinary(P, c, census)
    lifted, level, _ = P.lifted

    def listed():
        for i, later_i in enumerate(later):
            js = list(_bit_indices(later_i))  # i's neighbours in G above it
            key = dict(zip(js, _slope_keys(lifted[i], [lifted[j] for j in js], level)))
            for j in js:
                for k in _bit_indices(later_i & later[j]):
                    if key[k] != key[j]:  # k is off the line through i and j
                        yield (i, j, k)

    out = list(islice(listed(), limit))
    if (limit is None or len(out) < limit) and len(out) != count:
        raise InvariantError(f"{len(out)} poor-graph triangles listed, "
                             f"count_c_ordinary gives {count}")
    return out, count


def poor_graph_size(P: PointSet, c: int, census: LineCensus) -> tuple[int, int]:
    """Edges and triangles of the poor graph G, without building G, from
    census = line_census(P, rich_threshold=c): C(l,2) edges per poor line,
    and the c-ordinary triangles plus the C(l,3) collinear ones per poor line
    (a collinear triple lies on one line)."""
    poor = [(l, k) for l, k in census.count_by_mult.items() if l <= c]
    return (sum(comb(l, 2) * k for l, k in poor),
            count_c_ordinary(P, c, census) + sum(comb(l, 3) * k for l, k in poor))


def count_c_ordinary(P: PointSet, c: int, census: LineCensus | None = None) -> int:
    """Exact c-ordinary triangle count from one census, listing no triangle.

    A triple is c-ordinary iff none of its three pairs is an edge of the
    rich-pair graph H (pairs on lines with more than c points) and it is not
    collinear.  A given census must be line_census(P, rich_threshold=c).  At
    c <= 1 every line is rich, so the count is 0 and no census is run.

    Inclusion-exclusion over the edges of H counts the triples with no H
    edge: C(n,3) - |H|(n-2) + sum C(d_i, 2) - T(H), where d_i is the degree
    of i in H, a popcount, and T(H) takes one AND and popcount of H's n-bit
    forward bitsets per edge of H.  A collinear triple lies on one line, so
    those left are the C(l,3) triples of each poor line, read off the census
    histogram.
    """
    n = len(P)
    if n < 3 or c < 2:
        return 0
    if census is None:
        census = line_census(P, rich_threshold=c)
    h = _rich_pairs(P, census, c)
    degree = [bits.bit_count() for bits in h]
    later = [bits >> u + 1 << u + 1 for u, bits in enumerate(h)]
    no_rich_pair = (comb(n, 3) - sum(degree) // 2 * (n - 2)
                    + sum(comb(d, 2) for d in degree) - _count_forward_triangles(later))
    return no_rich_pair - sum(cnt * comb(l, 3)
                              for l, cnt in census.count_by_mult.items() if l <= c)


def find_c_ordinary(P: PointSet, c: int = DEFAULT_CONSTANTS.c,
                    mode: str = "fast", limit: int | None = None) -> TriangleReport:
    """Dispatching finder.

    fast:       rich-line path when some line exceeds alpha*n (lower-bound
                count, at least one triangle), else the poor-graph listing
                of exhaustive mode (exact), also when the points off the
                rich line are collinear.  A report is non-empty iff a
                c-ordinary triangle exists.
    exhaustive: poor-graph listing with collinear filtering, up to limit
                triangles; the exact count comes from count_c_ordinary, and
                a listing that runs to its end must match it.
    count:      exact count without materializing any triangle list.

    Every mode runs one line_census(P, rich_threshold=c).  The rich-line
    path adds a search for an ordinary line off the rich line that stops at
    the first ordinary pair: typically after one row of pairs, at worst
    after as many pairs as one census of the points off the line.

    Degenerate inputs are classified and still searched exhaustively:
    triangles may exist below the theorem's regime.  Any integer c is
    accepted (the paper's constants need c >= 3): at c <= 1 every line, of
    at least 2 points, is rich, so the poor graph has no edge and the count
    is 0; the spectrum then comes from a plain census, since the census
    takes no threshold below 2.
    """
    if mode not in ("fast", "exhaustive", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    n = len(P)
    classification = classify_degeneracy(P)
    tag = classification.tag
    census = line_census(P, rich_threshold=c if c >= 2 else None,
                         top=mode == "fast") if n >= 2 else None
    spectrum = tuple(census.spectrum_table()) if census else ()

    def report(case, triangles, count, exact, witness=None):
        return TriangleReport(classification=classification, case_taken=case,
                              triangles=tuple(triangles),
                              count=count, count_is_exact=exact,
                              rich_witness=witness, spectrum=spectrum)

    if tag in (DegeneracyTag.TOO_SMALL, DegeneracyTag.ALL_COLLINEAR):
        return report(CaseTaken.DEGENERATE, (), 0, True)
    # TwoLineUnion inputs sit below the theorem's hypothesis but are still
    # searched exactly; the classification rides along in the report
    if mode == "count" or c < 2:  # at c <= 1 count_c_ordinary gives 0
        return report(CaseTaken.POOR_GRAPH, (), count_c_ordinary(P, c, census), True)

    # fast mode: the rich-line path on the census's top line, of maximum
    # multiplicity, with the first point in sweep order, if it exceeds alpha*n
    if mode == "fast":
        from .richline import RichCasePreconditionError, find_case_rich_line

        try:
            witness, tris = find_case_rich_line(P, census, c)
        except RichCasePreconditionError:
            pass  # no line above alpha*n, or the points off it are collinear
        else:
            shown = tris if limit is None else tris[:limit]
            return report(CaseTaken.RICH_LINE, shown, len(tris), False, witness)
    tris, count = find_case_poor_graph(P, census, c, limit)
    return report(CaseTaken.POOR_GRAPH, tris, count, True)
