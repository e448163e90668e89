"""c-ordinary triangle validation, oracle enumeration, and the two-case finder.

A triple of points is c-ordinary when it is non-collinear and each of its
three connecting lines carries at most c points of the set.  Equivalently:
it is a non-collinear triangle of the "poor graph" G whose edges are the
point pairs lying on lines with at most c points, which is what the fast
paths exploit.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from typing import Optional

from .geom import CanonicalLine, Point, line_through, orientation
from .incidence import (
    DegeneracyClass,
    DegeneracyTag,
    IncidenceProfile,
    InvariantError,
    LineCensus,
    PointSet,
    SylvesterGallaiError,
    _pencil,
    _scaled_line_key,
    _scaled_multiplicities,
    classify_degeneracy,
    find_ordinary_line,
    line_census,
)

logger = logging.getLogger(__name__)


class RichCasePreconditionError(RuntimeError):
    """Rich-line path invoked on an instance that does not satisfy its gate."""


@dataclass(frozen=True)
class Constants:
    """Richness threshold c with its companion ratio alpha = 4/(c+1).

    c_prime is the incidence-bound constant the default c is derived from;
    it is carried along for reporting only.
    """

    c: int
    alpha: Fraction
    c_prime: Optional[int] = None

    def __post_init__(self):
        if self.c < 3:
            raise ValueError("c must be an integer >= 3")
        if self.alpha != Fraction(4, self.c + 1):
            raise ValueError("alpha must equal 4/(c+1)")

    @classmethod
    def for_c(cls, c: int, c_prime: Optional[int] = None) -> "Constants":
        return cls(c=c, alpha=Fraction(4, c + 1), c_prime=c_prime)

    def exceeds_alpha_n(self, l: int, n: int) -> bool:
        """l > alpha*n, decided in integers as (c+1)*l > 4*n."""
        return (self.c + 1) * l > 4 * n


DEFAULT_C_PRIME = 125
DEFAULT_CONSTANTS = Constants.for_c(96 * DEFAULT_C_PRIME, DEFAULT_C_PRIME)  # c = 12000


@dataclass(frozen=True)
class PoorGraph:
    """Graph on point indices; {i, j} is an edge iff their line has <= c points."""

    n: int
    adj: tuple[tuple[int, ...], ...]  # sorted neighbor lists

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def count_triangles(g) -> int:
    """Exact triangle count of a simple undirected graph (n, sorted adj lists)
    by adjacency-set intersection over the edges."""
    adj_sets = [set(a) for a in g.adj]
    total = 0
    for u in range(g.n):
        for v in g.adj[u]:
            if v > u:
                total += sum(1 for w in adj_sets[u] & adj_sets[v] if w > v)
    return total


class CaseTaken(Enum):
    RICH_LINE = "RichLine"
    POOR_GRAPH = "PoorGraph"
    BRUTE_FORCE_FALLBACK = "BruteForceFallback"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class RichCaseWitness:
    rich_line: CanonicalLine
    q: Point
    r: Point
    excluded: frozenset[int]   # indices on the rich line unusable as apex
    survivors: frozenset[int]  # indices on the rich line that yield triangles
    guarantee: int             # proven lower bound ceil(l/2) - 1


@dataclass(frozen=True)
class TriangleReport:
    classification: DegeneracyClass
    case_taken: CaseTaken
    triangles: tuple[tuple[int, int, int], ...]  # possibly truncated
    count: int
    count_is_exact: bool  # False: count is a proven lower bound
    constants: Constants
    rich_witness: Optional[RichCaseWitness] = None
    spectrum: tuple[tuple[int, int], ...] = ()  # [(k, f(k))] from the census


def validate_c_ordinary(P: PointSet, profile: IncidenceProfile,
                        triple: tuple[int, int, int], c: int) -> bool:
    """True iff the indexed points are non-collinear and all three of their
    connecting lines have multiplicity <= c."""
    i, j, k = triple
    n = len(P)
    if len({i, j, k}) != 3 or not all(0 <= t < n for t in (i, j, k)):
        raise ValueError(f"bad triangle indices {triple} for n={n}")
    p, q, r = P[i], P[j], P[k]
    if orientation(p, q, r) == 0:
        return False
    return all(profile.entries[line_through(u, v)] <= c
               for u, v in ((p, q), (p, r), (q, r)))


def enumerate_all_c_ordinary(P: PointSet, c: int, limit: Optional[int] = None
                             ) -> tuple[int, list[tuple[int, int, int]]]:
    """Brute-force oracle: exact count of all c-ordinary triples, plus the
    triples themselves in ascending index order (list truncated at limit,
    count always exact).  O(n^3) with O(1) per-triple checks."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    n = len(P)
    if n < 3:
        return 0, []
    pts, _, _ = P.scaled_ints
    mult = _scaled_multiplicities(P)
    poor = [bytearray(n) for _ in range(n)]
    for i in range(n - 1):
        x1, y1 = pts[i]
        row = poor[i]
        for j in range(i + 1, n):
            if mult[_scaled_line_key(x1, y1, *pts[j])] <= c:
                row[j] = 1
                poor[j][i] = 1
    count = 0
    out: list[tuple[int, int, int]] = []
    for i in range(n - 2):
        xi, yi = pts[i]
        pi = poor[i]
        for j in range(i + 1, n - 1):
            if not pi[j]:
                continue
            dxj = pts[j][0] - xi
            dyj = pts[j][1] - yi
            pj = poor[j]
            for k in range(j + 1, n):
                if pi[k] and pj[k]:
                    if dxj * (pts[k][1] - yi) != dyj * (pts[k][0] - xi):
                        count += 1
                        if limit is None or len(out) < limit:
                            out.append((i, j, k))
    return count, out


def build_poor_graph(P: PointSet, census: LineCensus, c: int) -> PoorGraph:
    """The graph G with an edge for every pair whose line has <= c points:
    the complete graph minus the cliques of the rich lines.  Two lines share
    at most one point, so no pair is on two rich lines and G is exact.
    census must be line_census(P, rich_threshold=c)."""
    n = len(P)
    if census.n != n or census.rich_threshold != c:
        raise ValueError(f"build_poor_graph needs the census of P with rich_threshold={c}")
    homogeneous = P.homogeneous
    blocked = [{i} for i in range(n)]
    for line, _ in census.rich:
        members = census.members[line]
        for i in members:
            x, y, w = homogeneous[i]
            if line.a * x + line.b * y + line.c * w != 0:
                raise InvariantError(f"point {i} is listed on the rich line "
                                     f"{line.triple()} but does not lie on it")
            blocked[i].update(members)
    g = PoorGraph(n=n, adj=tuple(tuple(j for j in range(n) if j not in blocked[i])
                                 for i in range(n)))
    expected = sum(comb(l, 2) * k for l, k in census.count_by_mult.items() if l <= c)
    if g.edge_count != expected:
        raise InvariantError(f"poor-graph edge identity violated: {g.edge_count} edges, "
                             f"the census gives {expected}")
    return g


def find_case_poor_graph(P: PointSet, census: LineCensus, c: int,
                         limit: Optional[int] = None
                         ) -> tuple[list[tuple[int, int, int]], int]:
    """List poor-graph triangles by sorted-adjacency intersection, dropping
    collinear triples, up to limit of them; the count of c-ordinary
    triangles comes from count_c_ordinary on the same census.  A listing
    that ran to its end must match that count."""
    g = build_poor_graph(P, census, c)
    count = count_c_ordinary(P, c, census)
    pts, _, _ = P.scaled_ints
    adj_sets = [set(a) for a in g.adj]

    def listed():
        for i in range(g.n):
            xi, yi = pts[i]
            for j in g.adj[i]:
                if j <= i:
                    continue
                dxj = pts[j][0] - xi
                dyj = pts[j][1] - yi
                for k in sorted(adj_sets[i] & adj_sets[j]):
                    if k > j and dxj * (pts[k][1] - yi) != dyj * (pts[k][0] - xi):
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


def find_case_rich_line(P: PointSet, census: LineCensus, c: int
                        ) -> tuple[RichCaseWitness, list[tuple[int, int, int]]]:
    """Rich-line path on the census's top line: pick an ordinary line (q, r)
    of the points off the rich line, exclude the rich-line points whose
    connection to q or r is itself too rich, and pair every survivor with
    (q, r).  census must come from line_census(P, top=True).

    Emits at least ceil(l/2) - 1 validated triangles, where l is the rich
    line's multiplicity; the exclusion sets are each strictly below l/4.
    """
    n = len(P)
    rich_line = census.top
    if rich_line is None or census.n != n:
        raise RichCasePreconditionError("census of P without its top line")
    on_idx = census.members[rich_line]
    l_i = len(on_idx)
    if not Constants.for_c(c).exceeds_alpha_n(l_i, n):
        raise RichCasePreconditionError(f"line multiplicity {l_i} not above alpha*n")
    on_set = set(on_idx)
    rest = PointSet(tuple(p for i, p in enumerate(P) if i not in on_set))
    try:
        _, q, r = find_ordinary_line(rest)
    except SylvesterGallaiError as exc:
        raise RichCasePreconditionError(f"remainder off the rich line: {exc}") from exc
    qi, ri = P.index[q], P.index[r]
    pts, _, _ = P.scaled_ints
    toward_q, mult_q = _pencil(pts, qi)
    toward_r, mult_r = _pencil(pts, ri)
    # the ordinary line picks up at most the one point where it crosses the
    # rich line, so its multiplicity in P is <= 3 and the qr side is safe
    if mult_q[toward_q[ri]] > 3:
        raise InvariantError("ordinary line of the remainder has extra points")
    too_rich_q = {i for i in on_idx if mult_q[toward_q[i]] > c}
    too_rich_r = {i for i in on_idx if mult_r[toward_r[i]] > c}
    crossing = {i for i in on_idx if toward_q[i] == toward_q[ri]}
    if len(crossing) > 1:
        raise InvariantError("the ordinary line meets the rich line twice")
    if crossing - (too_rich_q | too_rich_r):
        logger.info("rich-line case: excluding crossing point %s of the ordinary line",
                    next(iter(crossing)))
    # exact counting inclusions behind the proof's lower bound
    if not (4 * len(too_rich_q) < l_i and 4 * len(too_rich_r) < l_i):
        raise InvariantError("rich-line exclusions reach l/4")
    excluded = too_rich_q | too_rich_r | crossing
    survivors = [i for i in on_idx if i not in excluded]
    guarantee = (l_i + 1) // 2 - 1
    if len(survivors) < guarantee:
        raise InvariantError(f"{len(survivors)} survivors below the guarantee {guarantee}")
    triangles = sorted(tuple(sorted((s, qi, ri))) for s in survivors)
    witness = RichCaseWitness(rich_line=rich_line, q=q, r=r,
                              excluded=frozenset(excluded),
                              survivors=frozenset(survivors),
                              guarantee=guarantee)
    return witness, triangles


def count_c_ordinary(P: PointSet, c: int, census: Optional[LineCensus] = None) -> int:
    """Exact c-ordinary triangle count in O(n^2) time and O(n) memory.

    Works on the multiplicity census: a triple is c-ordinary iff none of its
    three pairs lies on a line with more than c points and the triple is not
    collinear.  Triples touching rich lines are removed by inclusion-exclusion
    over the graph H of pairs on rich lines; collinear triples on poor lines
    are subtracted via the census histogram.  A given census must be
    line_census(P, rich_threshold=c).

    H's cross-line triangles come from the point side.  Two distinct lines
    share at most one point, so listing the k_i rich lines through each point
    i builds the meeting graph M of the rich lines, with sum C(k_i, 2) edges,
    without intersecting any two lines.  Three pairwise meeting rich lines
    either pass through one point (C(k_i, 3) such triples at point i) or meet
    at three distinct points, which span a triangle of H: the cross-line
    term is T(M) - sum C(k_i, 3).  The cost beyond the census is O(n + |M|)
    plus counting T(M), with no loop over pairs or triples of rich lines.
    """
    n = len(P)
    if n < 3:
        return 0
    if census is None:
        census = line_census(P, rich_threshold=c)
    elif census.rich_threshold != c or census.n != n:
        raise ValueError(f"count_c_ordinary needs the census of P with rich_threshold={c}")
    total = comb(n, 3)
    collinear_poor = sum(cnt * comb(l, 3)
                         for l, cnt in census.count_by_mult.items() if l <= c)
    if not census.rich:
        return total - collinear_poor
    # H = graph of pairs on rich lines; rich lines induce vertex-disjoint-edge
    # cliques (two lines share at most one point).  Count triples with no
    # H-edge by inclusion-exclusion over edges, paths, and triangles of H.
    through: list[list[int]] = [[] for _ in range(n)]  # indices of the rich lines through i
    for a, (line, _) in enumerate(census.rich):
        for i in census.members[line]:
            through[i].append(a)
    mults = [mult for _, mult in census.rich]
    m_h = sum(comb(mult, 2) for mult in mults)
    tri_h = sum(comb(mult, 3) for mult in mults)
    paths = 0
    meets: list[list[int]] = [[] for _ in mults]
    for lines in through:
        paths += comb(sum(mults[a] - 1 for a in lines), 2)
        tri_h -= comb(len(lines), 3)
        for a, b in combinations(lines, 2):
            meets[a].append(b)
            meets[b].append(a)
    # M in PoorGraph's sorted-adjacency form; its vertices are the rich lines
    tri_h += count_triangles(PoorGraph(n=len(meets), adj=tuple(tuple(sorted(m)) for m in meets)))
    no_rich_pair = total - m_h * (n - 2) + paths - tri_h
    return no_rich_pair - collinear_poor


def find_c_ordinary(P: PointSet, constants: Constants = DEFAULT_CONSTANTS,
                    mode: str = "fast", limit: Optional[int] = None) -> TriangleReport:
    """Dispatching finder.

    fast:       rich-line path when some line exceeds alpha*n (lower-bound
                count), else full poor-graph enumeration (exact); an empty
                fast result falls back to the brute-force oracle so that a
                non-empty report is equivalent to existence.
    exhaustive: poor-graph listing with collinear filtering, up to limit
                triangles; the exact count comes from count_c_ordinary, and
                a listing that runs to its end must match it.
    count:      exact count without materializing any triangle list.

    Every mode runs one line_census(P, rich_threshold=c); the rich-line
    path adds one census of the points off the line.

    Degenerate inputs are classified and still searched exhaustively:
    triangles may exist below the theorem's regime.
    """
    if mode not in ("fast", "exhaustive", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    c = constants.c
    n = len(P)
    classification = classify_degeneracy(P)
    tag = classification.tag
    census = line_census(P, rich_threshold=c, top=mode == "fast") if n >= 2 else None
    spectrum = tuple(census.spectrum_table()) if census else ()

    def report(case, triangles, count, exact, witness=None):
        return TriangleReport(classification=classification, case_taken=case,
                              triangles=tuple(tuple(t) for t in triangles),
                              count=count, count_is_exact=exact,
                              constants=constants, rich_witness=witness,
                              spectrum=spectrum)

    if tag in (DegeneracyTag.TOO_SMALL, DegeneracyTag.ALL_COLLINEAR):
        return report(CaseTaken.DEGENERATE, (), 0, True)
    # TwoLineUnion inputs sit below the theorem's hypothesis but are still
    # searched exactly; the classification rides along in the report
    if mode == "count":
        return report(CaseTaken.POOR_GRAPH, (), count_c_ordinary(P, c, census), True)

    # fast mode: rich dispatch on l_i > alpha*n for the line of maximum
    # multiplicity, ties broken by canonical triple order
    if mode == "fast" and constants.exceeds_alpha_n(len(census.members[census.top]), n):
        try:
            witness, tris = find_case_rich_line(P, census, c)
        except RichCasePreconditionError:
            pass  # the points off the line are collinear: use the poor graph
        else:
            if tris:
                shown = tris if limit is None else tris[:limit]
                return report(CaseTaken.RICH_LINE, shown, len(tris), False, witness)
            count, tris = enumerate_all_c_ordinary(P, c, limit)
            return report(CaseTaken.BRUTE_FORCE_FALLBACK, tris, count, True)
    tris, count = find_case_poor_graph(P, census, c, limit)
    if mode == "fast" and count == 0:
        # poor-path zero is already exact, but re-confirm through the oracle:
        # the non-empty-iff-exists contract must not rest on a single path
        count, tris = enumerate_all_c_ordinary(P, c, limit)
        return report(CaseTaken.BRUTE_FORCE_FALLBACK, tris, count, True)
    return report(CaseTaken.POOR_GRAPH, tris, count, True)
