"""The rich-line case of the finder: the Sylvester-Gallai ordinary-line
search and the rich-line witness, which reads every line multiplicity it
needs from the census it is given.

find_c_ordinary imports this module in fast mode only, so count, exhaustive
and verify-bounds do not compile it.  It is imported on first use, so the
functions of other modules are looked up at call time: a binding copied at
import would keep whatever wrapper a test or tracer had installed then.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence

from . import incidence, triangles
from .geom import CanonicalLine, PointSet
from .incidence import InvariantError, LineCensus, SylvesterGallaiError


class RichCasePreconditionError(RuntimeError):
    """Rich-line path invoked on an instance that does not satisfy its gate."""


class RichCaseWitness(namedtuple("RichCaseWitness",
                                  "rich_line q r excluded survivors guarantee")):
    """The rich line, the P-indices q and r of the ordinary pair off it, the
    frozensets of rich-line indices unusable as apex (excluded) and yielding
    triangles (survivors), and the proven lower bound ceil(l/2) - 1
    (guarantee)."""
    __slots__ = ()


def find_ordinary_line(P: PointSet, indices: Sequence[int] | None = None
                       ) -> tuple[CanonicalLine, int, int]:
    """An ordinary line of the points at indices (default: all of P), one
    through exactly two of them (Sylvester-Gallai), with their P-indices.

    The pair (i, j) is the lexicographically first with no third point on
    its line.  Row i groups the later points by their slope key through i,
    as the census does, and notes the points of each line holding two of
    them; a lone point on a line no earlier row noted through i is
    ordinary.  Ordinary lines are plentiful (Green and Tao 2013), so the
    search typically stops in its first row; it never keys more pairs than
    one census.
    """
    idx = sorted(range(len(P)) if indices is None else indices)
    if len(idx) < 3:
        raise SylvesterGallaiError("Sylvester-Gallai hypothesis violated: fewer than 3 points")
    lifted, level, _ = P.lifted
    sub = [lifted[k] for k in idx]
    noted = set()  # (a, key): a lies on a noted line of that slope
    for a in range(len(sub) - 1):
        keys = incidence._slope_keys(sub[a], sub[a + 1:], level)
        groups = Counter(keys)
        if a == 0 and len(groups) == 1:  # one line through the first point holds them all
            raise SylvesterGallaiError("Sylvester-Gallai hypothesis violated: collinear input")
        for b, key in enumerate(keys, a + 1):
            if groups[key] == 1 and (a, key) not in noted:
                line = CanonicalLine.of(*incidence._cross(P.homogeneous, idx[a], idx[b]))
                return line, idx[a], idx[b]
        noted.update((b, key) for b, key in enumerate(keys, a + 1) if groups[key] > 1)
    raise InvariantError("a non-collinear set without an ordinary line")


def find_case_rich_line(P: PointSet, census: LineCensus, c: int
                        ) -> tuple[RichCaseWitness, list[tuple[int, int, int]]]:
    """Rich-line path on the census's top line: take the ordinary line (q, r)
    of the points off the rich line through their first such index pair
    (find_ordinary_line), exclude the rich-line points whose connection to
    q or r is itself too rich (bit set in the census's rich-pair graph H),
    and pair every survivor with (q, r).  census must come from
    line_census(P, rich_threshold=c, top=True).

    Emits at least max(ceil(l/2) - 1, 1) validated triangles, where l is the
    rich line's multiplicity; the exclusion sets are each strictly below l/4.
    """
    n = len(P)
    rich_line = census.top
    if rich_line is None or census.n != n:
        raise RichCasePreconditionError("census of P without its top line")
    on_idx = census.members[rich_line]
    l_i = len(on_idx)
    if not triangles.exceeds_alpha_n(c, l_i, n):
        raise RichCasePreconditionError(f"line multiplicity {l_i} not above alpha*n")
    on_set = set(on_idx)
    try:
        _, qi, ri = find_ordinary_line(P, [i for i in range(n) if i not in on_set])
    except SylvesterGallaiError as exc:
        raise RichCasePreconditionError(f"remainder off the rich line: {exc}") from exc
    # the ordinary line picks up at most the one point where it crosses the
    # rich line, so its multiplicity in P is <= 3 and the qr side is safe
    a, b, d = incidence._cross(P.homogeneous, qi, ri)
    on_qr = {k for k, (x, y, w) in enumerate(P.homogeneous) if a * x + b * y + d * w == 0}
    if len(on_qr) > 3:
        raise InvariantError("ordinary line of the remainder has extra points")
    crossing = on_set & on_qr
    if len(crossing) > 1:
        raise InvariantError("the ordinary line meets the rich line twice")
    h = triangles._rich_pairs(P, census, c)  # bit i of h[k]: line ki holds > c points
    too_rich_q = {i for i in on_idx if h[qi] >> i & 1}
    too_rich_r = {i for i in on_idx if h[ri] >> i & 1}
    # exact counting inclusions behind the proof's lower bound
    if not (4 * len(too_rich_q) < l_i and 4 * len(too_rich_r) < l_i):
        raise InvariantError("rich-line exclusions reach l/4")
    excluded = too_rich_q | too_rich_r | crossing
    survivors = [i for i in on_idx if i not in excluded]
    guarantee = (l_i + 1) // 2 - 1
    # at l_i = 2 the guarantee is 0, but no apex is too rich (4*|too_rich| < 2)
    # and crossing holds at most one of the two: a survivor remains for every l_i
    if len(survivors) < max(guarantee, 1):
        raise InvariantError(f"{len(survivors)} survivors, the guarantee is "
                             f"max({guarantee}, 1)")
    tris = sorted(tuple(sorted((s, qi, ri))) for s in survivors)
    witness = RichCaseWitness(rich_line=rich_line, q=qi, r=ri,
                              excluded=frozenset(excluded),
                              survivors=frozenset(survivors),
                              guarantee=guarantee)
    return witness, tris
