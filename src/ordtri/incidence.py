"""The line census and degeneracy classification.

The census is the one pass over point pairs: it gives the multiplicity
histogram of the determined lines, and on request the graph of the pairs
on rich lines or the line of most points, without keeping an object per
line.  Its O(n^2) kernel keys each pair by one floor division, the exact
slope key of its line (PointSet.lifted).
"""
from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from math import comb, gcd

from .geom import CanonicalLine, PointSet


class UnderdeterminedError(ValueError):
    """Fewer than two points: no determined lines."""


class SylvesterGallaiError(ValueError):
    """Ordinary-line finder called on a collinear or too-small set."""


class InvariantError(RuntimeError):
    """An identity that holds for every input failed: a defect, not bad input.

    Raised by explicit checks, so that it still fires under ``python -O``."""


def _scaled_line_key(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """Primitive sign-normalized triple of the line through two scaled points.

    No package code keys pairs one at a time: the tests' brute-force oracle
    does, and bench/tracing.py counts calls of this name as pair passes."""
    a = y1 - y2
    b = x2 - x1
    c = x1 * y2 - x2 * y1
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


def _slope_keys(p0, others, level: int | None = None) -> list[int]:
    """The slope key (PointSet.lifted) of the line through the lifted point
    p0, an (X, Y) or a homogeneous (X, Y, W), and each other one: equal iff
    collinear with p0.  Without the level key, no other point may be level
    with p0: no branch."""
    if len(p0) == 2:
        x0, y0 = p0
        if level is None:
            return [(x - x0) // (y0 - y) for x, y in others]
        return [(x - x0) // (y0 - y) if y != y0 else level for x, y in others]
    x0, y0, w0 = p0  # x0 and each x are shifted by S already
    if level is None:
        return [(x * w0 - x0 * w) // (y0 * w - y * w0) for x, y, w in others]
    return [(x * w0 - x0 * w) // d if (d := y0 * w - y * w0) else level for x, y, w in others]


def _cross(homogeneous, i: int, j: int) -> tuple[int, int, int]:
    """A triple (a, b, c) of the line through points i and j: the cross
    product of their homogeneous triples, neither reduced nor normalized."""
    (x1, y1, w1), (x2, y2, w2) = homogeneous[i], homogeneous[j]
    return y1 * w2 - y2 * w1, x2 * w1 - x1 * w2, x1 * y2 - x2 * y1


class DegeneracyTag(Enum):
    TOO_SMALL = "TooSmall"
    ALL_COLLINEAR = "AllCollinear"
    TWO_LINE_UNION = "TwoLineUnion"
    NON_DEGENERATE = "NonDegenerate"


class DegeneracyClass(namedtuple("DegeneracyClass", "tag witness", defaults=((),))):
    """A DegeneracyTag with its witness lines, a tuple of CanonicalLine."""
    __slots__ = ()


def classify_degeneracy(P: PointSet) -> DegeneracyClass:
    """TooSmall / AllCollinear / TwoLineUnion / NonDegenerate with witnesses.

    Two-line containment reduces to three candidates: if P sits on two lines,
    two points of any non-collinear triple share a cover line, and those two
    points determine it.  Each candidate is checked by testing whether the
    points off it are collinear, each test a*X + b*Y + c*W == 0 on the
    point's homogeneous integer triple.
    """
    n = len(P)
    if n < 3:
        return DegeneracyClass(DegeneracyTag.TOO_SMALL)
    homogeneous = P.homogeneous

    def off(line: CanonicalLine, indices) -> list[int]:
        a, b, c = line
        return [i for i in indices
                if a * homogeneous[i][0] + b * homogeneous[i][1] + c * homogeneous[i][2]]

    base = CanonicalLine.of(*_cross(homogeneous, 0, 1))
    first_off = off(base, range(2, n))
    if not first_off:
        return DegeneracyClass(DegeneracyTag.ALL_COLLINEAR, (base,))
    k = first_off[0]
    for cand in (base, CanonicalLine.of(*_cross(homogeneous, 0, k)),
                 CanonicalLine.of(*_cross(homogeneous, 1, k))):
        rest = off(cand, range(n))
        if len(rest) == 1:
            anchor = next(i for i in range(n) if i != rest[0])  # on cand
            second = CanonicalLine.of(*_cross(homogeneous, rest[0], anchor))
            return DegeneracyClass(DegeneracyTag.TWO_LINE_UNION, (cand, second))
        second = CanonicalLine.of(*_cross(homogeneous, rest[0], rest[1]))
        if not off(second, rest[2:]):
            return DegeneracyClass(DegeneracyTag.TWO_LINE_UNION, (cand, second))
    return DegeneracyClass(DegeneracyTag.NON_DEGENERATE)


# --- the line census ----------------------------------------------------------

class LineCensus(namedtuple("LineCensus", "n count_by_mult rich_threshold rich top members")):
    """Multiplicity census of the determined lines, without materializing them.

    count_by_mult[l] = number of determined lines with exactly l points.
    rich (empty unless a rich_threshold t is given) is the rich-pair graph
    H as n bitsets: bit v of rich[u] is set iff points u and v lie on a line
    with more than t points.  top (None unless asked for) is the line of
    maximum multiplicity whose first point in sweep order comes first, the
    lowest canonical triple of such lines through it; members maps it to
    its point indices, ascending (a new empty dict by default).
    """
    __slots__ = ()

    def __new__(cls, n, count_by_mult, rich_threshold, rich=(), top=None, members=None):
        return super().__new__(cls, n, count_by_mult, rich_threshold, rich, top,
                               {} if members is None else members)

    @property
    def line_count(self) -> int:
        return sum(self.count_by_mult.values())

    @property
    def max_multiplicity(self) -> int:
        return max(self.count_by_mult, default=0)

    def f(self, k: int) -> int:
        if k < 2:
            raise ValueError("spectrum undefined for k < 2")
        return sum(c for l, c in self.count_by_mult.items() if l >= k)

    def spectrum_table(self) -> list[tuple[int, int]]:
        return [(k, self.f(k)) for k in range(2, self.max_multiplicity + 1)]


def line_census(P: PointSet, rich_threshold: int | None = None, *,
                top: bool = False) -> LineCensus:
    """O(n^2)-time, O(n)-memory census of determined-line multiplicities
    (H, when asked for, takes n^2 bits).

    The points are visited in sweep order: y descending, then x ascending,
    an order of the coordinates only (PointSet.lifted).  Each point groups
    the points after it by the slope key of their line through it; those
    level with it come first and take the level key.  A line whose points
    come in sweep order p1, ..., pl produces one group of each size l-1,
    ..., 1, so the number of groups of size s equals f(s+1), and the
    histogram follows without storing any line.  Most rows on a generic set have no repeated
    key; such a row only counts its pairs.

    Only the first point p1 of a line in sweep order owns its group of
    size l-1, which is what the optional reports rest on:

    - rich_threshold t >= 2: the rich-pair graph H.  The owner of a line
      of more than t points sees the others in one group of size >= t.  It
      checks each of them on the line through itself and the first, then
      ORs the line's clique into the row of every point on it.  Two points
      fix a line, so a later point of the line finds a bit of its group
      already in its own row, and skips the group.  The owner also counts
      the rich groups it leaves each of them, so that a row owning none of
      its rich groups skips collecting them.
    - top: the first point to see a group of the largest size owns a line
      of maximum multiplicity; top is the least canonical triple among its
      groups of that size, with its members.
    """
    if rich_threshold is not None and rich_threshold < 2:
        raise ValueError(f"rich_threshold must be >= 2, got {rich_threshold}")
    n = len(P)
    if n < 2:
        raise UnderdeterminedError("underdetermined: need at least 2 points")
    lifted, level, sweep = P.lifted
    order = sorted(range(n), key=sweep.__getitem__)
    swept = [lifted[k] for k in order]
    below = [n] * n  # below[r]: the first point after point r in sweep order that is below it
    for r in range(n - 2, -1, -1):
        below[r] = below[r + 1] if sweep[order[r + 1]][0] == sweep[order[r]][0] else r + 1
    group_size_hist: Counter[int] = Counter()
    homogeneous = P.homogeneous
    rich = () if rich_threshold is None else [0] * n
    owned_before = [0] * n  # P-index -> its rich groups on lines an earlier point owns
    top_size, top_row, top_keys, top_groups = 0, 0, None, None
    for r in range(n - 1):
        end = below[r]
        keys = groups = None  # free the last point's groups before building these
        keys = [level] * (end - r - 1) + _slope_keys(swept[r], swept[end:])
        if len(set(keys)) < len(keys):
            groups = Counter(keys)
            group_size_hist.update(groups.values())
            largest = max(groups.values())
        else:  # no two later points share a line through this one: all groups of one
            group_size_hist[1] += len(keys)
            largest = 1
        if rich_threshold is not None and largest >= rich_threshold:  # so groups is set
            u = order[r]
            rich_groups = {key: [] for key, size in groups.items() if size >= rich_threshold}
            if len(rich_groups) > owned_before[u]:  # u owns one of them: collect them
                for k, key in zip(order[r + 1:], keys):
                    if key in rich_groups:
                        rich_groups[key].append(k)
                for line in rich_groups.values():  # the line's later points, in sweep order
                    if rich[u] >> line[0] & 1:  # an earlier point owns this line
                        continue
                    a, b, c = _cross(homogeneous, u, line[0])
                    clique = 1 << u
                    for k in line:
                        x, y, w = homogeneous[k]
                        if a * x + b * y + c * w:
                            raise InvariantError(f"point {k} is grouped on the line through "
                                                 f"points {u} and {line[0]} but is off it")
                        clique |= 1 << k
                    for k in (u, *line):
                        rich[k] |= clique ^ 1 << k
                    for k in line[:len(line) - rich_threshold]:  # k sees >= t later points of it
                        owned_before[k] += 1
        if top and largest > top_size:
            top_size, top_row, top_keys, top_groups = largest, r, keys, groups
    if sum(s * c for s, c in group_size_hist.items()) != comb(n, 2):
        raise InvariantError("census groups do not cover every pair once")
    count_by_mult = {
        l: group_size_hist.get(l - 1, 0) - group_size_hist.get(l, 0)
        for l in range(2, max(group_size_hist, default=1) + 2)
        if group_size_hist.get(l - 1, 0) - group_size_hist.get(l, 0) > 0
    }
    if sum(comb(l, 2) * c for l, c in count_by_mult.items()) != comb(n, 2):
        raise InvariantError("pair-sum identity violated by the census")
    top_line, members = None, {}
    if top:
        top_line = min(CanonicalLine.of(*_cross(homogeneous, order[top_row], k))
                       for k, key in zip(order[top_row + 1:], top_keys)
                       if top_groups is None or top_groups[key] == top_size)
        a, b, c = top_line
        members[top_line] = tuple(k for k, (x, y, w) in enumerate(homogeneous)
                                  if a * x + b * y + c * w == 0)
        if len(members[top_line]) != top_size + 1:
            raise InvariantError(f"line {top_line.triple()} holds {len(members[top_line])} "
                                 f"points, the census gives {top_size + 1}")
    return LineCensus(n=n, count_by_mult=count_by_mult, rich_threshold=rich_threshold,
                      rich=rich, top=top_line, members=members)
