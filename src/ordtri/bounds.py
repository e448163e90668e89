"""Empirical verifiers for the incidence bounds, the triangle-count lower
bound and the medium-line summations.

Each verifier judges counts that its caller supplies (the spectrum, the
number of lines and incidences, a graph's edges and triangles, the
multiplicity histogram) and never sees a point or a line, so one verdict
serves a line census as well as explicit lines and graphs.  All verdicts
are exact: fractional-power comparisons are decided by cubing both sides in
integer arithmetic, never by floating point.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import comb

from .incidence import InvariantError
from .triangles import DEFAULT_C_PRIME, Constants, exceeds_alpha_n


class BoundReport(namedtuple("BoundReport", "name instance checked threshold vacuous details")):
    """checked is the exact quantity on the constrained side, threshold the
    exact bound it must respect, and the bound is satisfied iff
    checked <= threshold; vacuous marks a threshold direction met trivially
    (e.g. a negative lower bound); details is a new empty dict by default."""
    __slots__ = ()

    def __new__(cls, name, instance, checked, threshold, vacuous=False, details=None):
        return super().__new__(cls, name, instance, checked, threshold, vacuous,
                               {} if details is None else details)

    @property
    def satisfied(self) -> bool:
        return self.checked <= self.threshold


def st_threshold(n: int, k: int, c_prime: int = DEFAULT_C_PRIME) -> Fraction:
    """Upper bound on f(k): c'*n^2/k^3 for k <= sqrt(n), else c'*n/k.

    The branch test k <= sqrt(n) is evaluated as k*k <= n.
    """
    if n < 2 or k < 2:
        raise ValueError("st_threshold requires n, k >= 2")
    if k * k <= n:
        return Fraction(c_prime * n * n, k ** 3)
    return Fraction(c_prime * n, k)


def check_st(n: int, spectrum: Iterable[tuple[int, int]], c_prime: int = DEFAULT_C_PRIME
             ) -> list[BoundReport]:
    """f(k) <= st_threshold(n, k, c') for every (k, f(k)) of the spectrum of
    an n-point set, k = 2 up to the max multiplicity.

    Theorem-backed: a violation signals an implementation bug, never a
    property of the input.
    """
    if n < 2:
        raise ValueError("check_st requires at least 2 points")
    reports = []
    for k, fk in spectrum:
        thr = st_threshold(n, k, c_prime)
        reports.append(BoundReport(
            name=f"line-richness f({k})",
            instance=f"n={n}",
            checked=Fraction(fk),
            threshold=thr,
        ))
    return reports


def check_incidence_bound(n: int, m: int, inc: int) -> BoundReport:
    """I <= 2.5*m^(2/3)*n^(2/3) + m + n for inc = I incidences between n
    points and m distinct lines, decided in exact integer arithmetic.

    With D = I - m - n, the verdict for D > 0 is 8*D^3 <= 125*(m*n)^2,
    the cube of 2D <= 5*(mn)^(2/3); no float enters the comparison.
    """
    excess = inc - m - n
    # report threshold as the cubed comparison to stay exact; at D <= 0 the
    # checked side is 0, so the verdict holds
    return BoundReport(
        name="point-line incidences",
        instance=f"n={n} m={m}",
        checked=Fraction(8 * max(excess, 0) ** 3),
        threshold=Fraction(125 * (m * n) ** 2),
        details={"incidences": inc, "excess_over_m_plus_n": excess},
    )


def eg_lower_bound(n: int, m: int) -> Fraction:
    """Triangle-count lower bound m*(4m - n^2)/(3n); may be negative (vacuous)."""
    if n < 1:
        raise ValueError("eg_lower_bound requires n >= 1")
    return Fraction(m * (4 * m - n * n), 3 * n)


def check_eg(n: int, m: int, t3: int, instance: str = "") -> BoundReport:
    """t3(G) >= m*(4m - n^2)/(3n) for a graph G with n vertices, m edges and
    t3 triangles; theorem-backed for every simple graph."""
    lower = eg_lower_bound(n, m) if n >= 1 else Fraction(0)
    # checked <= threshold convention: the derived lower bound is the
    # constrained quantity, the observed triangle count the ceiling
    return BoundReport(
        name="triangle lower bound",
        instance=instance or f"n={n} m={m}",
        checked=lower,
        threshold=Fraction(t3),
        vacuous=lower <= 0,
        details={"triangles": t3},
    )


def check_medium_sum(n: int, count_by_mult: dict[int, int], constants: Constants
                     ) -> list[BoundReport]:
    """Sum of C(l_i, 2) over the medium lines (c < l_i <= alpha*n) of an
    n-point set with count_by_mult[l] lines of l points, against
    24*c'*n^2/(c+1), plus the two dyadic halves against 8 and 16 times
    c'*n^2/(c+1).

    Precondition (the poor-graph case hypothesis): no line exceeds alpha*n,
    so every line above c is medium.
    """
    c = constants.c
    c_prime = constants.c_prime
    if c_prime is None:
        raise ValueError("check_medium_sum needs constants with c_prime bound")
    if exceeds_alpha_n(c, max(count_by_mult, default=0), n):
        raise ValueError("case (ii) hypothesis fails: a line exceeds alpha*n")
    unit = Fraction(c_prime * n * n, c + 1)
    # sqrt(n) split decided exactly via l*l <= n
    low = sum(comb(l, 2) * k for l, k in count_by_mult.items() if c < l and l * l <= n)
    high = sum(comb(l, 2) * k for l, k in count_by_mult.items() if c < l and l * l > n)
    combined = sum(comb(l, 2) * k for l, k in count_by_mult.items() if c < l)
    if combined != low + high:
        raise InvariantError("medium-line pair sum differs from its two dyadic halves")
    instance = f"n={n} c={c} c'={c_prime}"
    reports = [
        BoundReport(name="medium-line pair sum", instance=instance,
                    checked=Fraction(combined), threshold=24 * unit),
        BoundReport(name="medium-line pair sum (below sqrt n)", instance=instance,
                    checked=Fraction(low), threshold=8 * unit),
        BoundReport(name="medium-line pair sum (above sqrt n)", instance=instance,
                    checked=Fraction(high), threshold=16 * unit),
    ]
    # corollary on the poor-graph edge count
    poor_edges = sum(comb(l, 2) * k for l, k in count_by_mult.items() if l <= c)
    floor_edges = Fraction(comb(n, 2)) - 24 * unit
    reports.append(BoundReport(
        name="poor-graph edge floor", instance=instance,
        checked=floor_edges, threshold=Fraction(poor_edges),
        vacuous=floor_edges <= 0,
        details={"poor_edges": poor_edges}))
    return reports
