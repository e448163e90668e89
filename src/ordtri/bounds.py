"""Empirical verifiers for the incidence bounds, the triangle-count lower
bound and the medium-line summations.

Each verifier judges counts that its caller supplies (the spectrum, the
number of lines and incidences, a graph's edges and triangles, the
multiplicity histogram) and never sees a point or a line, so one verdict
serves a line census as well as explicit lines and graphs.  All verdicts
are exact integer comparisons: a rational bound over a positive common
denominator, a fractional power by cubing both sides, never floating point.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import comb, gcd

from .incidence import InvariantError
from .triangles import DEFAULT_C_PRIME, Constants, exceeds_alpha_n


class BoundReport(namedtuple("BoundReport",
                             "name instance checked threshold vacuous details scale")):
    """The integers checked and threshold over the integer scale >= 1 are the
    exact quantity on the constrained side and the bound it must respect, so
    the bound is satisfied iff checked <= threshold; vacuous marks a threshold
    direction met trivially (e.g. a negative lower bound); details is a new
    empty dict by default."""
    __slots__ = ()

    def __new__(cls, name, instance, checked, threshold, vacuous=False, details=None, scale=1):
        if scale < 1:  # the verdict compares numerators: a scale <= 0 would flip or void it
            raise ValueError(f"scale must be >= 1, got {scale}")
        return super().__new__(cls, name, instance, checked, threshold, vacuous,
                               {} if details is None else details, scale)

    @property
    def satisfied(self) -> bool:
        return self.checked <= self.threshold


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def st_threshold(n: int, k: int, c_prime: int = DEFAULT_C_PRIME) -> tuple[int, int]:
    """Upper bound on f(k), c'*n^2/k^3 for k <= sqrt(n), else c'*n/k, as a
    reduced (numerator, denominator > 0).

    The branch test k <= sqrt(n) is evaluated as k*k <= n.
    """
    if n < 2 or k < 2:
        raise ValueError("st_threshold requires n, k >= 2")
    if k * k <= n:
        return _reduced(c_prime * n * n, k ** 3)
    return _reduced(c_prime * n, k)


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
        num, den = st_threshold(n, k, c_prime)
        reports.append(BoundReport(name=f"line-richness f({k})", instance=f"n={n}",
                                   checked=fk * den, threshold=num, scale=den))
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
        checked=8 * max(excess, 0) ** 3,
        threshold=125 * (m * n) ** 2,
        details={"incidences": inc, "excess_over_m_plus_n": excess},
    )


def eg_lower_bound(n: int, m: int) -> tuple[int, int]:
    """Triangle-count lower bound m*(4m - n^2)/(3n) as a reduced (numerator,
    denominator > 0); may be negative (vacuous)."""
    if n < 1:
        raise ValueError("eg_lower_bound requires n >= 1")
    return _reduced(m * (4 * m - n * n), 3 * n)


def check_eg(n: int, m: int, t3: int, instance: str = "") -> BoundReport:
    """t3(G) >= m*(4m - n^2)/(3n) for a graph G with n vertices, m edges and
    t3 triangles; theorem-backed for every simple graph."""
    num, den = eg_lower_bound(n, m) if n >= 1 else (0, 1)
    # checked <= threshold convention: the derived lower bound is the
    # constrained quantity, the observed triangle count the ceiling
    return BoundReport(
        name="triangle lower bound",
        instance=instance or f"n={n} m={m}",
        checked=num,
        threshold=t3 * den,
        vacuous=num <= 0,
        details={"triangles": t3}, scale=den,
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
    # every quantity over the scale c + 1, the denominator of c'*n^2/(c+1)
    unit, scale = c_prime * n * n, c + 1
    # sqrt(n) split decided exactly via l*l <= n
    low = sum(comb(l, 2) * k for l, k in count_by_mult.items() if c < l and l * l <= n)
    high = sum(comb(l, 2) * k for l, k in count_by_mult.items() if c < l and l * l > n)
    combined = sum(comb(l, 2) * k for l, k in count_by_mult.items() if c < l)
    if combined != low + high:
        raise InvariantError("medium-line pair sum differs from its two dyadic halves")
    instance = f"n={n} c={c} c'={c_prime}"
    reports = [
        BoundReport(name="medium-line pair sum", instance=instance,
                    checked=combined * scale, threshold=24 * unit, scale=scale),
        BoundReport(name="medium-line pair sum (below sqrt n)", instance=instance,
                    checked=low * scale, threshold=8 * unit, scale=scale),
        BoundReport(name="medium-line pair sum (above sqrt n)", instance=instance,
                    checked=high * scale, threshold=16 * unit, scale=scale),
    ]
    # corollary on the poor-graph edge count
    poor_edges = sum(comb(l, 2) * k for l, k in count_by_mult.items() if l <= c)
    floor_edges = comb(n, 2) * scale - 24 * unit
    reports.append(BoundReport(
        name="poor-graph edge floor", instance=instance,
        checked=floor_edges, threshold=poor_edges * scale,
        vacuous=floor_edges <= 0,
        details={"poor_edges": poor_edges}, scale=scale))
    return reports
