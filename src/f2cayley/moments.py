"""Exact first and second moments of the subspace-clique count.

M is the number of m-dimensional subspaces whose 2^m - 1 nonzero elements all
land in a uniformly random generator set, so E M = [n choose m]_2 * 2^-(2^m-1)
and the second moment decomposes over pairs of subspaces by intersection
dimension j, the union of the two nonzero parts having 2^(m+1) - 2^j - 1
elements.  Everything is computed exactly: each moment is an integer
numerator over one power of two, made a `Fraction` once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .errors import BudgetExceededError, PreconditionError
from .gf2 import gaussian_binomial, gaussian_row

__all__ = [
    "pairs_by_intersection",
    "expected_M",
    "variance_M",
    "MomentReport",
    "moment_report",
    "EqknCheck",
    "eqkn_check",
]


# The largest m whose moments are computed.  E M and Var M are numerators
# over 2^(2^m - 1) and 2^(2^(m+1) - 2), so each step of m doubles their bits:
# moment_report(64, 20) took 6-7 s on a 2-core host (`f2cayley moments` 7-8 s
# in all), and m = 30 would need integers of 2^31 bits.
MAX_M = 20


def _require_m(name: str, n: int, m: int, low: int) -> None:
    if not low <= m <= n:
        raise PreconditionError(f"{name} needs {low} <= m <= n")
    if m > MAX_M:
        raise BudgetExceededError(
            f"{name} refuses m = {m} > {MAX_M}: the moments at m have "
            f"denominators of up to {(1 << (m + 1)) - 2} bits")


def _pair_counts(n: int, m: int, g: int) -> List[int]:
    """Ordered pairs of m-dimensional subspaces of F_2^n meeting in dim j, for
    j = 0..m and g = [n, m]_2; the integer core of every moment below."""
    inner = gaussian_row(m, m)
    outer = gaussian_row(n - m, min(m, n - m))
    return [
        g * inner[j] * (1 << ((m - j) * (m - j))) * outer[m - j] if m - j <= n - m else 0
        for j in range(m + 1)
    ]


def _var_numerator(n: int, m: int, g: int) -> int:
    """Var M times 2^(2^(m+1) - 2), for g = [n, m]_2.

    A pair meeting in dim j covers 2^(m+1) - 2^j - 1 nonzero elements, so over
    that common denominator its weight is 2^(2^j - 1), and (E M)^2 is g^2.
    """
    return sum(p << ((1 << j) - 1) for j, p in enumerate(_pair_counts(n, m, g))) - g * g


def _dyadic(num: int, e: int) -> Fraction:
    """num / 2^e as a Fraction, for any integer e."""
    return Fraction(num, 1 << e) if e >= 0 else Fraction(num << -e)


def pairs_by_intersection(n: int, m: int, j: int) -> int:
    """Ordered pairs of m-dimensional subspaces of F_2^n meeting in dim j.

    Fix H, pick the intersection inside it, then extend to H' meeting H
    exactly there: [n,m] * [m,j] * 2^((m-j)^2) * [n-m, m-j], all base-2
    Gaussian binomials.
    """
    if not 0 <= j <= m <= n:
        raise PreconditionError("pairs_by_intersection needs 0 <= j <= m <= n")
    if m - j > n - m:
        return 0
    return _pair_counts(n, m, gaussian_binomial(n, m))[j]


def expected_M(n: int, m: int) -> Fraction:
    """E M = [n choose m]_2 * 2^-(2^m - 1), exactly."""
    _require_m("expected_M", n, m, 0)
    return _dyadic(gaussian_binomial(n, m), (1 << m) - 1)


def variance_M(n: int, m: int) -> Fraction:
    """Var M over pairs of subspaces split by intersection dimension, as one
    integer numerator over 2^(2^(m+1) - 2)."""
    _require_m("variance_M", n, m, 0)
    return _dyadic(_var_numerator(n, m, gaussian_binomial(n, m)), (1 << (m + 1)) - 2)


@dataclass(frozen=True)
class MomentReport:
    n: int
    m: int
    e_m: Fraction
    var_m: Fraction
    paper_e_lb: Fraction
    paper_var_ub: Fraction
    cheb: Fraction
    cheb_ub: Fraction
    holds_e: bool
    holds_var: bool
    holds_cheb: bool


def moment_report(n: int, m: int) -> MomentReport:
    """Exact moments next to the closed-form bounds they are claimed to obey.

    holds_e (E M >= 2^(nm - m^2 - 2^m)) is a theorem at every size; the
    variance and Chebyshev comparisons are asymptotic claims and their flags
    are reported without being asserted anywhere.  Like `expected_M` and
    `variance_M`, it refuses m > MAX_M = 20 with BudgetExceededError.
    """
    _require_m("moment_report", n, m, 1)
    g = gaussian_binomial(n, m)
    var_num = _var_numerator(n, m, g)
    e = _dyadic(g, (1 << m) - 1)
    v = _dyadic(var_num, (1 << (m + 1)) - 2)
    e_lb = _dyadic(1, m * m + (1 << m) - n * m)
    # 2 * sum over l of 2^f(l), as one numerator over the least 2^f(l)
    exps = [2 * m * n - (1 << (m + 1)) + (1 << l) - n * l for l in range(1, m + 1)]
    low = min(exps)
    var_ub = _dyadic(sum(1 << (f - low) for f in exps), -(low + 1))
    cheb = Fraction(var_num, g * g)  # Var M / (E M)^2: the denominators cancel
    cheb_ub = _dyadic(8 * m, n - 2 * m * m)
    return MomentReport(
        n=n, m=m, e_m=e, var_m=v, paper_e_lb=e_lb, paper_var_ub=var_ub,
        cheb=cheb, cheb_ub=cheb_ub,
        holds_e=e >= e_lb, holds_var=v <= var_ub, holds_cheb=cheb <= cheb_ub,
    )


@dataclass(frozen=True)
class EqknCheck:
    n: int
    m: int
    value: int
    nonpositive: bool


def eqkn_check(n: int, m: int) -> EqknCheck:
    """Evaluate 2^m - n(m - 1) - 2, the margin that keeps the second-moment
    exponent nonnegative; pure integer arithmetic."""
    if n < 2:
        raise PreconditionError("eqkn_check needs n >= 2")
    if m < 1:
        raise PreconditionError("eqkn_check needs m >= 1")
    value = (1 << m) - n * (m - 1) - 2
    return EqknCheck(n=n, m=m, value=value, nonpositive=value <= 0)
