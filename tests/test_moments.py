"""Exact rational moments of the subspace-clique count."""
from fractions import Fraction
from functools import lru_cache
from itertools import product
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2cayley import (
    BudgetExceededError,
    PreconditionError,
    enumerate_subspaces,
    eqkn_check,
    expected_M,
    gaussian_binomial,
    moment_report,
    pairs_by_intersection,
    subspace_members,
    variance_M,
)
from f2cayley.cli import main
from f2cayley.moments import MomentReport


def _pow2(e):
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


@lru_cache(maxsize=None)
def _gauss(n, k):
    """[n, k]_2 by the q-Pascal rule [n, k] = [n-1, k-1] + 2^k [n-1, k]."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return _gauss(n - 1, k - 1) + (1 << k) * _gauss(n - 1, k)


def _pairs(n, m, j):
    """[n,m] * [m,j] * 2^((m-j)^2) * [n-m, m-j], or 0 when m - j > n - m."""
    if m - j > n - m:
        return 0
    return _gauss(n, m) * _gauss(m, j) * (1 << ((m - j) ** 2)) * _gauss(n - m, m - j)


def reference_moment_report(n, m):
    """The moments as sums of Fractions, one per term, each reduced on its own,
    with every Gaussian binomial from the q-Pascal rule rather than the
    package's code."""
    e = _gauss(n, m) * _pow2(-((1 << m) - 1))
    second = Fraction(0)
    for j in range(m + 1):
        second += _pairs(n, m, j) * _pow2(-((1 << (m + 1)) - (1 << j) - 1))
    v = second - e ** 2
    e_lb = _pow2(n * m - m * m - (1 << m))
    var_ub = 2 * sum(
        (_pow2(2 * m * n - (1 << (m + 1)) + (1 << l) - n * l) for l in range(1, m + 1)),
        Fraction(0),
    )
    cheb = v / (e * e)
    cheb_ub = 8 * m * _pow2(2 * m * m - n)
    return MomentReport(
        n=n, m=m, e_m=e, var_m=v, paper_e_lb=e_lb, paper_var_ub=var_ub,
        cheb=cheb, cheb_ub=cheb_ub,
        holds_e=e >= e_lb, holds_var=v <= var_ub, holds_cheb=cheb <= cheb_ub,
    )


def test_frozen_small_moments():
    assert expected_M(2, 1) == Fraction(3, 2)
    assert variance_M(2, 1) == Fraction(3, 4)
    assert variance_M(3, 1) == Fraction(7, 4)
    assert expected_M(8, 2) == Fraction(10795, 8)
    assert expected_M(3, 3) == Fraction(1, 128)
    assert expected_M(4, 0) == 1 and variance_M(4, 0) == 0


@pytest.mark.parametrize("grid", ["benchmark", "all_m_to_16"])
def test_moment_report_equals_fraction_sums(grid):
    """Every field, Fraction for Fraction, on the benchmark's (n <= 64,
    m <= min(n, 8)) and on all 1 <= m <= n <= 16."""
    if grid == "benchmark":
        args = [(n, m) for n in range(1, 65) for m in range(1, min(n, 8) + 1)]
    else:
        args = [(n, m) for n in range(1, 17) for m in range(1, n + 1)]
    for n, m in args:
        rep = moment_report(n, m)
        assert rep == reference_moment_report(n, m), (n, m)
        assert (rep.e_m, rep.var_m) == (expected_M(n, m), variance_M(n, m)), (n, m)


def test_pairs_by_intersection_equals_closed_form():
    for n in range(0, 65):
        for m in range(0, min(n, 8) + 1):
            assert [pairs_by_intersection(n, m, j) for j in range(m + 1)] == [
                _pairs(n, m, j) for j in range(m + 1)
            ], (n, m)


def test_pairs_by_intersection_hand_counts():
    # pairs of lines in F_2^2: 6 meeting only at 0, 3 coincident
    assert pairs_by_intersection(2, 1, 0) == 6
    assert pairs_by_intersection(2, 1, 1) == 3
    assert pairs_by_intersection(3, 2, 0) == 0  # two planes in F_2^3 must share a line


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_pairs_total_is_square_of_subspace_count(n, m):
    if m <= n:
        total = sum(pairs_by_intersection(n, m, j) for j in range(m + 1))
        assert total == gaussian_binomial(n, m) ** 2


def test_moments_match_exhaustive_averaging_n2():
    for n in (1, 2):
        N = 1 << n
        for m in range(1, n + 1):
            masks = [subspace_members(V).mask & ~1 for V in enumerate_subspaces(n, m)]
            tot = sq = cnt = 0
            for bits in product((0, 1), repeat=N - 1):
                A = sum(b << (i + 1) for i, b in enumerate(bits))
                Mv = sum(1 for mk in masks if mk & ~A == 0)
                tot += Mv
                sq += Mv * Mv
                cnt += 1
            assert Fraction(tot, cnt) == expected_M(n, m)
            assert Fraction(sq, cnt) - Fraction(tot, cnt) ** 2 == variance_M(n, m)


def test_moment_report_bounds_and_flags():
    rep = moment_report(3, 1)
    assert rep.var_m == Fraction(7, 4)
    assert rep.paper_var_ub == 4
    assert rep.holds_e and rep.holds_var
    assert rep.cheb == rep.var_m / rep.e_m**2
    rep62 = moment_report(6, 2)
    assert rep62.e_m == Fraction(651, 8)
    assert rep62.holds_e


def test_moments_past_the_largest_m_are_refused_at_once():
    # at m = 21 Var M's denominator has 2^22 - 2 bits; nothing is computed
    t0 = time.perf_counter()
    for f in (moment_report, expected_M, variance_M):
        with pytest.raises(BudgetExceededError, match="m = 21 > 20"):
            f(64, 21)
    assert time.perf_counter() - t0 < 1.0
    # the domain is checked first: m > n stays a precondition error
    with pytest.raises(PreconditionError):
        moment_report(3, 25)
    assert expected_M(20, 20) == Fraction(1, 1 << ((1 << 20) - 1))  # m = 20 is computed


def test_moment_csv_format(tmp_path):
    # the moments --csv file: a header and the row of moment_report(6, 2)
    path = tmp_path / "m.csv"
    assert main(["moments", "--n", "6", "--m", "2", "--csv", str(path)]) == 0
    header, row = path.read_text().splitlines()
    assert header.startswith("n,m,E_M,Var_M")
    assert row == "6,2,651/8,63147/64,16,8704,97/651,64,True,True,True"


def test_eqkn_values():
    assert eqkn_check(8, 4).value == -10
    assert eqkn_check(8, 5).value == -2
    assert eqkn_check(8, 5).nonpositive
    assert not eqkn_check(4, 4).nonpositive  # 16 - 12 - 2 = 2
    with pytest.raises(PreconditionError):
        eqkn_check(1, 1)
    with pytest.raises(PreconditionError):
        eqkn_check(4, 0)


def test_moment_preconditions():
    with pytest.raises(PreconditionError):
        expected_M(2, 3)
    with pytest.raises(PreconditionError):
        pairs_by_intersection(3, 2, 3)
    with pytest.raises(PreconditionError):
        moment_report(3, 0)
    with pytest.raises(PreconditionError):
        moment_report(65, 1)  # gaussian_binomial's n <= 64
    for n in range(0, 65):
        assert expected_M(n, 0) == 1 and variance_M(n, 0) == 0
