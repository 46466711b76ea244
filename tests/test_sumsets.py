"""Sumsets, restricted sumsets, stabilizers, and the additive inequalities."""
import random
from fractions import Fraction

import pytest

from f2cayley import (
    ElemSet,
    InvariantError,
    PreconditionError,
    doubling_stats,
    kneser_check,
    restricted_sumset,
    sandwich_check,
    subspace_members,
    sumset,
    sym,
)
from f2cayley import sumsets


def _oracle_sumset(n, xs, ys):
    return ElemSet.from_elements(n, {x ^ y for x in xs for y in ys})


def _oracle_restricted(n, xs, ys):
    return ElemSet.from_elements(n, {x ^ y for x in xs for y in ys if x != y})


def test_sumsets_match_set_comprehension_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randrange(1, 7)
        X = ElemSet(n, rng.getrandbits(1 << n) | 1 << rng.getrandbits(n))
        Y = ElemSet(n, rng.getrandbits(1 << n) | 1 << rng.getrandbits(n))
        assert sumset(X, Y) == _oracle_sumset(n, X.elements(), Y.elements())
        assert restricted_sumset(X, Y) == _oracle_restricted(n, X.elements(), Y.elements())


def test_sumset_requires_matching_ambient():
    with pytest.raises(PreconditionError):
        sumset(ElemSet.full(2), ElemSet.full(3))


def test_sym_of_subspace_union_is_that_subspace():
    # S = a subspace coset pair: stabilizer is exactly the subspace
    S = ElemSet.from_elements(4, [0, 1, 2, 3])  # span{1,2}
    V = sym(S)
    assert V.dim == 2
    assert sorted(subspace_members(V)) == [0, 1, 2, 3]


def test_sym_generic_set_is_trivial():
    S = ElemSet.from_elements(3, [0, 1, 3])
    assert sym(S).dim == 0


def test_sym_stabilizes():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 7)
        S = ElemSet(n, rng.getrandbits(1 << n))
        if S.size == 0:
            continue
        V = sym(S)
        for g in subspace_members(V):
            assert S.translate(g) == S
        # and no coset rep outside V stabilizes
        for v in range(1 << n):
            if S.translate(v) == S:
                assert V.contains(v)


def test_kneser_lower_bound_examples():
    # A = B = subspace: |A+B| = |A| = |A|+|B|-|Sym|, equality case
    A = ElemSet.from_elements(3, [0, 1, 2, 3])
    rep = kneser_check(A, A)
    assert rep.holds and rep.lhs == 4 and rep.rhs == 4
    B = ElemSet.from_elements(3, [0, 5])
    rep2 = kneser_check(A, B)
    assert rep2.holds


def test_kneser_random_sweep():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randrange(1, 6)
        A = ElemSet(n, rng.getrandbits(1 << n) | 1 << rng.getrandbits(n))
        B = ElemSet(n, rng.getrandbits(1 << n) | 1 << rng.getrandbits(n))
        assert kneser_check(A, B).holds


def test_sandwich_preconditions():
    A = ElemSet.from_elements(3, [0, 1])
    B = ElemSet.from_elements(3, [0, 1, 2])
    with pytest.raises(PreconditionError):
        sandwich_check(A, B, 3)  # m not a power of two
    with pytest.raises(PreconditionError):
        sandwich_check(A, B, 4)  # |B| = 3 <= m
    with pytest.raises(PreconditionError):
        sandwich_check(ElemSet.empty(3), B, 2)


def test_sandwich_holds_on_examples():
    A = ElemSet.from_elements(3, [0, 1, 2])
    B = ElemSet.from_elements(3, [0, 3, 5, 6])
    for m in (1, 2):
        rep = sandwich_check(A, B, m)
        assert rep.holds
        assert rep.rhs == min(A.size + m, 2 * m)


def test_doubling_stats_identity_and_ratio():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(1, 7)
        X = ElemSet(n, rng.getrandbits(1 << n) | 1 << rng.getrandbits(n))
        st = doubling_stats(X)
        assert st.sum_size == st.restricted_size + 1
        assert st.ratio == Fraction(st.sum_size, st.k)
    sq = doubling_stats(ElemSet.from_elements(2, [0, 1, 2, 3]))
    assert (sq.k, sq.sum_size, sq.ratio) == (4, 4, Fraction(1))


def test_invariant_checks_raise_on_broken_results(monkeypatch):
    X = ElemSet.from_elements(4, [0, 1, 2, 3])
    with monkeypatch.context() as m:
        m.setattr(sumsets, "restricted_sumset", lambda A, B: ElemSet(4, 0b10))
        with pytest.raises(InvariantError, match="restricted sumset"):
            doubling_stats(X)
    # an rref that drops a row: the stabilizers {0,1,2,3} no longer span themselves
    rref = sumsets.rref
    monkeypatch.setattr(sumsets, "rref", lambda rows: rref(rows)[:1])
    with pytest.raises(InvariantError, match="subgroup"):
        sym(X)
