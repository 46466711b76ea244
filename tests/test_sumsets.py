"""Sumsets, restricted sumsets, stabilizers, and the additive inequalities."""
import random
from fractions import Fraction

import pytest

from f2cayley import (
    ElemSet,
    InvariantError,
    PreconditionError,
    Subspace,
    bits_of,
    doubling_stats,
    kneser_check,
    restricted_sumset,
    sandwich_check,
    subspace_members,
    sumset,
    sym,
    xor_shift,
)
from f2cayley import gf2, sumsets


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


def reference_sumset(X, Y):
    """X + Y over every translate of the larger set, with no early exit."""
    small, large = (X, Y) if X.size <= Y.size else (Y, X)
    acc = 0
    for e in bits_of(small.mask):
        acc |= xor_shift(large.mask, e, X.n)
    return ElemSet(X.n, acc)


def reference_restricted(X, Y):
    acc = 0
    for e in bits_of(X.mask):
        acc |= xor_shift(Y.mask & ~(1 << e), e, X.n)
    return ElemSet(X.n, acc)


def reference_sym(S):
    """Every g in S + s0 with g + S = S, s0 the least element of S."""
    s0 = (S.mask & -S.mask).bit_length() - 1
    found = [g for g in bits_of(xor_shift(S.mask, s0, S.n))
             if xor_shift(S.mask, g, S.n) == S.mask]
    return Subspace(S.n, gf2.rref(found))


def _random_set(rng, n):
    """Each point kept with one of five probabilities, so that some sumsets
    fill the space and some sets are larger than their complements."""
    p = rng.choice((1 / 16, 1 / 4, 1 / 2, 3 / 4, 15 / 16))
    return ElemSet.from_elements(n, [v for v in range(1 << n) if rng.random() < p])


def _edge_sets(n):
    """The whole space, a point, a coset of a 2-dimensional subspace and a
    union of two cosets of a 3-dimensional one, each with its complement."""
    N = 1 << n
    sets = [ElemSet.full(n), ElemSet.from_elements(n, [N - 1])]
    if n >= 3:
        sets.append(ElemSet.from_elements(n, [(N - 1) ^ v for v in (0, 3, 5, 6)]))
    if n >= 5:
        V = [0, 3, 5, 6, 9, 10, 12, 15]  # span{3, 5, 9}
        sets.append(ElemSet.from_elements(n, [v ^ c for v in V for c in (16, 17)]))
    full = (1 << N) - 1
    return sets + [ElemSet(n, full ^ S.mask) for S in sets if S.mask != full]


def test_sumsets_and_sym_match_references():
    rng = random.Random(808)
    for n in range(0, 9):
        sets = _edge_sets(n) + [_random_set(rng, n) for _ in range(40)]
        for X in sets:
            Y = rng.choice(sets)
            assert sumset(X, Y) == reference_sumset(X, Y), (n, X, Y)
            assert restricted_sumset(X, Y) == reference_restricted(X, Y), (n, X, Y)
            if X.mask:
                assert sym(X) == reference_sym(X), (n, X)


def test_sym_of_edge_sets():
    n = 6
    full, point, coset2, cosets3, *complements = _edge_sets(n)
    assert sym(full).dim == n and sym(point).dim == 0
    assert sym(coset2).dim == 2 and sym(cosets3).dim == 4  # span{3, 5, 9, 1}
    assert [sym(C).dim for C in complements] == [0, 2, 4]


def test_early_exits_stop_translating(monkeypatch):
    calls = []

    def counted(mask, t, n):
        calls.append(t)
        return xor_shift(mask, t, n)

    monkeypatch.setattr(sumsets, "xor_shift", counted)
    # {0, 1, 2, 4, 8}: T + 0, T + 1, T + 2 already meet in {0}
    assert sym(ElemSet.from_elements(4, [0, 1, 2, 4, 8])).dim == 0
    assert calls == [0, 1, 2]
    calls.clear()
    assert sumset(ElemSet.full(3), ElemSet.full(3)) == ElemSet.full(3)
    assert calls == [0]
    calls.clear()
    assert restricted_sumset(ElemSet.full(3), ElemSet.full(3)).size == 7
    assert calls == [0]


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
    # a span that drops a basis row: the stabilizers {0,1,2,3} are no longer
    # the subspace their basis spans
    span = sumsets.span
    with monkeypatch.context() as m:
        m.setattr(sumsets, "span", lambda S: Subspace(S.n, span(S).basis[:1]))
        with pytest.raises(InvariantError, match="subgroup"):
            sym(X)
    # a translate that adds nothing: the span never grows, so only the n-step
    # bound ends the doubling, with one row where the stabilizers need two
    monkeypatch.setattr(gf2, "xor_shift", lambda mask, t, n: mask)
    with pytest.raises(InvariantError, match="subgroup"):
        sym(X)
