"""GF(2) bitset linear algebra: shifts, RREF bases, subspace enumeration."""
import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2cayley import (
    BudgetExceededError,
    ElemSet,
    PreconditionError,
    Subspace,
    bits_of,
    cosets,
    enumerate_subspaces,
    gaussian_binomial,
    gaussian_row,
    gf2,
    rref,
    span,
    subspace_members,
    xor_shift,
)


def test_xor_shift_matches_elementwise_translation():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(1, 8)
        mask = rng.getrandbits(1 << n)
        t = rng.getrandbits(n)
        expect = 0
        for v in range(1 << n):
            if mask >> v & 1:
                expect |= 1 << (v ^ t)
        assert xor_shift(mask, t, n) == expect


def test_elemset_basics():
    X = ElemSet.from_elements(3, [0, 3, 5])
    assert X.size == len(X) == 3
    assert 3 in X and 1 not in X
    assert sorted(X) == X.elements() == [0, 3, 5]
    assert ElemSet.empty(3).size == 0
    assert ElemSet.full(3).size == 8


def test_elemset_translate_is_involution():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(1, 7)
        X = ElemSet(n, rng.getrandbits(1 << n))
        t = rng.getrandbits(n)
        assert X.translate(t).translate(t) == X
        assert X.translate(t).size == X.size


def test_elemset_translate_refuses_a_shift_outside_the_space():
    X = ElemSet.from_elements(3, [1, 2])
    assert X.translate(7).elements() == [5, 6]
    for t in (8, 9, -1):  # 9 would otherwise act as the translate by 1
        with pytest.raises(PreconditionError, match=f"translation by {t} outside F_2\\^3"):
            X.translate(t)
    assert ElemSet.full(0).translate(0) == ElemSet.full(0)


def test_member_table_round_trips_and_keeps_the_byte_layout():
    """Bit v of the mask is bit v % 8 of byte v // 8, little-endian."""
    rng = random.Random(2213)
    for n in range(0, 14):
        N = 1 << n
        masks = [0, 1, (1 << N) - 1, 1 << (N - 1)] + [rng.getrandbits(N) for _ in range(10)]
        for mask in masks:
            X = ElemSet(n, mask)
            table = X.member_table()
            raw = np.frombuffer(mask.to_bytes((N + 7) // 8, "little"), dtype=np.uint8)
            assert table.dtype == np.uint8 and table.shape == (N,)
            assert np.array_equal(table, np.unpackbits(raw, bitorder="little")[:N])
            assert np.flatnonzero(table).tolist() == X.elements()
            assert ElemSet.from_member_table(n, table) == X
            assert ElemSet.from_member_table(n, table.astype(bool)) == X
    table = ElemSet.full(3).member_table()
    table[0] = 0  # a fresh, writable array: the set is untouched
    assert ElemSet.full(3).member_table().all()
    table = np.zeros(9, dtype=np.uint8)
    table[8] = 1  # element 8 is outside F_2^3
    with pytest.raises(PreconditionError, match="outside F_2\\^n"):
        ElemSet.from_member_table(3, table)


def test_elemset_rejects_out_of_range():
    with pytest.raises(PreconditionError):
        ElemSet.from_elements(2, [4])
    with pytest.raises(PreconditionError):
        ElemSet(2, 1 << 4)
    with pytest.raises(PreconditionError, match="ambient dimension -3"):
        ElemSet.from_elements(-3, [1])  # refused before 1 << n is formed


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_rref_canonical_under_row_operations(vectors, rng):
    """Shuffling and adding rows into each other never changes the RREF."""
    base = rref(vectors)
    mixed = list(vectors)
    rng.shuffle(mixed)
    if len(mixed) >= 2:
        i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
        if i != j:
            mixed[i] ^= mixed[j]
    assert rref(mixed) == base


def reference_rref_insert(basis, v):
    """The former rref_insert: reduce v, then merge it into the basis at its
    pivot's place, clearing that pivot from the rows above."""
    for b in basis:
        if v & (1 << (b.bit_length() - 1)):
            v ^= b
    if v == 0:
        return None
    pivot = 1 << (v.bit_length() - 1)
    out = []
    placed = False
    for b in basis:
        if b & pivot:
            b ^= v
        if not placed and b < pivot:
            out.append(v)
            placed = True
        out.append(b)
    if not placed:
        out.append(v)
    return tuple(out)


def reference_rref(vectors):
    """The former rref: one merge insertion per vector."""
    basis = ()
    for v in vectors:
        nxt = reference_rref_insert(basis, v)
        if nxt is not None:
            basis = nxt
    return basis


def _rref_cases():
    """Seeded lists with zeros, repeats and dependent vectors, n up to 20."""
    rng = random.Random(1122)
    for _ in range(3000):
        n = rng.randint(0, 20)
        vecs = [rng.getrandbits(n) for _ in range(rng.randint(0, 40))]
        if vecs and rng.random() < 0.5:  # sums of earlier vectors, and repeats
            for _ in range(rng.randint(1, 10)):
                picks = rng.sample(vecs, rng.randint(1, min(3, len(vecs))))
                vecs.insert(rng.randint(0, len(vecs)), functools.reduce(operator.xor, picks))
        if rng.random() < 0.3:  # a low-rank span: few bits set
            low = rng.getrandbits(n)
            vecs = [v & low for v in vecs]
        if rng.random() < 0.2:
            vecs += [0] * rng.randint(1, 3)
            rng.shuffle(vecs)
        yield vecs
    for length in range(4):  # every ordered list of up to three vectors of F_2^3
        yield from map(list, itertools.product(range(8), repeat=length))


def test_rref_matches_the_merge_insert_reference():
    for vecs in _rref_cases():
        basis = rref(vecs)
        assert basis == reference_rref(vecs), vecs
        assert Subspace(max(basis, default=0).bit_length(), basis).basis == basis
        if vecs:  # the last vector inserted into the basis of the others
            head = rref(vecs[:-1])
            assert rref((*head, vecs[-1])) == (reference_rref_insert(head, vecs[-1]) or head)


def test_rref_keeps_the_basis_of_a_dependent_vector():
    basis = rref([0b110, 0b011])
    assert rref((*basis, 0b101)) == basis  # 110 ^ 011
    assert rref((*basis, 0)) == basis
    assert len(rref((*basis, 0b1000))) == 3


def test_subspace_validation_demands_canonical_basis():
    Subspace(3, (0b100, 0b010))  # fine: decreasing pivots, reduced
    with pytest.raises(PreconditionError):
        Subspace(3, (0b010, 0b100))  # pivots not decreasing
    with pytest.raises(PreconditionError):
        Subspace(3, (0b110, 0b010))  # higher row contains lower pivot


def test_subspace_reduce_is_min_of_coset():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 7)
        V = span(ElemSet.from_elements(n, [rng.getrandbits(n) for _ in range(3)]))
        v = rng.getrandbits(n)
        coset = sorted(v ^ w for w in subspace_members(V))
        assert V.reduce(v) == coset[0]


def test_span_matches_rref_of_every_member(monkeypatch):
    """Doubling takes one translate per basis vector and gives the same
    canonical basis as reducing every element of X."""
    calls = []

    def counted(mask, t, n):
        calls.append(t)
        return xor_shift(mask, t, n)

    monkeypatch.setattr(gf2, "xor_shift", counted)
    rng = random.Random(17)
    for n in range(0, 9):
        N = 1 << n
        masks = [0, 1, (1 << N) - 1] + [rng.getrandbits(N) for _ in range(30)]
        masks += [rng.getrandbits(N) & rng.getrandbits(N) & rng.getrandbits(N) for _ in range(30)]
        for mask in masks:
            X = ElemSet(n, mask)
            calls.clear()
            V = span(X)
            assert V == Subspace(n, rref(bits_of(X.mask))), (n, mask)
            assert len(calls) == V.dim <= n


def test_span_and_members():
    V = span(ElemSet.from_elements(4, [0b0011, 0b0101]))
    assert V.dim == 2 and V.size == 4
    assert sorted(subspace_members(V)) == [0, 0b0011, 0b0101, 0b0110]
    assert V.contains(0b0110) and not V.contains(0b1000)


def test_gaussian_binomial_table():
    # number of m-dim subspaces of F_2^n, small table computed by hand
    assert gaussian_binomial(4, 0) == 1
    assert gaussian_binomial(4, 1) == 15
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(4, 3) == 15
    assert gaussian_binomial(9, 4) == 3309747
    with pytest.raises(PreconditionError):
        gaussian_binomial(3, 4)


def test_gaussian_row_equals_product_formula():
    """Every [n, k]_2 for n <= 64 against prod (2^(n-i) - 1) / (2^(k-i) - 1)."""
    for n in range(65):
        row = gaussian_row(n, n)
        for k in range(n + 1):
            num = den = 1
            for i in range(k):
                num *= (1 << (n - i)) - 1
                den *= (1 << (k - i)) - 1
            assert num % den == 0
            assert row[k] == gaussian_binomial(n, k) == num // den, (n, k)
    with pytest.raises(PreconditionError):
        gaussian_row(65, 1)
    with pytest.raises(PreconditionError):
        gaussian_row(3, 4)



@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_gaussian_binomial_symmetry(n, m):
    if m <= n:
        assert gaussian_binomial(n, m) == gaussian_binomial(n, n - m)


def test_enumerate_subspaces_counts_and_uniqueness():
    for n in range(0, 5):
        for m in range(0, n + 1):
            subs = list(enumerate_subspaces(n, m))
            assert len(subs) == gaussian_binomial(n, m)
            assert m > 0 or subs == [Subspace(n, ())]
            assert len(set(subs)) == len(subs)
            for V in subs:
                assert V.dim == m


def test_enumerate_subspaces_budget_refusal():
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(20, 10, budget=10))
    # the budget is checked as an integer >= 0 when the call is made
    for budget in (1e8, 35.0, True, -1, "35", None):
        with pytest.raises(PreconditionError, match="budget must be an integer >= 0"):
            enumerate_subspaces(4, 2, budget=budget)
    for budget in (35, np.int64(35)):
        assert len(list(enumerate_subspaces(4, 2, budget=budget))) == 35
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(4, 2, budget=34)


def test_cosets_partition_and_order():
    V = Subspace(4, (0b1000, 0b0001))
    cs = cosets(V)
    assert len(cs) == 4  # 2^(4-2)
    seen = set()
    for c in cs:
        assert c.size == 4
        seen |= set(c)
    assert seen == set(range(16))
    assert [min(c) for c in cs] == sorted(min(c) for c in cs)
