"""Freiman dimension, doubling censuses, and the tail-exponent evaluator."""
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from f2cayley import (
    BudgetExceededError,
    ElemSet,
    InvariantError,
    PreconditionError,
    census_skl,
    check_dim_bound,
    check_even_zohar,
    family_cover_probe,
    freiman_dimension,
    is_freiman_isomorphic,
    span,
    tail_exponent,
    universal_freiman_rank,
)
from f2cayley import freiman

SQUARE = ElemSet.from_elements(2, [0b00, 0b01, 0b10, 0b11])


def test_isomorphic_to_translate_and_linear_image():
    X = ElemSet.from_elements(3, [0, 1, 6])
    assert is_freiman_isomorphic(X, X.translate(5))
    # the linear map swapping bits 0 and 2
    L = ElemSet.from_elements(3, [v >> 2 | (v & 1) << 2 | (v & 0b010) for v in X])
    assert is_freiman_isomorphic(X, L)


def test_square_not_isomorphic_to_independent_points():
    # 00+11 = 01+10 has no counterpart among affinely independent points
    Y = ElemSet.from_elements(4, [0, 1, 2, 4])
    assert not is_freiman_isomorphic(SQUARE, Y)
    assert is_freiman_isomorphic(SQUARE, SQUARE.translate(3))


def test_isomorphism_preconditions():
    with pytest.raises(PreconditionError):
        is_freiman_isomorphic(SQUARE, ElemSet.from_elements(2, [0, 1]))


def test_freiman_dimension_small_cases():
    assert freiman_dimension(ElemSet.from_elements(3, [5])).r == 0
    assert freiman_dimension(ElemSet.from_elements(3, [1, 4])).r == 1
    assert freiman_dimension(SQUARE).r == 2  # the relation caps r below k-1
    assert freiman_dimension(ElemSet.from_elements(3, [0, 1, 2])).r == 2
    assert freiman_dimension(ElemSet.from_elements(4, [0, 1, 2, 4])).r == 3


def test_freiman_dimension_witness_has_full_hull():
    res = freiman_dimension(ElemSet.from_elements(3, [0, 1, 2, 7]))
    assert res.r == 3  # no additive quadruples among these four points
    pts = res.witness.elements()
    hull = span(ElemSet.from_elements(res.witness.n, [p ^ pts[0] for p in pts[1:]]))
    assert hull.dim == res.r
    assert is_freiman_isomorphic(ElemSet.from_elements(3, [0, 1, 2, 7]), res.witness)


def test_freiman_dimension_invariance_spot_checks():
    rng = random.Random(321)
    for _ in range(25):
        n = 3
        k = rng.randrange(1, 6)
        X = ElemSet.from_elements(n, rng.sample(range(1 << n), k))
        r = freiman_dimension(X).r
        assert freiman_dimension(X.translate(rng.getrandbits(n))).r == r


def test_universal_rank_agrees_on_examples():
    for elems, n in ([(0, 1, 2, 3), 2], [(0, 1, 2, 4), 3], [(1, 2, 4), 3], [(3,), 2]):
        X = ElemSet.from_elements(n, elems)
        assert universal_freiman_rank(X) == freiman_dimension(X).r


def test_dim_bound_examples():
    rep = check_dim_bound(SQUARE)  # subspace of size 4: r=2, bound 2 + 2*4/4
    assert rep.holds and rep.r == 2 and rep.l == 4
    single = check_dim_bound(ElemSet.from_elements(2, [1]))
    assert single.holds and single.r == 0
    three = check_dim_bound(ElemSet.from_elements(3, [0, 1, 2]))
    assert three.holds and three.r == 2 and three.l == 4


def test_even_zohar_examples():
    rep = check_even_zohar(SQUARE)  # K=1, span 4 <= 8
    assert rep.holds and rep.span_size == 4
    zero = check_even_zohar(ElemSet.from_elements(2, [0]))
    assert zero.holds and zero.span_size == 1
    # Affine hull of an independent family excludes 0: half the raw span.
    basis = check_even_zohar(ElemSet.from_elements(4, [1, 2, 4, 8]))
    assert basis.holds and basis.span_size == 8
    tight = check_even_zohar(ElemSet.from_elements(3, [1, 2, 4]))
    assert tight.holds and tight.span_size == 4 and tight.bound < 8


def test_census_frozen_small_cases():
    assert census_skl(2, 2).counts == {1: 6}
    assert census_skl(2, 3).counts == {3: 4}
    assert census_skl(3, 1).counts == {0: 8}
    c33 = census_skl(3, 3)
    assert c33.counts == {3: 56} and c33.total == 56
    assert c33.union_bound == Fraction(56, 8)


def test_census_structure():
    for n, k in ((3, 2), (3, 4), (4, 3)):
        c = census_skl(n, k)
        assert sum(c.counts.values()) == c.total
        assert all(l >= k - 1 for l in c.counts)
        assert c.union_bound == sum(
            Fraction(cnt, 1 << l) for l, cnt in c.counts.items())


def test_census_budget_refusal():
    for n, k in ((13, 10), (8, 200)):  # 2k > N refuses too, without enumerating
        with pytest.raises(BudgetExceededError):
            census_skl(n, k)


def oracle_census(n, k):
    """Counts by |X plus-distinct X| from itertools.combinations and a set."""
    counts = {}
    for X in combinations(range(1 << n), k):
        l = len({x ^ y for i, x in enumerate(X) for y in X[:i]})
        counts[l] = counts.get(l, 0) + 1
    return counts


def test_census_matches_combinations_oracle():
    cases = [(n, k) for n in range(1, 5) for k in range(1, (1 << n) + 1)
             if math.comb(1 << n, k) <= 20_000]
    assert len(cases) == 2 + 4 + 8 + 16
    for n, k in cases:
        c = census_skl(n, k)
        assert c.counts == oracle_census(n, k), (n, k)
        assert c.total == math.comb(1 << n, k)


def reference_census(n, k):
    """(counts, total, union_bound) over every k-subset of F_2^n.

    The full block enumeration: the same _census_block expansion, started
    from the empty prefix, with no scaling.
    """
    N = 1 << n
    words = (N + 63) >> 6 if k >= 3 else 0
    cap = max(1, freiman._CENSUS_BLOCK_BYTES // (8 * (16 + k + words)))
    hist = np.zeros(min(k * (k - 1) // 2, N - 1) + 1, dtype=np.int64)
    stack = [((), 0, N - k + 1)]
    while stack:
        prefix, a, b = stack.pop()
        rem = k - len(prefix)
        if math.comb(N - a, rem) - math.comb(N - b, rem) <= cap:
            freiman._census_block(hist, prefix, a, b, N, k, words)
        elif b - a > 1:
            mid = (a + b) // 2
            stack += [(prefix, mid, b), (prefix, a, mid)]
        else:
            stack.append((prefix + (a,), a + 1, N - rem + 2))
    counts = {l: int(c) for l, c in enumerate(hist) if c}
    union = sum((Fraction(c, 1 << l) for l, c in counts.items()), Fraction(0))
    return counts, sum(counts.values()), union


def test_census_matches_full_enumeration():
    # Above N / 2 the reference costs O(k^2) numpy work per set (16 s at
    # (6, 60)), so there the cap on C(N, k) is 2 * 10^4.
    cases = [(n, k) for n in range(0, 7) for k in range(1, (1 << n) + 1)
             if math.comb(1 << n, k) <= (10**6 if 2 * k <= 1 << n else 2 * 10**4)]
    cases += [(7, 3), (7, 4)]
    assert len(cases) == 1 + 2 + 4 + 8 + 16 + 10 + 7 + 2
    for n, k in cases:
        c = census_skl(n, k)
        assert (c.counts, c.total, c.union_bound) == reference_census(n, k), (n, k)


@pytest.mark.parametrize("n, k, message", [(5, 7, "do not scale"), (5, 6, "sum to")])
def test_census_rejects_a_miscount(monkeypatch, n, k, message):
    block = freiman._census_block

    def one_extra_set(hist, *args):
        block(hist, *args)
        hist[np.flatnonzero(hist)[-1]] += 1

    monkeypatch.setattr(freiman, "_census_block", one_extra_set)
    with pytest.raises(InvariantError, match=message):
        census_skl(n, k)


def test_census_closed_form_at_k4():
    # a 4-set has 3 distinct pair sums iff its elements XOR to 0, else 6
    for n in range(2, 7):
        N = 1 << n
        zero_sum = math.comb(N, 3) // 4
        expected = {3: zero_sum, 6: math.comb(N, 4) - zero_sum}
        assert census_skl(n, 4).counts == {l: c for l, c in expected.items() if c}, n


def test_census_frozen_large_cases():
    assert census_skl(5, 6).counts == {7: 17360, 12: 416640, 15: 472192}
    assert census_skl(6, 4).counts == {3: 10416, 6: 624960}
    # N = 128 > 64: the pair-sum bitmask spans two words
    assert census_skl(7, 3).counts == {3: math.comb(128, 3)}


def test_census_edge_sizes():
    for n in range(1, 7):
        N = 1 << n
        assert census_skl(n, 1).counts == {0: N}
        assert census_skl(n, 2).counts == {1: math.comb(N, 2)}
        assert census_skl(n, N).counts == {N - 1: 1}  # X + X is every nonzero sum


def test_census_above_half_needs_no_enumeration():
    # 2k > N: X meets every X + g, so every k-set has all N - 1 nonzero sums
    t0 = time.perf_counter()
    c = census_skl(6, 60)
    assert time.perf_counter() - t0 < 1.0
    assert c.counts == {63: math.comb(64, 60)} and c.total == math.comb(64, 60)


def test_census_budget_boundary():
    total = math.comb(16, 3)
    assert census_skl(4, 3, budget=total).total == total
    with pytest.raises(BudgetExceededError):
        census_skl(4, 3, budget=total - 1)


def test_census_csv_rows():
    rows = census_skl(2, 2).csv_rows()
    assert rows[0] == "n,k,l,count,union_bound_term"
    assert rows[1] == "2,2,1,6,3"


def test_tail_exponent_signs():
    small = tail_exponent(4, 2, 20)  # tiny scale: bounds are vacuous
    assert small.log2_bound > 0
    big = tail_exponent(1024, 10240, 102400)
    assert big.log2_bound < 0
    assert big.log2_bound == min(big.log2_large, big.log2_small)
    assert big.regime in ("large", "small")


def test_tail_exponent_reports_smaller_branch():
    t = tail_exponent(1024, 10240, 10240 * 50)
    chosen = t.log2_large if t.regime == "large" else t.log2_small
    assert t.log2_bound == chosen <= max(t.log2_large, t.log2_small)


def test_tail_exponent_preconditions():
    with pytest.raises(PreconditionError):
        tail_exponent(1024, 10240, 10239 * 10)  # l < 10k
    with pytest.raises(PreconditionError):
        tail_exponent(4, 1, 100)


def test_cover_probe_counts():
    r = family_cover_probe(4, 5, 0.5, 2)
    assert (len(r.failures), r.checked) == (0, 4368)
    whole = family_cover_probe(3, 8, 0.25, 1)
    assert (len(whole.failures), whole.checked) == (0, 1)


def test_cover_probe_subspace_always_covered():
    r = family_cover_probe(4, 8, 0.25, 2)
    assert ElemSet.from_elements(4, range(8)) not in r.failures
    assert r.checked == 12870 and not r.failures


def test_cover_probe_preconditions():
    with pytest.raises(PreconditionError):
        family_cover_probe(5, 4, 0.5, 1)
    with pytest.raises(PreconditionError):
        family_cover_probe(4, 1, 0.5, 1)
