"""Freiman dimension, doubling censuses, and the tail-exponent evaluator."""
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp, mpf

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
    sumset,
    tail_exponent,
    universal_freiman_rank,
)
from f2cayley import freiman
from f2cayley.cli import main

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
    assert not is_freiman_isomorphic(Y, SQUARE)  # the clash is among the images
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


def reference_freiman_dimension(X):
    """(r, witness) by exhaustive search over canonical images.

    The first point maps to 0; with g generators so far the images span
    range(2^g), so each later point maps to an unused point of that range
    or to the fresh generator 2^g, tried last.  An image is admitted when
    every new pair sum keeps the map of pair sums one to one in both
    directions.  The first leaf with the most generators wins.
    """
    xs = X.elements()
    k = len(xs)
    dom2img, img2dom = {}, {}
    best_r, best_img = 0, [0]

    def assign(img, gens):
        nonlocal best_r, best_img
        if gens + (k - len(img)) <= best_r:
            return  # cannot beat the incumbent
        t = len(img)
        if t == k:
            best_r, best_img = gens, img.copy()
            return
        fresh = 1 << gens
        for y in range(fresh + 1):
            if y in img:
                continue
            added = []
            for j in range(t):
                s, fs = xs[j] ^ xs[t], img[j] ^ y
                if dom2img.get(s, fs) != fs or img2dom.get(fs, s) != s:
                    break
                if s not in dom2img:
                    dom2img[s] = fs
                    img2dom[fs] = s
                    added.append(s)
            else:
                img.append(y)
                assign(img, gens + (y == fresh))
                img.pop()
            for s in added:
                del img2dom[dom2img.pop(s)]

    assign([0], 0)
    return best_r, ElemSet.from_elements(best_r, best_img)


def test_freiman_dimension_matches_reference_search():
    sets = [ElemSet(4, mask) for mask in range(1, 1 << 16) if mask.bit_count() <= 6]
    assert len(sets) == 14892
    rng = random.Random(7878)
    sets += [ElemSet.from_elements(n, rng.sample(range(1 << n), k))
             for k in (7, 8) for n in (4, 5, 6, 8) for _ in range(25)]
    for X in sets:
        res = freiman_dimension(X)
        assert (res.r, res.witness) == reference_freiman_dimension(X), X.elements()


def _greedy_sidon(n, k):
    """The first k points of F_2^n, in order, whose pair sums are all distinct."""
    pts, sums = [], set()
    for v in range(1 << n):
        new = {v ^ p for p in pts}
        if len(new) == len(pts) and not new & sums:
            pts.append(v)
            sums |= new
            if len(pts) == k:
                return ElemSet.from_elements(n, pts)
    raise ValueError(f"F_2^{n} has no greedy Sidon set of {k} points")


def test_freiman_dimension_refuses_a_witness_above_max_set_dim():
    X = _greedy_sidon(12, 22)  # no additive quadruple: r = k - 1 = 21
    assert universal_freiman_rank(X) == 21
    with pytest.raises(PreconditionError, match="ambient dimension 21"):
        freiman_dimension(X)
    assert freiman_dimension(_greedy_sidon(12, 21)).r == 20
    with pytest.raises(PreconditionError):
        freiman_dimension(ElemSet(3, 0))


def test_freiman_dimension_large_sets_match_universal_rank():
    rng = random.Random(5151)
    for n, k, r in ((6, 40, 6), (9, 120, 9), (12, 100, 12), (11, 20, 16)):
        X = ElemSet.from_elements(n, rng.sample(range(1 << n), k))
        res = freiman_dimension(X)
        assert res.r == universal_freiman_rank(X) == r and res.witness.size == k
        assert span(res.witness).dim == res.r


def test_freiman_witness_check_rejects_broken_images():
    xs = [0, 1, 2, 3, 4]  # 0 + 1 = 2 + 3: r = 3, witness 0, 1, 2, 3, 4
    freiman._check_freiman_image(xs, [0, 1, 2, 3, 4], 3)
    for img, r, message in (
        ([0, 1, 2, 5, 4], 3, "pair sum"),  # 0 + 1 = 2 + 3 is lost
        ([0, 1, 2, 3, 3], 3, "pair sum"),  # not one to one
        ([0, 1, 2, 3, 4], 4, "affine hull"),  # spans only F_2^3
        ([0, 1, 2, 3, 8], 3, "affine hull"),  # a point outside F_2^3
    ):
        with pytest.raises(InvariantError, match=message):
            freiman._check_freiman_image(xs, img, r)


def test_freiman_dimension_witness_has_full_hull():
    res = freiman_dimension(ElemSet.from_elements(3, [0, 1, 2, 7]))
    assert res.r == 3  # no additive quadruples among these four points
    rng = random.Random(4444)
    sets = [ElemSet(3, mask) for mask in range(1, 256) if ElemSet(3, mask).size <= 6]
    sets += [ElemSet.from_elements(4, rng.sample(range(16), k)) for k in (6, 7, 8) for _ in range(20)]
    for X in sets:
        res = freiman_dimension(X)
        assert res.witness.n == res.r and res.witness.elements()[0] == 0
        assert span(res.witness).dim == res.r  # the hull, as the witness holds 0
        assert is_freiman_isomorphic(X, res.witness) and is_freiman_isomorphic(res.witness, X)


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
    rng = random.Random(810)
    for k in (8, 9, 10):
        for n in (4, 5, 7):
            X = ElemSet.from_elements(n, rng.sample(range(1 << n), k))
            rep = check_dim_bound(X)
            assert (rep.k, rep.l) == (k, sumset(X, X).size)
            assert rep.r == universal_freiman_rank(X) and rep.holds


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


def _even_zohar_sides(span_size, k, l):
    """Both sides of hull^k (2l)^k <= 4^l k^(2k), in mpmath at 50 digits."""
    with mp.workdps(50):
        return mpf(span_size * 2 * l) ** k, mpf(4) ** l * mpf(k) ** (2 * k)


def test_even_zohar_exact_beyond_k128(monkeypatch):
    rng = random.Random(129)
    for k in range(129, 257):
        X = ElemSet.from_elements(9, rng.sample(range(512), k))
        rep = check_even_zohar(X)
        lhs, rhs = _even_zohar_sides(rep.span_size, k, sumset(X, X).size)
        assert rep.holds == (lhs <= rhs) and rep.holds
    # hulls around the largest one the inequality admits: the decision flips
    # exactly there, with no slack even where that hull is about 10^17
    for k in (129, 200, 256):
        X = ElemSet.from_elements(12, rng.sample(range(4096), k))
        l = sumset(X, X).size
        with mp.workdps(50):
            edge = int(mp.floor(mpf(4) ** (mpf(l) / k) * mpf(k) ** 2 / (2 * l)))
        for hull in (edge - 1, edge, edge + 1):
            monkeypatch.setattr(freiman, "span", lambda _X, hull=hull: SimpleNamespace(size=hull))
            lhs, rhs = _even_zohar_sides(hull, k, l)
            assert check_even_zohar(X).holds == (lhs <= rhs) == (hull <= edge)


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


def record_blocks(monkeypatch):
    """Make census_skl log each block it expands as (prefix, a, b)."""
    block, seen = freiman._census_block, []

    def recording(hist, prefix, a, b, *args):
        seen.append((prefix, a, b))
        block(hist, prefix, a, b, *args)

    monkeypatch.setattr(freiman, "_census_block", recording)
    return seen


def test_census_splits_blocks_past_the_cap(monkeypatch):
    # With 512 bytes a block holds two or three sets, so a range is halved
    # and a one-value range joins the prefix; every enumerated case of the
    # oracle must come out the same.
    seen = record_blocks(monkeypatch)
    monkeypatch.setattr(freiman, "_CENSUS_BLOCK_BYTES", 1 << 9)
    extended = halved = False
    for n in range(1, 5):
        N = 1 << n
        for k in range(1, N // 2 + 1):
            seen.clear()
            assert census_skl(n, k).counts == oracle_census(n, k), (n, k)
            t = min(k, 3)
            for prefix, a, b in seen:
                if len(prefix) >= t:  # 0, ..., t - 2 plus at least one value
                    extended = True
                    halved |= (a, b) != (prefix[-1] + 1, N - k + len(prefix) + 1)
    assert extended and halved


def test_census_blocks_agree_with_one_block(monkeypatch):
    # C(29, 5) = 118,755 sets through 0, 1, 2 exceed the default cap of
    # 2^24 / (8 (16 + 8 + 1)) = 83,886, so (5, 8) splits unless the cap grows
    seen = record_blocks(monkeypatch)
    split = census_skl(5, 8)
    assert len(seen) > 1
    seen.clear()
    monkeypatch.setattr(freiman, "_CENSUS_BLOCK_BYTES", 1 << 30)
    whole = census_skl(5, 8)
    assert len(seen) == 1
    assert (split.counts, split.total, split.union_bound) == (
        whole.counts, whole.total, whole.union_bound)


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


def test_census_refuses_a_budget_that_is_no_integer_or_negative():
    # a float, even an integral one, once failed on budget.bit_length(), and
    # True passed as a budget of 1; every refusal comes before any counting
    for budget in (1e8, 2.0, True, False, -1, "5", None):
        with pytest.raises(PreconditionError, match="budget must be an integer >= 0"):
            census_skl(5, 6, budget=budget)
    total = math.comb(32, 6)
    assert census_skl(5, 6, budget=np.int64(total)).total == total


def test_census_budget_boundary():
    total = math.comb(16, 3)
    assert census_skl(4, 3, budget=total).total == total
    with pytest.raises(BudgetExceededError):
        census_skl(4, 3, budget=total - 1)


def test_census_refuses_by_lower_bounds_before_building_n():
    # C(2^n, k) >= 2^n for 1 <= k < 2^n and >= 2^min(k, 2^n - k): these
    # refuse before N = 2^n (125 MB at n = 10^9) or C(N, k) is built
    t0 = time.perf_counter()
    for n, k in ((10**9, 3), (20000, 1), (14, 8000), (27, 2**27 - 1)):
        with pytest.raises(BudgetExceededError):
            census_skl(n, k)
    assert time.perf_counter() - t0 < 1.0
    # each bound refuses exactly when it exceeds the budget
    with pytest.raises(BudgetExceededError, match=r"2\^4 exceeds"):
        census_skl(4, 1, budget=15)
    assert census_skl(4, 1, budget=16).total == 16
    with pytest.raises(BudgetExceededError, match=r"2\^7 exceeds"):
        census_skl(4, 9, budget=127)
    for n, k in ((3, 0), (3, 9), (0, 2)):
        with pytest.raises(PreconditionError, match="1 <= k <= 2"):
            census_skl(n, k)
    assert census_skl(3, 8).counts == {7: 1} and census_skl(0, 1).counts == {0: 1}


def test_census_csv_rows(tmp_path):
    # the skl --csv file: a header and one row per l, term count / 2^l
    path = tmp_path / "c.csv"
    assert main(["skl", "--n", "2", "--k", "2", "--csv", str(path)]) == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "n,k,l,count,union_bound_term"
    assert rows[1] == "2,2,1,6,3"


def reference_tail_exponent(n, k, l):
    """The former tail_exponent, in mpmath at 40 digits:
    (log2_bound, regime, log2_large, log2_small)."""
    with mp.workdps(40):
        log2k = mp.log(k, 2)
        base = mpf(n) * (log2k + mpf(2) * (l + 1) / k + 1) - l
        large = base + 4 * k * log2k
        small = base + k * mp.log(mp.e * l / k, 2) + mpf(k) ** (mpf(31) / 32) * mp.log(mp.e, 2)
        return (float(min(large, small)), "large" if large <= small else "small",
                float(large), float(small))


def test_tail_exponent_matches_the_mpmath_reference():
    k = 10240  # criterion 14: n = 1024, k = n log2 n
    grid = [(4, 2, 20), (1024, k, 10 * k), (1024, k, k * k), (1024, k, 1024 * k)]
    rng = random.Random(14)
    for _ in range(500):
        k = rng.randint(2, 1 << rng.randint(1, 24))
        grid.append((rng.randint(1, 1 << rng.randint(1, 40)), k, rng.randint(10 * k, 10 * k << 16)))
    for n, k, l in grid:
        t = tail_exponent(n, k, l)
        assert (t.log2_bound, t.regime, t.log2_large, t.log2_small) == reference_tail_exponent(
            n, k, l), (n, k, l)


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
    for n in (0, -5):  # a vacuous ambient dimension, not a bound
        with pytest.raises(PreconditionError, match="n >= 1"):
            tail_exponent(n, 2, 20)
    tail_exponent(1, 2, 20)


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
    with pytest.raises(PreconditionError, match="n <= 4"):
        family_cover_probe(-1, 2, 0.5, 0)


def test_census_refuses_negative_n():
    with pytest.raises(PreconditionError, match="n >= 0"):
        census_skl(-1, 1)
