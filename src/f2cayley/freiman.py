"""Freiman isomorphism and dimension over F_2^n, doubling censuses, and the
numeric tail bounds they feed.

A Freiman isomorphism between X and Y is a bijection preserving additive
quadruples in both directions: x1 + x2 = x3 + x4 iff the images satisfy the
same relation.  The Freiman dimension r(X) is the largest r such that X has a
Freiman-isomorphic copy in F_2^r whose affine hull is all of F_2^r.

Brute force searches images canonically: translations preserve pair sums over
F_2, so the first point maps to 0, and invertible linear maps let every new
span-enlarging image be the next fresh basis vector.  The universal-model
fast path (affine rank of the free F_2-space on X modulo all quadruple
relations) is cross-validated against brute force in the tests and is not
authoritative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
from mpmath import mp, mpf

from .errors import BudgetExceededError, InvariantError, PreconditionError
from .gf2 import ElemSet, bits_of, cosets, enumerate_subspaces, rref, span, xor_shift
from .sumsets import sumset

__all__ = [
    "is_freiman_isomorphic",
    "FreimanResult",
    "freiman_dimension",
    "universal_freiman_rank",
    "DimBoundReport",
    "check_dim_bound",
    "EvenZoharReport",
    "check_even_zohar",
    "SklCensus",
    "census_skl",
    "TailExponent",
    "tail_exponent",
    "CoverProbeReport",
    "family_cover_probe",
]

MAX_BRUTE = 6
MAX_ISO = 8


def _pair_classes(xs: List[int]) -> Dict[Tuple[int, int], int]:
    """Map each index pair to its sum; relations are equal-sum pairs."""
    return {(i, j): xs[i] ^ xs[j] for i in range(len(xs)) for j in range(i + 1, len(xs))}


def is_freiman_isomorphic(X: ElemSet, Y: ElemSet) -> bool:
    """Does a Freiman isomorphism X -> Y exist?  Brute force, |X| <= 8."""
    if X.size != Y.size:
        raise PreconditionError("Freiman isomorphism needs |X| = |Y|")
    k = X.size
    if not 1 <= k <= MAX_ISO:
        raise PreconditionError(f"is_freiman_isomorphic handles 1 <= |X| <= {MAX_ISO}")
    xs, ys = X.elements(), Y.elements()

    dom2img: Dict[int, int] = {}
    img2dom: Dict[int, int] = {}
    used = [False] * k

    def assign(t: int, img: List[int]) -> bool:
        if t == k:
            return True
        for c in range(k):
            if used[c]:
                continue
            y = ys[c]
            added = []
            ok = True
            for j in range(t):
                s, fs = xs[j] ^ xs[t], img[j] ^ y
                if dom2img.get(s, fs) != fs or img2dom.get(fs, s) != s:
                    ok = False
                    break
                if s not in dom2img:
                    dom2img[s] = fs
                    img2dom[fs] = s
                    added.append((s, fs))
            if ok:
                used[c] = True
                img.append(y)
                if assign(t + 1, img):
                    return True
                img.pop()
                used[c] = False
            for s, fs in added:
                del dom2img[s]
                del img2dom[fs]
        return False

    return assign(0, [])


@dataclass(frozen=True)
class FreimanResult:
    r: int
    witness: ElemSet
    method: str


def freiman_dimension(X: ElemSet) -> FreimanResult:
    """Freiman dimension r(X) with a witness image of full affine hull.

    Exhaustive over canonical images (first image 0, fresh generators in
    order), maximizing the number of generators; r(X) <= |X| - 1 always.
    """
    k = X.size
    if not 1 <= k <= MAX_BRUTE:
        raise PreconditionError(f"freiman_dimension handles 1 <= |X| <= {MAX_BRUTE}")
    xs = X.elements()
    if k == 1:
        return FreimanResult(r=0, witness=ElemSet.from_elements(0, [0]), method="brute-force")

    dom2img: Dict[int, int] = {}
    img2dom: Dict[int, int] = {}
    best = {"r": -1, "img": []}

    def assign(t: int, img: List[int], spanned: List[int], gens: int):
        if gens + (k - t) <= best["r"]:
            return  # cannot beat the incumbent
        if t == k:
            if gens > best["r"]:
                best["r"] = gens
                best["img"] = img.copy()
            return
        candidates = [v for v in spanned if v not in img]
        candidates.append(1 << gens)  # one fresh generator, canonically
        for y in candidates:
            added = []
            ok = True
            for j in range(t):
                s, fs = xs[j] ^ xs[t], img[j] ^ y
                if dom2img.get(s, fs) != fs or img2dom.get(fs, s) != s:
                    ok = False
                    break
                if s not in dom2img:
                    dom2img[s] = fs
                    img2dom[fs] = s
                    added.append((s, fs))
            if ok:
                img.append(y)
                if y == 1 << gens:
                    assign(t + 1, img, spanned + [w ^ y for w in spanned], gens + 1)
                else:
                    assign(t + 1, img, spanned, gens)
                img.pop()
            for s, fs in added:
                del dom2img[s]
                del img2dom[fs]

    assign(1, [0], [0], 0)
    r = best["r"]
    witness = ElemSet.from_elements(r, best["img"]) if r > 0 else ElemSet.from_elements(0, [0])
    return FreimanResult(r=r, witness=witness, method="brute-force")


def universal_freiman_rank(X: ElemSet) -> int:
    """Affine rank of the free F_2-space on X modulo all quadruple relations.

    Conjecturally equals r(X); use freiman_dimension where both run.
    """
    k = X.size
    if k == 0:
        raise PreconditionError("universal_freiman_rank needs a nonempty set")
    xs = X.elements()
    by_sum: Dict[int, List[int]] = {}
    for (i, j), s in _pair_classes(xs).items():
        by_sum.setdefault(s, []).append((1 << i) | (1 << j))
    relations = []
    for pairs in by_sum.values():
        relations.extend(pairs[0] ^ p for p in pairs[1:])
    rel_basis = rref(relations)
    affine = [(1 << i) | 1 for i in range(1, k)]  # chi_i + chi_0
    return len(rref(list(rel_basis) + affine)) - len(rel_basis)


@dataclass(frozen=True)
class DimBoundReport:
    r: int
    k: int
    l: int
    bound: float
    holds: bool


def _pow_le(base_exp2: int, k: int, rhs_pow: int, rhs_shift: int) -> bool:
    # decide 2^base_exp2 <= rhs_pow^k * 2^rhs_shift exactly
    if base_exp2 <= rhs_shift:
        return True
    return 1 << (base_exp2 - rhs_shift) <= rhs_pow**k


def check_dim_bound(X: ElemSet) -> DimBoundReport:
    """r(X) <= log2 k + 2l/k with k = |X| and l = |X + X|.

    Decided exactly: r <= log2 k + 2l/k iff 2^(r k) <= k^k * 2^(2l).
    """
    res = freiman_dimension(X)
    k, l = X.size, sumset(X, X).size
    holds = _pow_le(res.r * k, k, k, 2 * l)
    return DimBoundReport(r=res.r, k=k, l=l, bound=math.log2(k) + 2 * l / k, holds=holds)


@dataclass(frozen=True)
class EvenZoharReport:
    k: int
    big_k: float
    span_size: int
    bound: float
    holds: bool


def check_even_zohar(X: ElemSet) -> EvenZoharReport:
    """A translate of X fits in a subgroup of size 4^K k / (2K), K = |X+X|/k.

    The doubling hypothesis is translation-invariant, so the containment has
    to be read as coset containment: span_size is the size of the affine
    hull, the span of X shifted to pass through 0.  (The raw span of
    X + {0} genuinely exceeds the bound for e.g. a standard basis, whose
    hull is half its span.)  For k <= 128 the (generally irrational)
    inequality is decided exactly via hull^k (2l)^k <= 4^l k^(2k); beyond
    that, in log space.
    """
    if X.mask == 0:
        raise PreconditionError("check_even_zohar needs a nonempty set")
    k = X.size
    l = sumset(X, X).size
    x0 = (X.mask & -X.mask).bit_length() - 1
    span_size = span(X.translate(x0)).size
    if k <= 128:
        holds = (span_size * 2 * l) ** k <= (1 << (2 * l)) * k ** (2 * k)
    else:
        holds = math.log2(span_size) <= 2 * l / k + math.log2(k) - math.log2(2 * l / k) + 1e-9
    big_k = l / k
    bound = 4.0**big_k * k / (2 * big_k) if 2 * big_k < 500 else math.inf
    return EvenZoharReport(k=k, big_k=big_k, span_size=span_size, bound=bound, holds=holds)


@dataclass(frozen=True)
class SklCensus:
    """Counts of k-subsets of F_2^n by restricted-doubling size l."""

    n: int
    k: int
    counts: Dict[int, int]
    total: int
    union_bound: Fraction = field(compare=False)

    def csv_rows(self) -> List[str]:
        rows = ["n,k,l,count,union_bound_term"]
        for l in sorted(self.counts):
            term = Fraction(self.counts[l], 1 << l)
            rows.append(f"{self.n},{self.k},{l},{self.counts[l]},{term}")
        return rows


_CENSUS_BLOCK_BYTES = 1 << 24


def census_skl(n: int, k: int, budget: int = 10**8) -> SklCensus:
    """Exact census of all k-subsets of F_2^n by |X plus-distinct X|.

    Only the k-sets through the fixed points 0, ..., t - 1, t = min(k, 3),
    are enumerated.  |X plus-distinct X| is invariant under every affine map
    x -> Lx + c (the pair sums become L(x + y), and L is a bijection), and
    AGL(n, 2) is 3-transitive on F_2^n: any three distinct points are
    affinely independent over F_2, so some affine map sends 0, 1, 2 to them
    in order.  Double counting the pairs (X, ordered t-tuple of distinct
    points of X) with |X plus-distinct X| = l then gives
    counts[l] k(k-1)...(k-t+1) = hist[l] N(N-1)...(N-t+1), where hist[l]
    counts the k-sets through 0, ..., t - 1.  The division is exact; it and
    the total C(N, k) are checked.

    These subsets are split into blocks: a fixed prefix x_1 < ... < x_d and a
    range [a, b) for x_{d+1}; a block holds C(N - a, k - d) - C(N - b, k - d)
    subsets.  A block too large is halved on its range, or, when the range
    is one value, that value joins the prefix.  Each block is then expanded
    level by level in numpy (np.repeat offsets), every row carrying its
    elements, |S(X)| and its pair sums S(X) as a bitmask of W = ceil(N / 64)
    words (W = 0 for k <= 2, where no pair sum can repeat).  Adding v > max X
    gives pair sums x + v, pairwise distinct, so
    |S(X + v)| = |S(X)| + #{x in X : x + v not in S(X)}.  The last level ends
    in one np.bincount.  A block holds at most
    _CENSUS_BLOCK_BYTES // (8 (16 + k + W)) complete subsets, and no level
    holds more rows than the last, which keeps the arrays of one block
    within about 16 MiB at every admitted (n, k).  The first block, prefix
    0, ..., t - 2 and range [t - 1, t), holds exactly the k-sets through
    0, ..., t - 1.
    When 2k > N nothing is enumerated: for g != 0, |X| + |X + g| > N, so X
    meets X + g, some x != y in X have x + y = g, and every k-set has
    |X plus-distinct X| = N - 1.
    Refuses if C(2^n, k) exceeds the budget.
    """
    N = 1 << n
    if not 1 <= k <= N:
        raise PreconditionError(f"census_skl needs 1 <= k <= 2^{n}")
    total = math.comb(N, k)
    if total > budget:
        raise BudgetExceededError(f"C({N}, {k}) = {total} exceeds budget {budget}")
    counts = {N - 1: total} if 2 * k > N else _census_counts(N, k)
    if sum(counts.values()) != total:
        raise InvariantError(f"census counts sum to {sum(counts.values())}, not C({N}, {k})")
    union = sum((Fraction(c, 1 << l) for l, c in counts.items()), Fraction(0))
    return SklCensus(n=n, k=k, counts=counts, total=total, union_bound=union)


def _census_counts(N: int, k: int) -> Dict[int, int]:
    """The census counts by |X plus-distinct X|, from the k-sets through
    0, ..., t - 1 scaled by N(N-1)...(N-t+1) / (k(k-1)...(k-t+1))."""
    words = (N + 63) >> 6 if k >= 3 else 0
    cap = max(1, _CENSUS_BLOCK_BYTES // (8 * (16 + k + words)))
    hist = np.zeros(min(k * (k - 1) // 2, N - 1) + 1, dtype=np.int64)
    t = min(k, 3)
    stack: List[Tuple[Tuple[int, ...], int, int]] = [(tuple(range(t - 1)), t - 1, t)]
    while stack:
        prefix, a, b = stack.pop()
        rem = k - len(prefix)
        if math.comb(N - a, rem) - math.comb(N - b, rem) <= cap:
            _census_block(hist, prefix, a, b, N, k, words)
        elif b - a > 1:
            mid = (a + b) // 2
            stack += [(prefix, mid, b), (prefix, a, mid)]
        else:
            stack.append((prefix + (a,), a + 1, N - rem + 2))
    num, den = math.perm(N, t), math.perm(k, t)
    counts = {}
    for l, c in enumerate(hist):
        if c:
            counts[l], leftover = divmod(int(c) * num, den)
            if leftover:
                raise InvariantError(f"{int(c)} sets through 0..{t - 1} with l = {l} do not scale")
    return counts


def _census_block(
    hist: np.ndarray, prefix: Tuple[int, ...], a: int, b: int, N: int, k: int, words: int
) -> None:
    """Add to hist the k-subsets prefix + {v} + ... with a <= v < b."""
    d = len(prefix)
    elems = np.array(prefix, dtype=np.int64).reshape(1, d)
    sums = {x ^ y for i, x in enumerate(prefix) for y in prefix[:i]}
    S = np.zeros((1, words), dtype=np.uint64)
    for s in sums:
        S[0, s >> 6] |= np.uint64(1 << (s & 63))
    dist = np.array([len(sums)], dtype=np.int64)
    lo, hi = np.array([a], dtype=np.int64), b
    one = np.uint64(1)
    while True:
        cnt = hi - lo  # each row's choices for the next element, lo .. hi - 1
        rows = np.arange(int(cnt.sum()))
        v = rows - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
        last = d + 1 == k
        S = np.repeat(S, cnt, axis=0)
        dist = np.repeat(dist, cnt)
        for j in range(d):
            s = np.repeat(elems[:, j], cnt) ^ v
            word, bit = s >> 6, one << (s & 63).astype(np.uint64)
            w = S[rows, word] if d >= 2 else np.uint64(0)  # S(X) is empty below 2
            dist += (w & bit) == 0
            if not last:
                S[rows, word] = w | bit
        if last:
            c = np.bincount(dist)
            hist[: len(c)] += c
            return
        elems = np.column_stack([np.repeat(elems, cnt, axis=0), v])
        d += 1
        lo, hi = v + 1, N - (k - d - 1)


@dataclass(frozen=True)
class TailExponent:
    log2_bound: float
    regime: str
    log2_large: float
    log2_small: float


def tail_exponent(n: int, k: int, l: int) -> TailExponent:
    """log2 of the bound on (number of k-subsets with restricted doubling l)
    times 2^-l, using the sharper of the two census bounds.

    Both bounds replace the Freiman dimension by log2 k + 2(l+1)/k:
      large:  (r+1) n + 4 k log2 k - l
      small:  (r+1) n + k log2(e l / k) + k^(31/32) log2 e - l
    Asymptotically the large branch wins exactly when l >= k^(31/30).
    Computed at 40 significant digits.
    """
    if k < 2:
        raise PreconditionError("tail_exponent needs k >= 2")
    if l < 10 * k:
        raise PreconditionError(f"tail_exponent needs l >= 10k = {10 * k}, got {l}")
    with mp.workdps(40):
        log2k = mp.log(k, 2)
        r1 = log2k + mpf(2) * (l + 1) / k + 1  # r + 1
        base = mpf(n) * r1 - l
        large = base + 4 * k * log2k
        small = base + k * mp.log(mp.e * l / k, 2) + mpf(k) ** (mpf(31) / 32) * mp.log(mp.e, 2)
        if large <= small:
            return TailExponent(float(large), "large", float(large), float(small))
        return TailExponent(float(small), "small", float(large), float(small))


@dataclass(frozen=True)
class CoverProbeReport:
    failures: List[ElemSet]
    family_size_bound: float
    checked: int


def family_cover_probe(n: int, k: int, eps: float, d: int, budget: int = 10**8) -> CoverProbeReport:
    """For every k-subset X of F_2^n, look for a union of almost-cosets of a
    subspace of codimension <= d that sits inside X + X and has size at least
    (2 - eps) k', where k' is the power of 2 with k' < k <= 2k'.

    An almost-coset of V may omit up to eps^3 |V| elements.  Subsets with no
    such witness are reported; the probe asserts nothing (small n is far from
    the asymptotic regime).
    """
    N = 1 << n
    if n > 4:
        raise PreconditionError("family_cover_probe is exhaustive; n <= 4 only")
    if not 2 <= k <= N:
        raise PreconditionError(f"family_cover_probe needs 2 <= k <= 2^{n}")
    if not 0 < eps < 1:
        raise PreconditionError("family_cover_probe needs 0 < eps < 1")
    if not 0 <= d <= n:
        raise PreconditionError("family_cover_probe needs 0 <= d <= n")
    total = math.comb(N, k)
    if total > budget:
        raise BudgetExceededError(f"C({N}, {k}) = {total} exceeds budget {budget}")
    kprime = 1
    while 2 * kprime < k:
        kprime *= 2
    threshold = (2 - eps) * kprime
    spaces = []
    for dim in range(n - d, n + 1):
        for V in enumerate_subspaces(n, dim):
            vsize = 1 << dim
            allow = eps**3 * vsize
            coset_masks = [c.mask for c in cosets(V)]
            spaces.append((coset_masks, vsize, allow))

    failures = []
    checked = 0
    for subset in _k_subsets_mask(N, k):
        checked += 1
        s_mask = 0
        elems = list(bits_of(subset))
        for e in elems:
            s_mask |= xor_shift(subset, e, n)
        ok = False
        for coset_masks, vsize, allow in spaces:
            covered = 0
            for cm in coset_masks:
                inter = (cm & s_mask).bit_count()
                if vsize - inter <= allow:
                    covered += inter
            if covered > 0 and covered >= threshold:
                ok = True
                break
        if not ok:
            failures.append(ElemSet(n, subset))
    return CoverProbeReport(
        failures=failures, family_size_bound=2.0 ** (eps * N), checked=checked
    )


def _k_subsets_mask(N: int, k: int):
    """All k-element subsets of [0, N) as bitmasks, in colex order."""
    v = (1 << k) - 1
    top = 1 << N
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
