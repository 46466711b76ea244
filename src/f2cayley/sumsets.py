"""Sumsets, restricted sumsets and small additive inequalities over F_2^n.

X + Y is computed by OR-ing translates of the larger set's bitmask over the
smaller set's elements, stopping once the space is covered.  The restricted sumset {x + y : x != y} is computed
from its pairwise definition; over F_2^n it always equals (X + Y) \\ {0},
which the tests use as an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, PreconditionError
from .gf2 import ElemSet, Subspace, bits_of, span, xor_shift

__all__ = [
    "sumset",
    "restricted_sumset",
    "sym",
    "InequalityReport",
    "kneser_check",
    "sandwich_check",
    "DoublingStats",
    "doubling_stats",
]


def _same_ambient(X: ElemSet, Y: ElemSet) -> int:
    if X.n != Y.n:
        raise PreconditionError(f"ambient dimensions differ: {X.n} vs {Y.n}")
    return X.n


def sumset(X: ElemSet, Y: ElemSet) -> ElemSet:
    """X + Y = {x + y : x in X, y in Y}."""
    n = _same_ambient(X, Y)
    small, large = (X, Y) if X.size <= Y.size else (Y, X)
    full = (1 << (1 << n)) - 1
    acc = 0
    for e in bits_of(small.mask):
        acc |= xor_shift(large.mask, e, n)
        if acc == full:
            break
    return ElemSet(n, acc)


def restricted_sumset(X: ElemSet, Y: ElemSet) -> ElemSet:
    """X plus Y over pairs of distinct elements: {x + y : x != y}."""
    n = _same_ambient(X, Y)
    nonzero = (1 << (1 << n)) - 2
    acc = 0
    for e in bits_of(X.mask):
        acc |= xor_shift(Y.mask & ~(1 << e), e, n)
        if acc == nonzero:
            break
    return ElemSet(n, acc)


def sym(S: ElemSet) -> Subspace:
    """Stabilizer Sym(S) = {g : g + S = S}, itself a subspace.

    Translation is a bijection, so Sym(S) = Sym(T) for T the smaller of S
    and its complement, and for finite T, {g : g + T subset of T} = Sym(T).
    That set is the intersection of T + s over s in T; the intersection
    always holds 0 and stops shrinking once it is {0}.  An empty T (S the
    whole space) leaves the whole space.  Its basis comes from `span` of
    that mask, by doubling in at most n steps; the size check then confirms
    that the mask was the subspace it spans.
    """
    if S.mask == 0:
        raise PreconditionError("Sym of the empty set is undefined")
    n = S.n
    full = (1 << (1 << n)) - 1
    T = min(S.mask, full ^ S.mask, key=int.bit_count)
    stab = full
    for s in bits_of(T):
        stab &= xor_shift(T, s, n)
        if stab == 1:
            break
    V = span(ElemSet(n, stab))
    if V.size != stab.bit_count():
        raise InvariantError("stabilizers do not form a subgroup")
    return V


@dataclass(frozen=True)
class InequalityReport:
    lhs: int
    rhs: int
    holds: bool


def kneser_check(A: ElemSet, B: ElemSet) -> InequalityReport:
    """|A + B| >= |A| + |B| - |Sym(A + B)| (Kneser's bound for F_2^n)."""
    if A.mask == 0 or B.mask == 0:
        raise PreconditionError("kneser_check needs nonempty A and B")
    S = sumset(A, B)
    w = sym(S).size
    lhs = S.size
    rhs = A.size + B.size - w
    return InequalityReport(lhs, rhs, lhs >= rhs)


def sandwich_check(A: ElemSet, B: ElemSet, m: int) -> InequalityReport:
    """|A + B| >= min(|A| + m, 2m) whenever |B| > m and m is a power of 2."""
    if A.mask == 0:
        raise PreconditionError("sandwich_check needs nonempty A")
    if m < 1 or m & (m - 1):
        raise PreconditionError(f"m = {m} is not a power of 2")
    if B.size <= m:
        raise PreconditionError(f"|B| = {B.size} must exceed m = {m}")
    lhs = sumset(A, B).size
    rhs = min(A.size + m, 2 * m)
    return InequalityReport(lhs, rhs, lhs >= rhs)


@dataclass(frozen=True)
class DoublingStats:
    k: int
    sum_size: int
    restricted_size: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.sum_size, self.k)


def doubling_stats(X: ElemSet) -> DoublingStats:
    """Sizes of X + X and of the restricted sumset of X with itself."""
    if X.mask == 0:
        raise PreconditionError("doubling_stats needs a nonempty set")
    s = sumset(X, X).size
    r = restricted_sumset(X, X).size
    if s != r + 1:  # 0 = x + x is the only difference over F_2^n
        raise InvariantError(f"|X + X| = {s} but the restricted sumset has {r}")
    return DoublingStats(k=X.size, sum_size=s, restricted_size=r)
