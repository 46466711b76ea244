"""Linear algebra over F_2^n with integer bitmasks.

Vectors are plain ints (< 2^n, addition is XOR).  Dense subsets of F_2^n are
`ElemSet`s: a single int whose bit v records membership of the element v, so
set algebra is int bitwise ops and translation x -> x + t is a bit
permutation (`xor_shift`).  For numpy a set is a table of one 0/1 byte per
element (`ElemSet.member_table`): bit v of the mask is bit v % 8 of byte v // 8,
little-endian, and only this module converts between the two.  Subspaces are
kept in reduced row echelon form with pivots strictly decreasing, which makes
the basis tuple a canonical key: two Subspace values are equal iff they are
the same subspace.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .errors import BudgetExceededError, PreconditionError, require_budget

__all__ = [
    "ElemSet",
    "Subspace",
    "bits_of",
    "xor_shift",
    "rref",
    "span",
    "subspace_members",
    "gaussian_row",
    "gaussian_binomial",
    "enumerate_subspaces",
    "cosets",
]

MAX_SET_DIM = 20


def bits_of(mask: int) -> Iterator[int]:
    """Yield the indices of set bits, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


@lru_cache(maxsize=None)
def _levels(n: int) -> Tuple[Tuple[int, int], ...]:
    """Pairs (2^j, L_j) for j < n; L_j marks the positions p < 2^n whose
    j-th index bit is 0."""
    full = (1 << (1 << n)) - 1
    return tuple((1 << j, ((1 << (1 << j)) - 1) * (full // ((1 << (2 << j)) - 1)))
                 for j in range(n))


def xor_shift(mask: int, t: int, n: int) -> int:
    """Permute an ElemSet bitmask by the translation x -> x + t."""
    for s, low in _levels(n):
        if t & s:
            mask = ((mask >> s) & low) | ((mask & low) << s)
    return mask


@dataclass(frozen=True)
class ElemSet:
    """A subset of F_2^n as a 2^n-bit membership mask."""

    n: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_SET_DIM:
            raise PreconditionError(f"ambient dimension {self.n} outside 0..{MAX_SET_DIM}")
        if not 0 <= self.mask < (1 << (1 << self.n)):
            raise PreconditionError("membership mask has bits outside F_2^n")

    @classmethod
    def empty(cls, n: int) -> "ElemSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ElemSet":
        return cls(n, (1 << (1 << n)) - 1)

    @classmethod
    def from_elements(cls, n: int, elems: Iterable[int]) -> "ElemSet":
        if not 0 <= n <= MAX_SET_DIM:  # before 1 << n below
            raise PreconditionError(f"ambient dimension {n} outside 0..{MAX_SET_DIM}")
        mask = 0
        for v in elems:
            if not 0 <= v < (1 << n):
                raise PreconditionError(f"element {v} outside F_2^{n}")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def from_member_table(cls, n: int, table: np.ndarray) -> "ElemSet":
        """The set of the v with table[v] nonzero; the inverse of member_table."""
        return cls(n, int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little"))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < (1 << self.n) and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def elements(self) -> List[int]:
        return list(bits_of(self.mask))

    def member_table(self) -> np.ndarray:
        """A fresh 0/1 uint8 array of length 2^n, 1 on the set; np.flatnonzero
        of it lists the set in time linear in 2^n, elements() quadratic."""
        N = 1 << self.n
        raw = np.frombuffer(self.mask.to_bytes((N + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:N]

    def translate(self, t: int) -> "ElemSet":
        """The translate X + t, for t an element of F_2^n (0 <= t < 2^n)."""
        if not 0 <= t < (1 << self.n):
            raise PreconditionError(f"translation by {t} outside F_2^{self.n}")
        return ElemSet(self.n, xor_shift(self.mask, t, self.n))


def rref(vectors: Iterable[int]) -> Tuple[int, ...]:
    """Canonical RREF basis (pivots strictly decreasing) of a span.

    Each vector is reduced by the rows so far; a nonzero remainder becomes a
    row, and its pivot bit is cleared from the rows that hold it.  Distinct
    pivots are distinct top bits, so one sort at the end orders the rows.
    """
    rows: List[int] = []
    for v in vectors:
        for b in rows:
            if v & (1 << (b.bit_length() - 1)):
                v ^= b
        if v:
            pivot = 1 << (v.bit_length() - 1)
            for i, b in enumerate(rows):
                if b & pivot:
                    rows[i] = b ^ v
            rows.append(v)
    return tuple(sorted(rows, reverse=True))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n held as its canonical RREF basis."""

    n: int
    basis: Tuple[int, ...]

    def __post_init__(self):
        pivots = 0
        prev = 1 << self.n
        for b in self.basis:
            if not 0 < b < (1 << self.n):
                raise PreconditionError("basis vector outside F_2^n")
            pivot = 1 << (b.bit_length() - 1)
            if pivot >= prev:
                raise PreconditionError("basis pivots must strictly decrease")
            pivots |= pivot
            prev = pivot
        for b in self.basis:
            pivot = 1 << (b.bit_length() - 1)
            if b & (pivots ^ pivot):
                raise PreconditionError("basis is not reduced (pivot column not cleared)")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << len(self.basis)

    def reduce(self, v: int) -> int:
        """Clear all pivot bits of v: the minimum element of the coset v + V."""
        for b in self.basis:
            if v & (1 << (b.bit_length() - 1)):
                v ^= b
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def span(X: ElemSet) -> Subspace:
    """Smallest subspace containing X (the linear span; subgroups of F_2^n).

    Built by doubling: each step takes the least element of X outside the
    span so far and ORs in the span's translate by it, so the member mask
    doubles and the step count is the dimension.  The loop stops after n
    steps whatever happens, so a broken translate cannot keep it running.
    """
    n = X.n
    members = 1
    gens = []
    for _ in range(n):
        rest = X.mask & ~members
        if not rest:
            break
        v = (rest & -rest).bit_length() - 1
        gens.append(v)
        members |= xor_shift(members, v, n)
    return Subspace(n, rref(gens))


def subspace_members(V: Subspace) -> ElemSet:
    mask = 1
    for b in V.basis:
        mask |= xor_shift(mask, b, V.n)
    return ElemSet(V.n, mask)


def gaussian_row(n: int, k: int) -> List[int]:
    """[n, i]_2 for i = 0..k, the numbers of i-dimensional subspaces of F_2^n.

    Exact integer recurrence [n, i+1] = [n, i] (2^(n-i) - 1) / (2^(i+1) - 1);
    every division is exact.
    """
    if not 0 <= k <= n <= 64:
        raise PreconditionError(f"gaussian_row needs 0 <= k <= n <= 64, got ({n}, {k})")
    row = [1]
    for i in range(k):
        row.append(row[-1] * ((1 << (n - i)) - 1) // ((1 << (i + 1)) - 1))
    return row


def gaussian_binomial(n: int, m: int) -> int:
    """Number of m-dimensional subspaces of F_2^n, exactly: [n, m]_2."""
    if not 0 <= m <= n <= 64:
        raise PreconditionError(f"gaussian_binomial needs 0 <= m <= n <= 64, got ({n}, {m})")
    return gaussian_row(n, min(m, n - m))[-1]  # [n, m] = [n, n - m]


def enumerate_subspaces(n: int, m: int, budget: int = 10**8) -> Iterator[Subspace]:
    """All m-dimensional subspaces of F_2^n, each exactly once.

    Bases are generated directly in canonical RREF: pick the descending pivot
    set, then run a counter over the free cells (non-pivot columns below each
    row's pivot).  Refuses up front if the total count exceeds `budget`.
    """
    budget = require_budget(budget)
    if not 0 <= m <= n <= MAX_SET_DIM:
        raise PreconditionError(f"enumerate_subspaces needs 0 <= m <= n <= {MAX_SET_DIM}")
    total = gaussian_binomial(n, m)
    if total > budget:
        raise BudgetExceededError(
            f"{total} subspaces of dimension {m} in F_2^{n} exceeds budget {budget}"
        )
    return _gen_subspaces(n, m)


def _gen_subspaces(n: int, m: int) -> Iterator[Subspace]:
    for pivots_asc in combinations(range(n), m):
        pivots = tuple(reversed(pivots_asc))  # row i gets pivot pivots[i]
        pivot_mask = 0
        for p in pivots:
            pivot_mask |= 1 << p
        free_cells = []  # (row, position) in a fixed order
        for i, p in enumerate(pivots):
            for pos in range(p):
                if not (pivot_mask >> pos) & 1:
                    free_cells.append((i, pos))
        base_rows = [1 << p for p in pivots]
        for fill in range(1 << len(free_cells)):
            rows = base_rows.copy()
            f = fill
            while f:
                lsb = f & -f
                i, pos = free_cells[lsb.bit_length() - 1]
                rows[i] |= 1 << pos
                f ^= lsb
            yield Subspace(n, tuple(rows))


def cosets(V: Subspace) -> List[ElemSet]:
    """Partition of F_2^n into cosets of V, ordered by their minimum element.

    The minimum of a coset is its unique representative with all pivot bits
    clear, so representatives are exactly the fillings of the non-pivot
    positions; doubling the list over those positions, lowest first, lists
    them in increasing order.
    """
    pivots = [b.bit_length() - 1 for b in V.basis]
    reps = [0]
    for p in range(V.n):
        if p not in pivots:
            reps += [r | 1 << p for r in reps]
    members = subspace_members(V).mask
    return [ElemSet(V.n, xor_shift(members, r, V.n)) for r in reps]
