"""Random Cayley sum graphs on F_2^n.

Vertices are the 2^n elements; x ~ y iff x != y and x + y lands in the
generator set A (0 is never a generator).  Sampling draws one independent
fair coin per nonzero element, each a pure function of (seed, element), so a
graph is reproducible from (n, seed) alone and independent of evaluation
order.  Translations x -> x + t are automorphisms, so the graphs are
vertex-transitive and |A|-regular.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .gf2 import ElemSet
from .rng import coin_row

__all__ = ["CayleyGraph", "sample_cayley"]

MIN_N, MAX_N = 2, 13


@dataclass(frozen=True)
class CayleyGraph:
    """Frozen: a trial reads one graph from two threads."""

    n: int
    generators: ElemSet
    seed: Optional[int] = None

    def __post_init__(self):
        if not MIN_N <= self.n <= MAX_N:
            raise PreconditionError(f"graph dimension {self.n} outside {MIN_N}..{MAX_N}")
        if self.generators.n != self.n:
            raise PreconditionError("generator set lives in the wrong ambient dimension")
        if self.generators.mask & 1:
            object.__setattr__(self, "generators", ElemSet(self.n, self.generators.mask & ~1))

    def complement(self) -> "CayleyGraph":
        full = ((1 << (1 << self.n)) - 1) & ~1
        return CayleyGraph(self.n, ElemSet(self.n, full & ~self.generators.mask))

    def to_text(self) -> str:
        seed = "none" if self.seed is None else str(self.seed)
        hexdigits = (1 << self.n) // 4
        return f"n={self.n} seed={seed}\n{self.generators.mask:0{hexdigits}x}\n"

    @classmethod
    def from_text(cls, text: str) -> "CayleyGraph":
        parts = text.split()
        if len(parts) != 3 or not parts[0].startswith("n=") or not parts[1].startswith("seed="):
            raise PreconditionError("malformed graph text header")
        try:
            n = int(parts[0][2:])
            seedtok = parts[1][5:]
            seed = None if seedtok == "none" else int(seedtok)
            mask = int(parts[2], 16)
        except ValueError as exc:
            raise PreconditionError(f"malformed graph text: {exc}") from None
        return cls(n, ElemSet(n, mask), seed=seed)


def sample_cayley(n: int, seed: int) -> CayleyGraph:
    """Draw A by one fair coin per nonzero element of F_2^n."""
    if not MIN_N <= n <= MAX_N:
        raise PreconditionError(f"sample_cayley needs {MIN_N} <= n <= {MAX_N}")
    bits = coin_row(seed, 1 << n)  # CayleyGraph drops 0 from A
    return CayleyGraph(n, ElemSet.from_member_table(n, bits), seed=seed)
