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
from typing import List, Optional

import numpy as np

from .errors import PreconditionError
from .gf2 import ElemSet, xor_shift
from .rng import coin_row

__all__ = ["CayleyGraph", "sample_cayley"]

MIN_N, MAX_N = 2, 13


@dataclass
class CayleyGraph:
    """Immutable by convention."""

    n: int
    generators: ElemSet
    seed: Optional[int] = None

    def __post_init__(self):
        if not MIN_N <= self.n <= MAX_N:
            raise PreconditionError(f"graph dimension {self.n} outside {MIN_N}..{MAX_N}")
        if self.generators.n != self.n:
            raise PreconditionError("generator set lives in the wrong ambient dimension")
        if self.generators.mask & 1:
            self.generators = ElemSet(self.n, self.generators.mask & ~1)

    @property
    def num_vertices(self) -> int:
        return 1 << self.n

    @property
    def degree(self) -> int:
        return self.generators.size

    def neighbors(self, x: int) -> ElemSet:
        """The neighbor set x + A of a vertex."""
        if not 0 <= x < self.num_vertices:
            raise PreconditionError(f"vertex {x} outside F_2^{self.n}")
        return ElemSet(self.n, xor_shift(self.generators.mask, x, self.n))

    def has_edge(self, x: int, y: int) -> bool:
        return x != y and ((self.generators.mask >> (x ^ y)) & 1) == 1

    def adjacency_masks(self) -> List[int]:
        """Per-vertex neighbor bitmasks (2^n masks of 2^n bits), built on each call."""
        a, n = self.generators.mask, self.n
        return [xor_shift(a, v, n) for v in range(1 << n)]

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
    bits = coin_row(seed, 1 << n)
    bits[0] = 0
    mask = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return CayleyGraph(n, ElemSet(n, mask), seed=seed)
