"""Sumsets, subspace cliques and random Cayley graphs over F_2^n.

Exact desk-scale machinery: GF(2) linear algebra on bitset-encoded sets,
restricted sumsets and stabilizer bounds, Freiman dimension and doubling
censuses, seeded random Cayley graphs with exact clique / chromatic
computation, rational moments of the subspace-clique count, and a
reproducible experiment harness.
"""
from . import cayley, cliques, errors, experiments, freiman, gf2, moments, rng, sumsets
from .errors import *
from .gf2 import *
from .sumsets import *
from .freiman import *
from .rng import *
from .cayley import *
from .cliques import *
from .moments import *
from .experiments import *

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = [
    name
    for module in (errors, gf2, sumsets, freiman, rng, cayley, cliques, moments, experiments)
    for name in module.__all__
] + ["__version__"]
