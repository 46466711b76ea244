"""Exact clique, independence and chromatic computations on Cayley graphs.

A set X spans a clique iff all pairwise sums of distinct elements land in the
generator set; in particular a subspace H gives a clique on its members iff
every nonzero element of H is a generator.  `subspace_cliques` counts those
qualifying subspaces per dimension, and its deepest witness seeds the
branch-and-bound maximum clique search.  Budgets are counted in search-tree
nodes, never wall time, so runs are reproducible.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InvariantError, PreconditionError
from .cayley import CayleyGraph
from .gf2 import ElemSet, Subspace, _levels, bits_of, rref, subspace_members, xor_shift

__all__ = [
    "CliqueOutcome",
    "SubspaceCliqueReport",
    "subspace_cliques",
    "max_clique",
    "independence_number",
    "verify_clique",
    "verify_independent",
    "Coloring",
    "coset_coloring",
    "greedy_coloring",
    "verify_coloring",
    "ChromaticBracket",
    "chromatic_bracket",
]


@dataclass(frozen=True)
class CliqueOutcome:
    size: int
    witness: ElemSet
    optimal: bool
    method: str  # exact | subspace-seeded | budget-exhausted
    nodes: int


@dataclass(frozen=True)
class SubspaceCliqueReport:
    """Counts M_m of m-dimensional subspaces whose nonzero part is all-edges.

    M_0 = 1 (the zero subspace) always.  The enumeration always runs to the
    end, so every count is exact and `complete` is always True; the field is
    kept for callers that check it.  `witness_basis` is a canonical RREF basis
    of the first deepest subspace in the search order.
    """

    counts: Dict[int, int]
    max_dim: int
    complete: bool
    witness_basis: Tuple[int, ...]


def subspace_cliques(G: CayleyGraph) -> SubspaceCliqueReport:
    """Count qualifying subspaces per dimension by orderly depth-first search.

    A subspace H is reached through its reduced row echelon basis with rows
    added in increasing pivot order, so it is produced exactly once (orderly
    generation; Read 1978, McKay 1998) and no visited set is kept.  Each node
    carries W(H) = intersection over h in H of (A + h), the set of v with
    v + H inside A, and `elig`, the v whose top bit lies above every pivot of
    H and which are zero at every pivot.  The children of H are then exactly
    H + <v> for v in W(H) & elig: they are counted by popcount, and the search
    descends only into those that can have children of their own.  Memory is
    O(n) masks of 2^n bits.
    """
    n = G.n
    full = (1 << (1 << n)) - 1
    # step[p]: the v zero at position p with top bit above p, i.e. the rows
    # that may follow a row with pivot p; a pivot n - 1 leaves none
    step = [low & (full >> (2 * s) << (2 * s)) for s, low in _levels(n)[:-1]]
    below_top = (1 << (1 << (n - 1))) - 1
    counts = {0: 1}
    rows: List[int] = []  # basis of the current H, pivots increasing
    best: List[int] = []  # first basis met at the deepest dimension so far

    def grow(w: int, elig: int) -> None:
        cand = w & elig
        if not cand:
            return
        d = len(rows) + 1
        counts[d] = counts.get(d, 0) + cand.bit_count()
        if d > len(best):
            best[:] = rows + [(cand & -cand).bit_length() - 1]
        cand &= below_top
        while cand:
            p = ((cand & -cand).bit_length() - 1).bit_length() - 1
            block = cand & (((1 << (1 << p)) - 1) << (1 << p))  # the v with pivot p
            cand ^= block
            sub = elig & step[p]
            if not w & sub:  # W only shrinks, so no child of pivot p can grow
                continue
            for v in bits_of(block):
                rows.append(v)
                grow(w & xor_shift(w, v, n), sub)
                rows.pop()

    grow(G.generators.mask, full - 1)  # any nonzero v may be the first row
    return SubspaceCliqueReport(
        counts=counts, max_dim=max(counts), complete=True, witness_basis=rref(best)
    )


def verify_clique(G: CayleyGraph, X: ElemSet) -> bool:
    """Independent O(|X|^2) pairwise check."""
    els = X.elements()
    a = G.generators.mask
    return all((a >> (els[i] ^ els[j])) & 1 for i in range(len(els)) for j in range(i + 1, len(els)))


def verify_independent(G: CayleyGraph, X: ElemSet) -> bool:
    els = X.elements()
    a = G.generators.mask
    return not any(
        (a >> (els[i] ^ els[j])) & 1 for i in range(len(els)) for j in range(i + 1, len(els))
    )


def _require(ok: bool, what: str) -> None:
    """Certificate check that runs at every n and under python -O."""
    if not ok:
        raise InvariantError(what)


class _Budget(Exception):
    pass


# Rows of a local adjacency gathered at once, so that the index matrix of the
# root's graph on A stays under 512 x 2^13 int64 entries (32 MiB) at n = 13.
_GATHER_ROWS = 512


def _local_graph(lab: np.ndarray, dbits: np.ndarray) -> Tuple[List[int], List[int]]:
    """Adjacency and non-adjacency masks of the candidates `lab` relabelled
    0..k-1 in the order given, where u ~ w iff lab[u] + lab[w] lies in the set
    with indicator `dbits`.  dbits[0] must be False; the non-adjacency mask of
    u leaves out u itself."""
    k = len(lab)
    adj: List[int] = []
    for s in range(0, k, _GATHER_ROWS):
        packed = np.packbits(dbits[lab[s:s + _GATHER_ROWS, None] ^ lab[None, :]], axis=1,
                             bitorder="little")
        w = packed.shape[1]
        buf = packed.tobytes()
        rows = [buf[i:i + w] for i in range(0, len(buf), w)]
        adj.extend(map(int.from_bytes, rows, ["little"] * len(rows)))
    full = (1 << k) - 1
    return adj, [full ^ a ^ (1 << u) for u, a in enumerate(adj)]


def max_clique(
    G: CayleyGraph,
    budget: Optional[int] = None,
    subspace_report: Optional[SubspaceCliqueReport] = None,
) -> CliqueOutcome:
    """Exact maximum clique by branch and bound with a greedy-coloring bound.

    The graph is vertex-transitive, so every maximum clique has a translate
    through vertex 0 and the root branches only on generators, the vertices
    of N(0) = A.  Translation symmetry is used twice more below the root, so
    that of the translates K + x (x in K) of a clique K through 0 the search
    meets essentially one:

    - Difference rule.  Let D be the root candidates not yet branched when
      the root branches on v (v included).  Let g be the first branched
      element of the difference set K + K \\ {0} of a clique K through 0,
      say g = x + y with x, y in K.  Then K + x holds 0 and g and has the
      same differences, all in D when g is branched.  So branch v searches
      only P2 = {u : u in D and u + v in D}, and inside it two candidates
      are adjacent only if their sum lies in D.  If the root prunes before
      any difference of K is branched, K + x \\ {0} lies in the pruned
      candidates and the coloring bound covers it.
    - Pairing rule.  Inside branch v, translation by v fixes {0, v} and maps
      P2 onto itself.  Once the branch on a third vertex w is done, a clique
      through w + v has a translate of the same size through w, so w and
      w + v leave the candidates together, which keeps them closed under
      the translation.

    Both rules drop only work that is done elsewhere, so the bound stays
    valid and the result is exact; the witness is some maximum clique.

    Each graph searched, the root's on A and each root branch's on P2, is
    relabelled to local indices 0..k-1 in increasing order of its vertices
    (as in BBMC, San Segundo et al. 2011), with its adjacency masks built by
    one numpy gather of D at the pairwise sums; the partner w + v of the
    pairing rule becomes a local index.  The order is kept, so every
    coloring, branch and node is the one a search over the global labels
    makes; only the masks are shorter.  A node with clique R colors its
    candidates greedily, class by class, and lists only the vertices of
    color at least kmin = best - |R| + 1 (MCQ, Tomita & Kameda 2007), the
    only ones that could be branched on: once the classes done plus the
    candidates left fall short of kmin, it stops coloring.

    The incumbent starts from the deepest subspace clique.  With a node
    budget the search may stop early, after exactly `budget` nodes,
    returning the incumbent with optimal=False.
    """
    n = G.n
    rep = subspace_report if subspace_report is not None else subspace_cliques(G)
    seed_mask = subspace_members(Subspace(n, rep.witness_basis)).mask
    best_mask, best_size, nodes = seed_mask, seed_mask.bit_count(), 0

    def color_order(P: int, nadj: List[int], kmin: int) -> Tuple[List[int], List[int]]:
        order: List[int] = []
        bound: List[int] = []
        color = 0
        while P:
            color += 1
            if color - 1 + P.bit_count() < kmin:
                break
            q = P
            if color < kmin:
                while q:
                    lsb = q & -q
                    P ^= lsb
                    q &= nadj[lsb.bit_length() - 1]
            else:
                while q:
                    lsb = q & -q
                    v = lsb.bit_length() - 1
                    order.append(v)
                    bound.append(color)
                    P ^= lsb
                    q &= nadj[v]
        return order, bound

    def expand(r_mask: int, r_size: int, P: int, adj: List[int], nadj: List[int],
               lab: List[int], partner: Optional[List[int]]) -> None:
        # inside one root branch: r_mask is global, P local; `partner` is
        # given at the branch's first level, where the pairing rule applies
        nonlocal best_mask, best_size, nodes
        order, bound = color_order(P, nadj, best_size - r_size + 1)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            vb = 1 << v
            if not P & vb:
                continue
            if budget is not None and nodes >= budget:
                raise _Budget
            nodes += 1
            P2 = P & adj[v]
            if P2:
                expand(r_mask | (1 << lab[v]), r_size + 1, P2, adj, nadj, lab, None)
            elif r_size + 1 > best_size:
                best_size = r_size + 1
                best_mask = r_mask | (1 << lab[v])
            P &= ~vb
            if partner is not None:
                P &= ~(1 << partner[v])

    N = 1 << n
    root = np.array(G.generators.elements(), dtype=np.int64)  # A, increasing
    dbits = np.zeros(N, dtype=bool)  # D, the root candidates not yet branched
    dbits[root] = True
    _, root_nadj = _local_graph(root, dbits)
    order, bound = color_order((1 << len(root)) - 1, root_nadj, best_size)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, N + 200))
    try:
        for i in range(len(order) - 1, -1, -1):
            if 1 + bound[i] <= best_size:
                break
            v = int(root[order[i]])
            if budget is not None and nodes >= budget:
                raise _Budget
            nodes += 1
            lab = root[dbits[root] & dbits[root ^ v]]  # P2 of the difference rule
            if len(lab):
                adj, nadj = _local_graph(lab, dbits)
                partner = np.searchsorted(lab, lab ^ v).tolist()
                expand(1 | (1 << v), 2, (1 << len(lab)) - 1, adj, nadj, lab.tolist(), partner)
            elif 2 > best_size:
                best_size, best_mask = 2, 1 | (1 << v)
            dbits[v] = False
        optimal = True
    except _Budget:
        optimal = False
    finally:
        sys.setrecursionlimit(old_limit)

    witness = ElemSet(n, best_mask)
    _require(verify_clique(G, witness), "max_clique witness is not a clique")
    if optimal:
        method = "exact"
    elif best_mask == seed_mask:
        method = "subspace-seeded"
    else:
        method = "budget-exhausted"
    return CliqueOutcome(
        size=best_size, witness=witness, optimal=optimal, method=method, nodes=nodes,
    )


def independence_number(G: CayleyGraph, budget: Optional[int] = None) -> CliqueOutcome:
    """Maximum independent set = maximum clique of the complement Cayley graph."""
    out = max_clique(G.complement(), budget=budget)
    _require(verify_independent(G, out.witness), "independence witness is not independent")
    return out


@dataclass(frozen=True)
class Coloring:
    colors: Tuple[int, ...]
    num_colors: int


def coset_coloring(G: CayleyGraph, V: Subspace) -> Coloring:
    """Color by cosets of an independent subspace V.

    Proper iff no generator lies in V \\ {0} (a within-coset pair (x, x+a)
    exists exactly when a is a nonzero element of V); violated preconditions
    report such a pair.  Uses 2^(n - dim V) colors.  Properness is re-checked
    edge by edge all the same.
    """
    if V.n != G.n:
        raise PreconditionError("subspace lives in the wrong ambient dimension")
    viol = subspace_members(V).mask & ~1 & G.generators.mask
    if viol:
        s = (viol & -viol).bit_length() - 1
        raise PreconditionError(
            f"subspace is not independent: vertices 0 and {s} are adjacent with sum in V"
        )
    reps: Dict[int, int] = {}
    colors = []
    for x in range(1 << G.n):
        rep = V.reduce(x)
        colors.append(reps.setdefault(rep, len(reps)))
    col = Coloring(colors=tuple(colors), num_colors=len(reps))
    _require(verify_coloring(G, col), "coset coloring is not proper")
    return col


def verify_coloring(G: CayleyGraph, coloring: Coloring) -> bool:
    """True iff every vertex has a color in [0, num_colors) and no edge
    x ~ x + a joins two vertices of one color."""
    N = 1 << G.n
    colors = np.asarray(coloring.colors, dtype=np.int64)
    if colors.shape != (N,) or colors.min() < 0 or colors.max() >= coloring.num_colors:
        return False
    x = np.arange(N)
    return not any((colors[x ^ a] == colors).any() for a in bits_of(G.generators.mask))


def greedy_coloring(G: CayleyGraph) -> Coloring:
    """Deterministic plain greedy: vertices in index order, each with the
    smallest color its earlier neighbors lack.

    A vertex's neighbors are gens + v, and those not yet colored hold the
    color |A| + 1, which no vertex gets.  `chromatic_bracket` does not call
    it: on the random graphs tested, its color classes were the cosets of its
    color-0 class, an independent subspace, so it never used fewer colors
    than the coset coloring over the deepest one.
    """
    N = 1 << G.n
    gens = np.array(G.generators.elements(), dtype=np.int64)
    free = len(gens) + 1
    color_of = np.full(N, free, dtype=np.int64)
    for v in range(N):
        used = np.zeros(free + 1, dtype=bool)
        used[color_of[gens ^ v]] = True
        color_of[v] = used.argmin()  # at most |A| colors are used
    colors = color_of.tolist()
    col = Coloring(colors=tuple(colors), num_colors=max(colors) + 1)
    _require(verify_coloring(G, col), "greedy coloring is not proper")
    return col


@dataclass(frozen=True)
class ChromaticBracket:
    lower: int
    upper: int
    exact: Optional[int]
    nodes: int


class _Done(Exception):
    pass


def _exact_chromatic(adj: List[int], N: int, lower: int, upper: int, budget: Optional[int]):
    """DSATUR branch and bound; returns (chi or None, nodes used)."""
    best = upper
    colors = [-1] * N
    state = {"nodes": 0}

    def rec(colored: int, num_used: int) -> None:
        nonlocal best
        if num_used >= best:
            return
        if colored == N:
            best = num_used
            if best == lower:
                raise _Done
            return
        if budget is not None and state["nodes"] >= budget:
            raise _Budget
        state["nodes"] += 1
        # most saturated uncolored vertex, then lowest index
        bv, bused, bsat = -1, 0, (-1, 0)
        for v in range(N):
            if colors[v] == -1:
                used = 0
                for u in bits_of(adj[v]):
                    if colors[u] >= 0:
                        used |= 1 << colors[u]
                key = (used.bit_count(), -v)
                if key > bsat:
                    bsat, bv, bused = key, v, used
        for c in range(min(num_used + 1, best - 1)):
            if not (bused >> c) & 1:
                colors[bv] = c
                rec(colored + 1, max(num_used, c + 1))
                colors[bv] = -1

    try:
        rec(0, 0)
    except _Done:
        pass
    except _Budget:
        return None, state["nodes"]
    return best, state["nodes"]


def chromatic_bracket(
    G: CayleyGraph,
    budget: Optional[int] = None,
    subspace_report: Optional[SubspaceCliqueReport] = None,
    clique: Optional[CliqueOutcome] = None,
) -> ChromaticBracket:
    """Bracket the chromatic number; exact by exhaustive search when n <= 5.

    lower = max(clique size found, ceil(N / alpha upper bound)); the alpha
    upper bound comes from the exact independence number when its search
    completes, else from a coset clique cover (N / 2^d cliques for a
    qualifying d-dimensional subspace).  upper = N / 2^d', the colors of the
    coset coloring over the deepest independent subspace (dimension d') that
    `subspace_cliques` finds in the complement; d' = 0 gives N singleton
    cosets, still a proper coloring.
    Callers that already hold the subspace report or the clique outcome for G
    can pass them in to skip recomputation.
    """
    n, N = G.n, 1 << G.n
    rep = subspace_cliques(G) if subspace_report is None else subspace_report
    omega = clique if clique is not None else max_clique(G, budget=budget, subspace_report=rep)
    comp = G.complement()
    comp_rep = subspace_cliques(comp)
    alpha = max_clique(comp, budget=budget, subspace_report=comp_rep)
    nodes = omega.nodes + alpha.nodes

    alpha_ub = N >> rep.max_dim  # cosets of a qualifying subspace cover V by cliques
    if alpha.optimal:
        alpha_ub = min(alpha_ub, alpha.size)
    lower = max(omega.size, -(-N // alpha_ub))

    upper = coset_coloring(G, Subspace(n, comp_rep.witness_basis)).num_colors
    _require(lower <= upper, "chromatic bracket is inverted")

    exact = None
    if lower == upper:
        exact = lower
    elif n <= 5:
        adj = G.adjacency_masks()
        exact, used = _exact_chromatic(adj, N, lower, upper, budget)
        nodes += used
        if exact is not None:
            lower = upper = exact
    return ChromaticBracket(lower=lower, upper=upper, exact=exact, nodes=nodes)
