"""Exact clique, independence and chromatic computations on Cayley graphs.

A set X spans a clique iff all pairwise sums of distinct elements land in the
generator set; in particular a subspace H gives a clique on its members iff
every nonzero element of H is a generator.  `subspace_cliques` counts those
qualifying subspaces per dimension, and its deepest witness seeds the
branch-and-bound maximum clique search.  Budgets are counted in search-tree
nodes, never wall time, so runs are reproducible.

Everything here works on one graph.  A side, a graph's subspace report and
then its maximum clique (`_side`), needs nothing from any other side, so
`_run_sides` runs a list of sides on one queue of threads, and `_bracket`
turns a graph's clique and its complement's side into a chromatic bracket.
`chromatic_bracket` is that path for one graph; `experiments._records` lays
out and reads the sides of a whole batch of trials.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _native
from .errors import InvariantError, PreconditionError, require_budget
from .cayley import CayleyGraph
from .gf2 import ElemSet, Subspace, rref, subspace_members

__all__ = [
    "CliqueOutcome",
    "SubspaceCliqueReport",
    "subspace_cliques",
    "max_clique",
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
    witness: ElemSet
    optimal: bool
    nodes: int

    @property
    def size(self) -> int:
        return self.witness.size


@dataclass(frozen=True)
class SubspaceCliqueReport:
    """Counts M_m of m-dimensional subspaces whose nonzero part is all-edges.

    M_0 = 1 (the zero subspace) always.  The enumeration always runs to the
    end, so every count is exact and `complete` is True.  `witness_basis` is
    a canonical RREF basis of the first deepest subspace in the search order.
    """

    counts: Dict[int, int]
    max_dim: int
    witness_basis: Tuple[int, ...]
    complete: ClassVar[bool] = True


def subspace_cliques(G: CayleyGraph) -> SubspaceCliqueReport:
    """Count qualifying subspaces per dimension by orderly depth-first search.

    A subspace H is reached through its echelon basis with rows added in
    increasing pivot order, each row zero at the earlier pivots, so it is
    produced exactly once (orderly generation; Read 1978, McKay 1998) and no
    visited set is kept.  Each node carries W(H) = intersection over h in H
    of (A + h), the set of v with v + H inside A, and `elig`, the v whose top
    bit lies above every pivot of H and which are zero at every pivot.  The
    children of H are then exactly H + <v> for v in W(H) & elig: they are
    counted by popcount, and the search descends only into those that can
    have children of their own.  Once W(H) contains elig, every descendant
    qualifies (each child's W again contains its elig), so the subtree is
    counted in closed form: extending H by rows with pivots q above its last
    pivot, a row with pivot q and i earlier pivots has 2^(q - i) choices, and
    the first deepest basis adds the rows 2^q in increasing q.  A complete
    generator set thus gives the Gaussian binomials at once.

    The search runs in C (`f2c_subspaces` in `_clique.c`, built by
    `_native`), with W held as a 2^n-bit row of 64-bit words per depth and
    elig given by the pivots: a node reads only the words where elig can be
    nonzero.  Translation by v permutes the words and swaps bits inside
    each.  The result is checked here: M_0 = 1, M_1 = |A|, and the witness
    spans a subspace of dimension max_dim inside A + {0}.
    """
    n = G.n
    gens = np.flatnonzero(G.generators.member_table()).astype(np.int32)
    counts = np.zeros(n + 1, dtype=np.int64)
    rows = np.zeros(n, dtype=np.int32)
    if _native.subspaces(n, gens, len(gens), counts, rows):
        raise MemoryError("subspace_cliques search ran out of memory")
    _require(counts[0] == 1 and counts[1] == len(gens),
             "subspace counts miss the zero subspace or the generators")
    found = {m: c for m, c in enumerate(counts.tolist()) if c}
    max_dim = max(found)
    witness = Subspace(n, rref(rows[:max_dim].tolist()))
    _require(witness.dim == max_dim
             and not subspace_members(witness).mask & ~G.generators.mask & ~1,
             "subspace witness is not a qualifying subspace of dimension max_dim")
    return SubspaceCliqueReport(counts=found, max_dim=max_dim, witness_basis=witness.basis)


def _pair_sums(G: CayleyGraph, X: ElemSet, in_gens: bool) -> bool:
    """Whether every sum x + y of distinct x, y in X is a generator (in_gens)
    or none is (not in_gens); checked pair by pair, 256 rows of pairs at a
    time."""
    if X.n != G.n:
        raise PreconditionError("vertex set lives in the wrong ambient dimension")
    els = np.array(X.elements(), dtype=np.int64)
    gens = G.generators.member_table()
    gens[0] = in_gens  # x + x on the diagonal passes
    for s in range(0, len(els), 256):
        block = gens[els[s:s + 256, None] ^ els[None, :]]
        if not (block.all() if in_gens else not block.any()):
            return False
    return True


def verify_clique(G: CayleyGraph, X: ElemSet) -> bool:
    """Independent O(|X|^2) pairwise check."""
    return _pair_sums(G, X, True)


def verify_independent(G: CayleyGraph, X: ElemSet) -> bool:
    return _pair_sums(G, X, False)


def _require(ok: bool, what: str) -> None:
    """Certificate check that runs at every n and under python -O."""
    if not ok:
        raise InvariantError(what)


def _report_seed(G: CayleyGraph, rep: SubspaceCliqueReport) -> ElemSet:
    """The members of the report's witness subspace, refused unless a clique of G."""
    seed = subspace_members(Subspace(G.n, rep.witness_basis))
    if seed.mask & ~G.generators.mask & ~1:
        raise PreconditionError("subspace report's witness is not a clique of this graph")
    return seed


_NODES_MAX = (1 << 63) - 1  # no search reaches it: the budget of an unbudgeted search


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

    The search itself runs in C (`_clique.c`, built by `_native`).  Each
    graph searched, the root's on A and each root branch's on P2, is
    relabelled to local indices 0..k-1 in increasing order of its vertices
    and held as rows of 64-bit words (BBMC, San Segundo et al. 2011); the
    partner w + v of the pairing rule becomes a local index.  Every row is
    built the same way: a set is compressed by a mask, one 64-bit word at a
    time, so no pair costs a load or a branch of its own.  On an x86-64 CPU
    with a fast BMI2 pext, checked once per search, each word is one pext;
    elsewhere it is six steps with move masks computed once per mask word
    (Warren, Hacker's Delight, 7-4).  Both give the same rows.  The root's
    row of u is A's 2^n-bit indicator translated by u and compressed by A,
    and the root's graph is then kept as the running graph over D: once
    the branch on v is done, the pairs of D whose sum is v are cleared,
    O(|P2|) bit clears.  A root branch's P2 is D's mask and v's row, and
    each of its rows is the root's row compressed by that mask.  The order
    is kept, so every coloring, branch and node is the one a search over
    the global labels makes.  A node with clique R colors its candidates
    greedily, class by class, and lists only the vertices of color at least
    kmin = best - |R| + 1 (MCQ, Tomita & Kameda 2007), the only ones that
    could be branched on: once the classes done plus the candidates left
    fall short of kmin, it stops coloring.  The coloring is compiled once
    for each row width of 1 to 4 words, with its sets in registers, and
    once for wider rows; every width colors in the same order.

    The incumbent starts from the deepest subspace clique.  With a node
    budget (>= 0) the search may stop early, after exactly `budget` nodes,
    returning the incumbent with optimal=False.  A `subspace_report` whose
    witness subspace is no clique of G is refused.
    """
    limit = _NODES_MAX if budget is None else min(require_budget(budget), _NODES_MAX)
    n = G.n
    seed = _report_seed(G, subspace_report if subspace_report is not None else subspace_cliques(G))
    seed_size = seed.size
    gens = np.flatnonzero(G.generators.member_table()).astype(np.int32)
    elems = np.zeros(1 << n, dtype=np.int32)
    out = np.zeros(3, dtype=np.int64)
    if _native.max_clique(n, gens, len(gens), seed_size, limit, elems, out):
        raise MemoryError("max_clique search ran out of memory")
    size, nodes, stopped = out.tolist()
    # the kernel writes a clique only when it beats the seed
    witness = ElemSet.from_elements(n, elems[:size].tolist()) if size > seed_size else seed
    _require(witness.size == size and verify_clique(G, witness),
             "max_clique witness is not a clique of the reported size")
    return CliqueOutcome(witness=witness, optimal=not stopped, nodes=nodes)


@dataclass(frozen=True)
class Coloring:
    colors: Tuple[int, ...]
    num_colors: int


def coset_coloring(G: CayleyGraph, V: Subspace) -> Coloring:
    """Color by cosets of an independent subspace V.

    Proper iff no generator lies in V \\ {0} (a within-coset pair (x, x+a)
    exists exactly when a is a nonzero element of V); violated preconditions
    report such a pair.  Uses 2^(n - dim V) colors, numbered in order of
    first appearance: x gets the rank of its coset's minimum V.reduce(x)
    among the integers clear at every pivot, i.e. that minimum's bits at the
    free positions, packed.  That is linear in x, so the colors of 0 .. 2^i - 1
    doubled by the color of 2^i give those of 2^i .. 2^(i+1) - 1.
    Properness is re-checked edge by edge all the same.
    """
    if V.n != G.n:
        raise PreconditionError("subspace lives in the wrong ambient dimension")
    viol = subspace_members(V).mask & ~1 & G.generators.mask
    if viol:
        s = (viol & -viol).bit_length() - 1
        raise PreconditionError(
            f"subspace is not independent: vertices 0 and {s} are adjacent with sum in V"
        )
    pivots = [b.bit_length() - 1 for b in V.basis]
    free = [p for p in range(G.n) if p not in pivots]
    colors = [0]
    for i in range(G.n):
        r = V.reduce(1 << i)
        g = sum(1 << j for j, p in enumerate(free) if (r >> p) & 1)
        colors += [c ^ g for c in colors]
    return _proper(G, colors, "coset")


def verify_coloring(G: CayleyGraph, coloring: Coloring) -> bool:
    """True iff every vertex has a color in [0, num_colors) and no edge
    x ~ x + a joins two vertices of one color."""
    N = 1 << G.n
    colors = np.asarray(coloring.colors, dtype=np.int64)
    if colors.shape != (N,) or colors.min() < 0 or colors.max() >= coloring.num_colors:
        return False
    x = np.arange(N)
    return not any((colors[x ^ a] == colors).any()
                   for a in np.flatnonzero(G.generators.member_table()))


def greedy_coloring(G: CayleyGraph) -> Coloring:
    """Deterministic plain greedy: vertices in index order, each with the
    smallest color its earlier neighbors lack.

    The earlier neighbors of v are v + a for the generators a whose top bit
    is set in v, so color(v) is the Grundy value of v in a coin-turning game:
    a move turns the coins of some a in A, and a's top coin must go from
    heads to tails.  By the Turning Turtles theorem (Berlekamp, Conway and
    Guy, Winning Ways, ch. 14; Conway and Sloane's proof that lexicodes are
    linear) that value is the XOR of the values of v's bits, so the coloring
    is linear: its color classes are the cosets of the color-0 class, an
    independent subspace.  The value of bit i is the least color missing
    from the a + 2^i, a in A with top bit i, all below 2^i; doubling the
    colors of 0 .. 2^i - 1 by it gives those of 2^i .. 2^(i+1) - 1.
    `chromatic_bracket` does not call it: it never uses fewer colors than
    the coset coloring over the complement's deepest subspace.
    """
    table = G.generators.member_table()
    colors = [0]
    for i in range(G.n):  # a ^ 2^i for the generators a with top bit i
        taken = {colors[u] for u in np.flatnonzero(table[1 << i:2 << i]).tolist()}
        g = next(c for c in range(len(taken) + 1) if c not in taken)
        colors += [c ^ g for c in colors]
    return _proper(G, colors, "greedy")


def _proper(G: CayleyGraph, colors: List[int], what: str) -> Coloring:
    """The Coloring of a color list, once verify_coloring has passed it."""
    col = Coloring(colors=tuple(colors), num_colors=max(colors) + 1)
    _require(verify_coloring(G, col), f"{what} coloring is not proper")
    return col


@dataclass(frozen=True)
class ChromaticBracket:
    lower: int
    upper: int
    nodes: int

    @property
    def exact(self) -> Optional[int]:
        return self.lower if self.lower == self.upper else None


def _exact_chromatic(gens: List[int], N: int, lower: int, upper: int, budget: Optional[int]
                     ) -> Tuple[Optional[int], int, Optional[List[int]]]:
    """DSATUR branch and bound over the neighbors v + a, a in the generator
    list `gens`; returns (chi, or None when the budget stopped it, nodes
    used, the coloring it last improved to, or None if it found none below
    `upper`)."""
    best = upper
    colors = [-1] * N
    nodes = 0
    found: Optional[List[int]] = None

    def rec(colored: int, num_used: int) -> bool:
        """Search below this node; True when the whole search must stop, at a
        coloring with `lower` colors or at the budget."""
        nonlocal best, nodes, found
        if num_used >= best:
            return False
        if colored == N:
            best, found = num_used, colors[:]
            return best == lower
        if budget is not None and nodes >= budget:
            return True
        nodes += 1
        # most saturated uncolored vertex, then lowest index
        bv, bused, bsat = -1, 0, (-1, 0)
        for v in range(N):
            if colors[v] == -1:
                used = 0
                for a in gens:
                    c = colors[v ^ a]
                    if c >= 0:
                        used |= 1 << c
                key = (used.bit_count(), -v)
                if key > bsat:
                    bsat, bv, bused = key, v, used
        for c in range(min(num_used + 1, best - 1)):
            if not (bused >> c) & 1:
                colors[bv] = c
                stop = rec(colored + 1, max(num_used, c + 1))
                colors[bv] = -1
                if stop:
                    return True
        return False

    # a stop above lower is the budget's: reaching lower stops the search at once
    if rec(0, 0) and best > lower:
        return None, nodes, found
    return best, nodes, found


_Side = Tuple[CayleyGraph, Optional[int], Optional[SubspaceCliqueReport]]
_SideResult = Tuple[SubspaceCliqueReport, CliqueOutcome, float]


def _side(H: CayleyGraph, budget: Optional[int], report: Optional[SubspaceCliqueReport] = None
          ) -> _SideResult:
    """H's subspace report (`report`, or a fresh one), then its maximum
    clique searched from the report's witness, and the seconds both took."""
    t0 = time.perf_counter()
    rep = report if report is not None else subspace_cliques(H)
    return rep, max_clique(H, budget=budget, subspace_report=rep), time.perf_counter() - t0


def _run_sides(sides: Sequence[_Side], helpers: int = 1
               ) -> List[Union[_SideResult, BaseException, None]]:
    """Run independent sides, each `_side(graph, budget, report)`, on the
    calling thread and `min(helpers, len(sides) - 1)` helper threads.

    Each thread takes the next side not yet taken, in index order, so every
    thread stays busy until the last side starts, and with t threads the
    sides end within 1/t of their total plus (1 - 1/t) of the longest one
    (list scheduling; Graham 1966).
    The sides spend their time in the C kernels, which ctypes calls with the
    GIL released and which keep all their state per call, so each search
    meets the nodes a serial run meets.

    The result holds, per side in index order, its (report, outcome,
    seconds) or the exception it raised.  Once a side raises, a
    KeyboardInterrupt too, no thread takes a new side, and the sides never
    taken stay None.  Sides are taken in index order, so every side before
    the first failure ran: a caller that reads the results in order through
    `_result` raises the error a serial run raises.

    The helpers live for this call only.  They are daemons, so that an
    interrupt of the wait for them is not held up by a search still
    running; each helper then ends its side and takes no other.
    """
    done: List[Union[_SideResult, BaseException, None]] = [None] * len(sides)
    lock = threading.Lock()
    taken, stopped = 0, False

    def stop() -> None:
        nonlocal stopped
        with lock:
            stopped = True

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                if stopped or taken == len(sides):
                    return
                i, taken = taken, taken + 1
            try:
                done[i] = _side(*sides[i])
            except BaseException as exc:  # the caller raises it in serial order
                done[i] = exc
                stop()
                return

    threads = [threading.Thread(target=work, name="f2cayley-sides", daemon=True)
               for _ in range(min(helpers, len(sides) - 1))]
    try:
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
    except BaseException:  # an interrupt, or a failed start: no helper takes a new side
        stop()
        raise
    return done


def _result(done: Union[_SideResult, BaseException]) -> _SideResult:
    """A side's result from `_run_sides`, or the exception it raised, raised."""
    if isinstance(done, BaseException):
        raise done
    return done


def chromatic_bracket(
    G: CayleyGraph,
    budget: Optional[int] = None,
    subspace_report: Optional[SubspaceCliqueReport] = None,
    clique: Optional[CliqueOutcome] = None,
) -> ChromaticBracket:
    """Bracket the chromatic number; exact by exhaustive search when n <= 5.

    lower = max(omega, ceil(N / alpha)), or omega when the independence
    search stopped at its budget.  No other bound on alpha can raise it: the
    cosets of G's deepest subspace clique (dimension d) are cliques that
    cover the vertices, so alpha <= N / 2^d always, and `max_clique` starts
    from that subspace, so omega >= 2^d always.  upper = N / 2^d' for the
    deepest subspace V (dimension d') that `subspace_cliques` finds in the
    complement.  No nonzero member of V is a generator, which is checked
    here, so no edge x ~ x + a joins two members of one coset of V: the
    cosets are N / 2^d' proper color classes, the coloring `coset_coloring`
    builds.  d' = 0 gives N singletons.  The bracket is exact when
    lower == upper.

    G's side (its subspace report, or `subspace_report`, then omega) and
    the complement's side (its report, then alpha) run at once through
    `_run_sides`, on this thread and a helper, with the answers, node counts
    and errors of a serial run.  A `clique` passed in stands in for G's
    side; the complement's side is then the only one, and runs on this
    thread.  Before either side starts, `clique` must be a clique of G, and
    the witness of `subspace_report` a clique of G.
    """
    if budget is not None:
        require_budget(budget)
    if subspace_report is not None:
        _report_seed(G, subspace_report)
    if clique is not None and not verify_clique(G, clique.witness):
        raise PreconditionError("clique outcome is not a clique of this graph")
    sides: List[_Side] = [] if clique is not None else [(G, budget, subspace_report)]
    results = [_result(done) for done in _run_sides(sides + [(G.complement(), budget, None)])]
    comp_rep, alpha, _ = results[-1]
    return _bracket(G, clique if clique is not None else results[0][1], comp_rep, alpha, budget)


def _bracket(G: CayleyGraph, clique: CliqueOutcome, comp_rep: SubspaceCliqueReport,
             alpha: CliqueOutcome, budget: Optional[int]) -> ChromaticBracket:
    """Combine omega, alpha and the complement's deepest subspace into the
    bracket that `chromatic_bracket` describes; DSATUR closes it when n <= 5,
    and a chi it proves below the coset bound is certified by the coloring
    it found, checked edge by edge."""
    n, N = G.n, 1 << G.n
    nodes = clique.nodes + alpha.nodes
    lower = max(clique.size, -(-N // alpha.size)) if alpha.optimal else clique.size

    V = Subspace(n, comp_rep.witness_basis)
    _require(not subspace_members(V).mask & ~1 & G.generators.mask,
             "complement witness subspace holds a generator")
    upper = N >> V.dim
    _require(lower <= upper, "chromatic bracket is inverted")

    if lower < upper and n <= 5:
        gens = np.flatnonzero(G.generators.member_table()).tolist()
        exact, used, colors = _exact_chromatic(gens, N, lower, upper, budget)
        nodes += used
        if exact is not None:
            if exact < upper:  # the coloring DSATUR found certifies the new upper bound
                _require(_proper(G, colors, "DSATUR").num_colors == exact,
                         "DSATUR coloring does not use chi colors")
            lower = upper = exact
    return ChromaticBracket(lower=lower, upper=upper, nodes=nodes)
