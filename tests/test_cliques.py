"""Clique, independence and coloring machinery against brute-force oracles."""
import json
import random
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from f2cayley import (
    CayleyGraph,
    Coloring,
    ElemSet,
    ExperimentConfig,
    InvariantError,
    PreconditionError,
    Subspace,
    SubspaceCliqueReport,
    TrialRecord,
    bits_of,
    chromatic_bracket,
    coset_coloring,
    derive_seed,
    gaussian_binomial,
    greedy_coloring,
    max_clique,
    rref,
    run_experiment,
    run_trial,
    sample_cayley,
    subspace_cliques,
    subspace_members,
    summarize,
    enumerate_subspaces,
    verify_clique,
    verify_coloring,
    verify_independent,
    xor_shift,
)
from f2cayley import cliques
from f2cayley.experiments import summary_header
from f2cayley.gf2 import _levels
from oracles import adjacency_masks, brute_chromatic, brute_max_clique


def test_max_clique_matches_subset_dp():
    rng = random.Random(606)
    for n in (2, 3, 4):
        for _ in range(12):
            G = sample_cayley(n, rng.getrandbits(63))
            out = max_clique(G)
            assert out.optimal
            assert out.size == brute_max_clique(adjacency_masks(G), 1 << n)
            assert verify_clique(G, out.witness)
            assert out.witness.size == out.size


def test_subspace_graph_clique_counts():
    # A = H \ {0}: every m-dim subspace of H is an all-edges clique
    for n in (3, 4, 5):
        for dim in range(n + 1):
            V = next(iter(enumerate_subspaces(n, dim)))
            G = CayleyGraph(n, subspace_members(V))
            rep = subspace_cliques(G)
            assert rep.max_dim == dim
            assert rep.complete
            for m in range(dim + 1):
                assert rep.counts[m] == gaussian_binomial(dim, m)
            assert max_clique(G).size == 1 << dim


def span_members(basis):
    """All elements of the span, by doubling the member list row by row."""
    members = [0]
    for b in basis:
        members += [x ^ b for x in members]
    return members


def inside_generators(basis, a_mask):
    return all((a_mask >> x) & 1 for x in span_members(basis) if x)


def brute_subspace_counts(n, a_mask):
    """M_m for every m by testing each subspace of F_2^n against A."""
    counts = {}
    for m in range(n + 1):
        c = sum(inside_generators(V.basis, a_mask) for V in enumerate_subspaces(n, m))
        if c:
            counts[m] = c
    return counts


def test_subspace_cliques_match_exhaustive_oracle():
    rng = random.Random(515)
    for i in range(20):
        n = 2 + i % 5
        G = sample_cayley(n, rng.getrandbits(63))
        for H in (G, G.complement()):
            rep = subspace_cliques(H)
            a = H.generators.mask
            assert rep.complete
            assert rep.counts == brute_subspace_counts(n, a)
            assert rep.max_dim == max(rep.counts) == len(rep.witness_basis)
            Subspace(n, rep.witness_basis)  # raises unless canonical RREF
            assert inside_generators(rep.witness_basis, a)


def test_subspace_cliques_full_generator_set_reaches_every_subspace():
    # every subspace qualifies, so the root's subtree is counted in closed form
    for n in range(2, 14):
        G = CayleyGraph(n, ElemSet(n, (1 << (1 << n)) - 2))
        rep = subspace_cliques(G)
        assert rep.counts == {m: gaussian_binomial(n, m) for m in range(n + 1)}
        assert rep.max_dim == n and rep.witness_basis == tuple(1 << i for i in reversed(range(n)))
        if n == 7:
            assert sum(rep.counts.values()) == 29_212


def reference_subspace_cliques(G):
    """The orderly search of subspace_cliques over Python ints, node for node:
    the reference that the C search must equal, counts and witness."""
    n = G.n
    full = (1 << (1 << n)) - 1
    # step[p]: the v zero at position p with top bit above p, i.e. the rows
    # that may follow a row with pivot p; a pivot n - 1 leaves none
    step = [low & (full >> (2 * s) << (2 * s)) for s, low in _levels(n)[:-1]]
    below_top = (1 << (1 << (n - 1))) - 1
    counts = {0: 1}
    rows = []  # basis of the current H, pivots increasing
    best = []  # first basis met at the deepest dimension so far

    def grow(w, elig):
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
    return counts, rref(best)


def test_subspace_cliques_match_python_reference():
    for n in range(2, 12):
        for i in range(12 if n < 9 else 2):
            G = sample_cayley(n, derive_seed(120, 100 * n + i))
            for H in (G, G.complement()):
                rep = subspace_cliques(H)
                assert (rep.counts, rep.witness_basis) == reference_subspace_cliques(H)
                assert rep.max_dim == max(rep.counts) == len(rep.witness_basis)


def test_subspace_cliques_match_python_reference_on_dense_sets():
    # the complete set minus r elements: the closed form fires on some
    # subtrees of these, and must give what full enumeration gives
    rng = random.Random(121)
    for n in range(2, 10):
        N = 1 << n
        for r in range(0, N // 4 + 1, 1 if n < 7 else N // 16):
            mask = (1 << N) - 2
            for x in rng.sample(range(1, N), r):
                mask &= ~(1 << x)
            H = CayleyGraph(n, ElemSet(n, mask))
            rep = subspace_cliques(H)
            assert (rep.counts, rep.witness_basis) == reference_subspace_cliques(H)


def test_subspace_cliques_count_nearly_complete_sets_by_formula():
    # A = F_2^n minus 0 and a few elements D of F_2^t.  An m-dimensional H
    # qualifies iff K = H meet F_2^t avoids D, and for each K of dimension j
    # there are 2^((m - j)(t - j)) [n - t choose m - j]_2 such H: the
    # complements of F_2^t / K in F_2^n / K.  The closed form counts almost
    # every subtree here, at n up to 13.
    rng = random.Random(122)
    t = 5
    for n in range(10, 14):
        for _ in range(2):
            mask = (1 << (1 << n)) - 2
            for x in rng.sample(range(1, 1 << t), rng.randint(1, 4)):
                mask &= ~(1 << x)
            expect = {}
            for j in range(t + 1):
                for K in enumerate_subspaces(t, j):
                    if inside_generators(K.basis, mask):
                        for m in range(j, j + n - t + 1):
                            expect[m] = (expect.get(m, 0)
                                         + 2 ** ((m - j) * (t - j)) * gaussian_binomial(n - t, m - j))
            rep = subspace_cliques(CayleyGraph(n, ElemSet(n, mask)))
            assert rep.counts == expect and rep.max_dim == max(expect)


def pinned_reports(n):
    G = sample_cayley(n, derive_seed(1, 0))
    return [(rep.counts, rep.max_dim, rep.witness_basis)
            for rep in (subspace_cliques(G), subspace_cliques(G.complement()))]


def test_subspace_cliques_pins_counts_at_n12():
    assert pinned_reports(12) == [
        ({0: 1, 1: 2097, 2: 374933, 3: 3751185, 4: 591373, 5: 90}, 5, (2406, 1122, 514, 12, 1)),
        ({0: 1, 1: 1998, 2: 324319, 3: 2674894, 4: 287032, 5: 24}, 5, (2098, 1074, 389, 97, 8)),
    ]


def test_subspace_cliques_pins_counts_at_n13():
    # the graph and its complement, each about 3 * 10^7 subspaces
    assert pinned_reports(13) == [
        ({0: 1, 1: 4118, 2: 1420473, 3: 26505213, 4: 7337886, 5: 1904}, 5,
         (2406, 1122, 514, 12, 1)),
        ({0: 1, 1: 4073, 2: 1373935, 3: 24478190, 4: 6126930, 5: 1334}, 5,
         (4128, 3573, 932, 9, 3)),
    ]


def test_subspace_cliques_exact_at_n11():
    # these graphs hold ~10^5 planes and reach dimension 4-5; every count
    # down to the deepest must be exact
    n = 11
    for i in range(2):
        G = sample_cayley(n, derive_seed(1, i))
        for H in (G, G.complement()):
            rep = subspace_cliques(H)
            a = H.generators.mask
            elems = [x for x in range(1, 1 << n) if (a >> x) & 1]
            pairs = sum((a >> (x ^ y)) & 1 for j, x in enumerate(elems) for y in elems[j + 1:])
            assert rep.complete
            assert rep.counts[0] == 1 and rep.counts[1] == len(elems)
            assert rep.counts[2] == pairs // 3  # each plane holds 3 generator pairs
            assert rep.max_dim == max(rep.counts) == len(rep.witness_basis) >= 4
            assert inside_generators(rep.witness_basis, a)


def test_clique_budget_exhaustion_keeps_witness():
    # This graph's maximum clique (10 vertices) beats its deepest subspace
    # clique (2^3 = 8), so a truncated search can improve the incumbent.
    G = sample_cayley(7, 23)
    seed = subspace_members(Subspace(7, subspace_cliques(G).witness_basis)).mask
    seeded = max_clique(G, budget=1)
    assert not seeded.optimal and seeded.witness.mask == seed
    assert seeded.size == 8 and verify_clique(G, seeded.witness)
    improved = max_clique(G, budget=16)
    assert not improved.optimal and improved.witness.mask != seed
    assert improved.size > 8 and verify_clique(G, improved.witness)
    full = max_clique(G)
    assert full.optimal and full.size == 10
    assert full.size >= improved.size >= seeded.size


def test_budgets_stop_after_exactly_budget_nodes():
    G = sample_cayley(7, 23)
    for b in (1, 5, 16):
        out = max_clique(G, budget=b)
        assert not out.optimal and out.nodes == b
    assert max_clique(G, budget=0).nodes == 0
    gens = sample_cayley(4, 99).generators.elements()
    chi, nodes, _ = cliques._exact_chromatic(gens, 16, 1, 17, None)
    assert chi is not None and nodes > 3
    chi, nodes, _ = cliques._exact_chromatic(gens, 16, 1, 17, 3)
    assert (chi, nodes) == (None, 3)


def test_exact_chromatic_pins_node_counts_at_n5():
    # the DSATUR runs in 16 of the 300 trials run_trial(5, derive_seed(11, i)),
    # all with bracket [7, 8]; its node order is pinned on six of them
    for i, pinned in ((145, (7, 115)), (174, (7, 402)), (259, (7, 302)),
                      (264, (7, 526)), (266, (7, 567)), (65, (8, 6952))):
        rec = run_trial(5, derive_seed(11, i))
        assert (rec.chi_exact, rec.nodes) == pinned


def test_a_chi_below_the_coset_bound_needs_a_checked_coloring(monkeypatch):
    # DSATUR closes trial 145's bracket [7, 8] with a proper 7-coloring; a
    # coloring that is improper, or proper with more colors, is a fault
    seed = derive_seed(11, 145)
    G = sample_cayley(5, seed)
    chi, _, colors = cliques._exact_chromatic(G.generators.elements(), 32, 7, 8, None)
    assert chi == 7 and verify_coloring(G, Coloring(tuple(colors), 7))
    real = cliques._exact_chromatic
    for bad, what in (([0] * 32, "not proper"), (list(range(32)), "chi colors")):
        def broken(*args, bad=bad):
            chi, nodes, _ = real(*args)
            return chi, nodes, bad

        with monkeypatch.context() as m:
            m.setattr(cliques, "_exact_chromatic", broken)
            with pytest.raises(InvariantError, match=what):
                run_trial(5, seed)


def bron_kerbosch_max(adj, N):
    """Largest clique by Bron-Kerbosch with Tomita pivoting over all N vertices,
    skipping only branches that cannot beat the best size found."""
    best = 0

    def members(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def bk(r, P, X):
        nonlocal best
        if not P:
            if not X:
                best = max(best, r)
            return
        if r + P.bit_count() <= best:
            return
        u = max(members(P | X), key=lambda w: (P & adj[w]).bit_count())
        for v in members(P & ~adj[u]):
            bk(r + 1, P & adj[v], X & adj[v])
            P &= ~(1 << v)
            X |= 1 << v

    bk(0, (1 << N) - 1, 0)
    return best


# Graphs on which a wrong partner in the pairing rule (w + v + 1 or w + 1 in
# place of w + v, or pairing below the third level) loses every copy of the
# maximum clique when the search starts from the incumbent {0}.  Random
# graphs almost never show such a fault, since nearly every maximum clique
# keeps several copies in the search; these came from 8000 random generator
# sets at n = 4..6.
PAIRING_HARD_CASES = ((5, 0xB6BFFFFC), (6, 0xEECA3877E968357C), (6, 0xFF554FCEF365BED0))
NO_SEED = SubspaceCliqueReport(counts={0: 1}, max_dim=0, witness_basis=())


def test_max_clique_from_bare_incumbent_on_hard_cases():
    for n, a in PAIRING_HARD_CASES:
        H = CayleyGraph(n, ElemSet(n, a))
        out = max_clique(H, subspace_report=NO_SEED)
        assert out.optimal and out.size == bron_kerbosch_max(adjacency_masks(H), 1 << n)
        assert verify_clique(H, out.witness) and out.witness.size == out.size


def test_max_clique_and_alpha_match_bron_kerbosch_at_n5_to_7():
    # large enough for the difference and pairing rules below the root to fire
    for n in (5, 6, 7):
        N = 1 << n
        for i in range(8):
            G = sample_cayley(n, derive_seed(57, 100 * n + i))
            Gc = G.complement()
            omega = {id(H): bron_kerbosch_max(adjacency_masks(H), N)
                     for H in (G, Gc)}
            for H, Hc in ((G, Gc), (Gc, G)):
                out = max_clique(H)
                assert out.optimal and out.size == omega[id(H)] == out.witness.size
                assert verify_clique(H, out.witness)
                # from the incumbent {0} the search must find a maximum clique itself
                bare = max_clique(H, subspace_report=NO_SEED)
                assert bare.size == omega[id(H)] == bare.witness.size
                assert verify_clique(H, bare.witness)
                ind = max_clique(H.complement())
                assert ind.optimal and ind.size == omega[id(Hc)] == ind.witness.size
                assert verify_independent(H, ind.witness)


class _RefBudget(Exception):
    pass


def reference_max_clique(G, budget=None, subspace_report=None, trace=None):
    """The search of max_clique over the global labels 0..2^n - 1, with the
    difference and pairing rules but with no local labels and no kmin cut:
    every vertex is colored and the branch loop does all the pruning.  The
    reference that max_clique must equal node for node and witness for
    witness; returns (size, witness mask, optimal, nodes).  A `trace` dict
    gets under "p2" the mask of each root branch's P2 that is searched, and
    under "root_done" the number of root branches finished when the search
    ended."""
    n = G.n
    adj = adjacency_masks(G)
    rep = subspace_cliques(G) if subspace_report is None else subspace_report
    seed = subspace_members(Subspace(n, rep.witness_basis)).mask
    state = {"mask": seed, "size": seed.bit_count(), "nodes": 0}
    trace = {} if trace is None else trace
    trace.update(p2=[], root_done=0)

    def color_order(P, adj):
        order, bound, color = [], [], 0
        while P:
            color += 1
            q = P
            while q:
                v = (q & -q).bit_length() - 1
                order.append(v)
                bound.append(color)
                P &= ~(1 << v)
                q &= ~(1 << v) & ~adj[v]
        return order, bound

    def expand(r_mask, r_size, P, adj, root_v=0):
        order, bound = color_order(P, adj)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= state["size"]:
                return
            v = order[i]
            if not (P >> v) & 1:
                continue
            if budget is not None and state["nodes"] >= budget:
                raise _RefBudget
            state["nodes"] += 1
            if r_size == 1:  # P is D, the root candidates not yet branched
                P2 = P & xor_shift(P, v, n)
                sub = {u: xor_shift(P, u, n) & P2 for u in bits_of(P2)}
                if P2:
                    trace["p2"].append(P2)
            else:
                P2, sub = P & adj[v], adj
            if P2:
                expand(r_mask | 1 << v, r_size + 1, P2, sub, v)
            elif r_size + 1 > state["size"]:
                state["size"], state["mask"] = r_size + 1, r_mask | 1 << v
            P &= ~(1 << v)
            if r_size == 1:
                trace["root_done"] += 1
            if r_size == 2:
                P &= ~(1 << (v ^ root_v))

    try:
        expand(1, 1, adj[0], adj)
        optimal = True
    except _RefBudget:
        optimal = False
    return state["size"], state["mask"], optimal, state["nodes"]


def _skips_a_root_word(H, p2):
    """Whether the root branch with candidates p2 holds no vertex of some
    64-label word of the root's graph (H's generators, in increasing order)
    below a word that it does hold."""
    rank = {g: r for r, g in enumerate(H.generators)}
    words = {rank[v] >> 6 for v in bits_of(p2)}
    return len(words) <= max(words)


def _matches_reference(H, budget, rep, trace=None):
    """max_clique(H, budget) from rep's seed, asserted equal node for node and
    witness for witness to reference_max_clique, and its witness a clique."""
    out = max_clique(H, budget, subspace_report=rep)
    ref = reference_max_clique(H, budget, rep, trace)
    assert (out.size, out.witness.mask, out.optimal, out.nodes) == ref
    assert out.witness.size == out.size and out.witness.mask & 1
    assert verify_clique(H, out.witness)
    return out


def test_max_clique_matches_global_label_reference():
    # Root graphs of 118-262 vertices and root branches of 50-142, most not a
    # multiple of 8, so the word rows cross byte and 64-bit boundaries, and
    # some of exactly 64 and 128, whose last word is full; the budget sweep
    # stops the search inside root branches at many depths, and one graph
    # (n = 8, i = 1, omega 10 > 2^3) improves on its seed there.  A root
    # branch's rows are the root's rows compressed by its P2, so some P2
    # (at n = 9) must miss a whole 64-label word of the root below one it
    # holds, a word the compression skips; the budgets at half and all but
    # one of a full search stop it after root branches have cleared their
    # pairs from the root's graph, at least 19 of them at all but one.  The
    # graphs colored have rows of ceil(k / 64) words: every width that
    # color_order specializes (1-4) and at least one wider, its generic path.
    sizes, skips, done_at_stop = [], 0, []
    for n, i in ((8, 0), (8, 1), (9, 0)):
        G = sample_cayley(n, derive_seed(11, i))
        for H in (G, G.complement()):
            rep = subspace_cliques(H)
            seed = subspace_members(Subspace(n, rep.witness_basis)).mask
            full = max_clique(H, subspace_report=rep)
            sizes.append(H.generators.size)  # the root's graph
            for budget in (None,) + tuple(range(1, 61)) + (full.nodes // 2, full.nodes - 1):
                trace = {}
                out = _matches_reference(H, budget, rep, trace)
                if budget is not None and budget < full.nodes:
                    assert out.nodes == budget and not out.optimal
                    # the witness is the seed until the search beats its size
                    assert (out.witness.mask == seed) == (out.size == seed.bit_count())
                if budget is None:
                    sizes += [p2.bit_count() for p2 in trace["p2"]]
                    skips += sum(_skips_a_root_word(H, p2) for p2 in trace["p2"])
                elif budget == full.nodes - 1:
                    done_at_stop.append(trace["root_done"])
    assert max(sizes) > 256 and any(64 < k < 128 and k % 8 for k in sizes)
    assert {64, 128} <= set(sizes)
    assert skips
    assert min(done_at_stop) >= 19
    widths = {(k + 63) // 64 for k in sizes}
    assert {1, 2, 3, 4} <= widths and max(widths) > 4
    # at n = 2..6 A's indicator is one word, partly filled below n = 6, and
    # each root row is that word translated inside itself
    for n in range(2, 7):
        for i in range(6):
            G = sample_cayley(n, derive_seed(24, 10 * n + i))
            for H in (G, G.complement()):
                for rep in (subspace_cliques(H), NO_SEED):
                    for budget in (None, 1, 3):
                        _matches_reference(H, budget, rep)


def test_max_clique_matches_reference_on_a_root_graph_of_many_words():
    # 1100 generators at n = 11: the root's rows are 18 words long, the last
    # one partly filled, and its coloring reads every row; root branches of
    # about 280 candidates are searched to various depths
    rng = random.Random(1111)
    n = 11
    els = rng.sample(range(1, 1 << n), 1100)
    H = CayleyGraph(n, ElemSet.from_elements(n, els))
    rep = subspace_cliques(H)
    sizes = []
    for budget in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89):
        trace = {}
        assert _matches_reference(H, budget, rep, trace).nodes == budget
        sizes += [p2.bit_count() for p2 in trace["p2"]]
    assert H.generators.size == 1100 and any(k > 256 and k % 64 for k in sizes)
    # at n = 12 A's indicator is 64 words, so a root row's translation
    # permutes the words by up to 63; from {0}, budget 20 reaches a clique
    # of 13 or 14, which a wrong root row would change
    G = sample_cayley(12, derive_seed(24, 12))
    for H in (G, G.complement()):
        assert max(H.generators.elements()) >> 6 == 63
        for rep in (subspace_cliques(H), NO_SEED):
            for budget in (1, 3, 8, 20):
                assert _matches_reference(H, budget, rep).nodes == budget


def test_max_clique_on_empty_and_complete_generator_sets():
    for n in range(2, 14):
        N = 1 << n
        empty = max_clique(CayleyGraph(n, ElemSet(n, 0)))
        assert (empty.size, empty.witness.mask, empty.optimal, empty.nodes) == (1, 1, True, 0)
        G = CayleyGraph(n, ElemSet(n, (1 << N) - 2))
        full = max_clique(G)  # the seed is the whole space, counted in closed form
        assert (full.size, full.witness.mask, full.optimal, full.nodes) == (N, (1 << N) - 1, True, 0)
        assert max_clique(G, budget=0).optimal
        if n <= 9:  # from {0}: one descent N - 1 levels deep, then every branch prunes
            bare = max_clique(G, subspace_report=NO_SEED)
            assert (bare.size, bare.witness.mask, bare.optimal) == (N, (1 << N) - 1, True)
            assert bare.nodes == N - 1


def test_max_clique_pins_omega_at_n11():
    out = max_clique(sample_cayley(11, derive_seed(1, 0)))
    assert (out.size, out.optimal, out.nodes) == (32, True, 281_965)
    assert verify_clique(sample_cayley(11, derive_seed(1, 0)), out.witness)


def test_run_trial_pins_nodes_at_n10():
    # about 500 generators, so rows of eight or nine words at the root and
    # of about four in each root branch; the (omega, alpha) split is pinned
    # too, so the search tree stays fixed where rows span several words
    pins = ((236_697, 170_378, 66_319), (120_893, 73_276, 47_617), (3_241, 1_092, 2_149))
    for i, (nodes, omega_nodes, alpha_nodes) in enumerate(pins):
        G = sample_cayley(10, derive_seed(1, i))
        assert run_trial(10, derive_seed(1, i)).nodes == nodes
        assert (max_clique(G).nodes, max_clique(G.complement()).nodes) == (omega_nodes, alpha_nodes)


def test_negative_budgets_are_refused():
    G = sample_cayley(5, 8)
    for b in (-1, -5, 2.0, True):
        with pytest.raises(PreconditionError, match="budget"):
            max_clique(G, budget=b)
        with pytest.raises(PreconditionError, match="budget"):
            chromatic_bracket(G, budget=b)
    assert max_clique(G, budget=0).nodes == 0
    assert max_clique(G, budget=np.int64(1)) == max_clique(G, budget=1)
    # budgets beyond the kernel's 64-bit counter mean no limit
    assert max_clique(G, budget=1 << 64) == max_clique(G)


def reference_plain_greedy(G):
    """Pure-Python greedy in index order over the adjacency masks: the reference
    that greedy_coloring must equal color for color."""
    N = 1 << G.n
    adj = adjacency_masks(G)
    colors = [-1] * N
    for v in range(N):
        used = 0
        for u in bits_of(adj[v] & ((1 << v) - 1)):
            used |= 1 << colors[u]
        c = 0
        while (used >> c) & 1:
            c += 1
        colors[v] = c
    return tuple(colors)


def test_greedy_coloring_matches_reference_plain_greedy():
    graphs = []
    for n in range(2, 11):
        for i in range(3 if n < 10 else 2):
            G = sample_cayley(n, derive_seed(210, 10 * n + i))
            graphs += [G, G.complement()]
    for n, i in ((11, 0), (11, 1), (12, 0)):
        graphs.append(sample_cayley(n, derive_seed(211, 10 * n + i)))
    for G in graphs:
        col = greedy_coloring(G)
        assert col.colors == reference_plain_greedy(G)
        assert col.num_colors == max(col.colors) + 1


def test_greedy_colors_cosets_of_an_independent_subspace():
    # Why chromatic_bracket needs no greedy coloring: by the Turning Turtles
    # theorem greedy's coloring is linear (see greedy_coloring), so its classes
    # are the cosets of its color-0 class, an independent subspace, and it
    # never uses fewer colors than the cosets of the complement's deepest
    # subspace.  Checked here on random graphs.
    for n in range(2, 10):
        N = 1 << n
        for i in range(12 if n < 7 else 3):
            G = sample_cayley(n, derive_seed(212, 100 * n + i))
            colors = greedy_coloring(G).colors
            classes = [[] for _ in range(max(colors) + 1)]
            for v, c in enumerate(colors):
                classes[c].append(v)
            base = set(classes[0])
            assert {x ^ y for x in base for y in base} == base
            for cls in classes:
                assert set(cls) == {cls[0] ^ h for h in base}
            cosets = N >> subspace_cliques(G.complement()).max_dim
            assert cosets <= len(classes)
            br = chromatic_bracket(G)
            assert br.upper == cosets or br.exact is not None


def test_verify_coloring_rejects_broken_colorings():
    G = sample_cayley(5, 31)
    col = greedy_coloring(G)
    assert verify_coloring(G, col)
    a = G.generators.elements()[0]
    clash = list(col.colors)
    clash[a] = clash[0]  # 0 and a are adjacent
    assert not verify_coloring(G, Coloring(tuple(clash), col.num_colors))
    assert not verify_coloring(G, Coloring(col.colors, col.num_colors - 1))
    assert not verify_coloring(G, Coloring(col.colors[:-1], col.num_colors))
    negative = (-1,) + col.colors[1:]
    assert not verify_coloring(G, Coloring(negative, col.num_colors))


def test_invariant_checks_raise_on_broken_results(monkeypatch):
    # a kernel that reports a larger clique than the seed which is not one
    G = sample_cayley(5, 8)
    seed_size = 1 << subspace_cliques(G).max_dim
    fake = list(range(seed_size + 1))
    assert not verify_clique(G, ElemSet.from_elements(5, fake))

    def broken_kernel(n, gens, k, seed, budget, witness, out):
        witness[:len(fake)] = fake
        out[:] = (len(fake), 7, 0)
        return 0

    with monkeypatch.context() as m:
        m.setattr(cliques._native, "max_clique", broken_kernel)
        with pytest.raises(InvariantError, match="not a clique"):
            max_clique(G)
        # a size that its witness does not have
        fake = [0]
        with pytest.raises(InvariantError, match="not a clique"):
            max_clique(G)
        m.setattr(cliques._native, "max_clique", lambda *args: 2)
        with pytest.raises(MemoryError):
            max_clique(G)
    # a subspace kernel with a wrong M_1, then a witness outside A
    rep = subspace_cliques(G)
    basis = list(rep.witness_basis[::-1])
    outside = next(x for x in range(1, 32) if x not in G.generators
                   and len(rref(basis[1:] + [x])) == len(basis))

    def broken_subspaces(n, gens, k, counts, rows):
        counts[:] = 0
        for m, c in rep.counts.items():
            counts[m] = c
        counts[1] += wrong_m1
        rows[:len(basis)] = basis
        return 0

    with monkeypatch.context() as m:
        m.setattr(cliques._native, "subspaces", broken_subspaces)
        wrong_m1 = 1
        with pytest.raises(InvariantError, match="generators"):
            subspace_cliques(G)
        wrong_m1, basis[0] = 0, outside
        with pytest.raises(InvariantError, match="qualifying subspace"):
            subspace_cliques(G)
        m.setattr(cliques._native, "subspaces", lambda *args: 2)
        with pytest.raises(MemoryError):
            subspace_cliques(G)
    # greedy coloring on a generator table with no edges; the check after it
    # reads the real table
    G = sample_cayley(5, 8)
    real_table = ElemSet.member_table
    tables = []

    def empty_first_table(S):
        tables.append(S)
        return real_table(S) * (len(tables) > 1)

    with monkeypatch.context() as m:
        m.setattr(ElemSet, "member_table", empty_first_table)
        with pytest.raises(InvariantError, match="greedy coloring"):
            greedy_coloring(G)
    V = Subspace(5, subspace_cliques(G.complement()).witness_basis)
    with monkeypatch.context() as m:
        m.setattr(Subspace, "reduce", lambda self, x: 0)  # one coset for all
        with pytest.raises(InvariantError, match="coset coloring"):
            coset_coloring(G, V)
    # a clique larger than any coloring the complement's cosets give, which
    # passes only while the clique check is broken
    omega = max_clique(G)
    with monkeypatch.context() as m:
        m.setattr(cliques, "verify_clique", lambda G, X: True)
        with pytest.raises(InvariantError, match="inverted"):
            chromatic_bracket(G, clique=replace(omega, witness=ElemSet.full(5)))
    # a complement whose deepest subspace meets A: its cosets are no coloring
    with monkeypatch.context() as m:
        m.setattr(CayleyGraph, "complement", lambda self: self)
        with pytest.raises(InvariantError, match="complement witness"):
            chromatic_bracket(G)


def _side_threads():
    return [t for t in threading.enumerate() if t.name == "f2cayley-sides"]


def test_a_failing_side_raises_after_both_are_joined(monkeypatch):
    # the two sides run at once; whichever fails, the caller gets the error
    # a serial run raises, and no thread outlives the call
    seed = derive_seed(11, 3)
    G = sample_cayley(7, seed)
    gens_of = {side: np.flatnonzero(H.generators.member_table())
               for side, H in (("graph", G), ("complement", G.complement()))}
    seed_size = 1 << subspace_cliques(G).max_dim
    fake = list(range(seed_size + 1))
    assert not verify_clique(G, ElemSet.from_elements(7, fake))
    kernel = cliques._native.max_clique

    def broken_on(*sides):
        def wrapped(n, gens, k, seed, budget, witness, out):
            if np.array_equal(gens, gens_of["complement"]):
                if "complement" in sides:
                    return 2
                time.sleep(0.05)  # still searching when the graph side fails
            elif "graph" in sides:
                witness[:len(fake)] = fake
                out[:] = (len(fake), 7, 0)
                return 0
            return kernel(n, gens, k, seed, budget, witness, out)
        return wrapped

    omega, br = max_clique(G), chromatic_bracket(G)
    before = threading.active_count()
    # the graph side's error comes first, as it would run first serially; a
    # clique passed in stands in for the graph side, so only the
    # complement's error is left
    for sides, error in ((("complement",), MemoryError), (("graph",), InvariantError),
                         (("graph", "complement"), InvariantError)):
        with monkeypatch.context() as m:
            m.setattr(cliques._native, "max_clique", broken_on(*sides))
            with pytest.raises(error):
                run_trial(7, seed)
            with pytest.raises(error):
                chromatic_bracket(G)
            assert not _side_threads() and threading.active_count() == before
            if "complement" in sides:
                with pytest.raises(MemoryError):
                    chromatic_bracket(G, clique=omega)
            else:
                assert chromatic_bracket(G, clique=omega) == br
            assert not _side_threads() and threading.active_count() == before
    assert chromatic_bracket(G) == chromatic_bracket(G, clique=omega) == br


def _serial_sides(G, clique_budget, chi_budget):
    """G's report and omega, then the bracket from the complement's report
    and alpha, each side run on this thread by the public calls."""
    rep = subspace_cliques(G)
    omega = max_clique(G, budget=clique_budget, subspace_report=rep)
    comp = G.complement()
    comp_rep = subspace_cliques(comp)
    alpha = max_clique(comp, budget=chi_budget, subspace_report=comp_rep)
    return rep, omega, cliques._bracket(G, omega, comp_rep, alpha, chi_budget)


def test_overlapped_sides_give_the_serial_answers():
    # chromatic_bracket runs omega and alpha at once, with or without a
    # clique passed in; run_trial routes each budget to its side.  Both give
    # what the sides give run one after the other.
    for n in range(2, 11):
        for i in range(3):
            seed = derive_seed(11, i)
            G = sample_cayley(n, seed)
            for b in (None, 1, 50):
                _, omega, serial = _serial_sides(G, b, b)
                assert chromatic_bracket(G, budget=b) == serial, (n, i, b)
                assert chromatic_bracket(G, budget=b, clique=omega) == serial, (n, i, b)
            for cb, xb in ((None, 1), (1, 50), (50, None)):
                rep, omega, br = _serial_sides(G, cb, xb)
                rec = run_trial(n, seed, clique_budget=cb, chi_budget=xb)
                assert ((rec.omega_size, rec.omega_optimal, rec.max_subspace_dim,
                         rec.m_counts, rec.chi_lower, rec.chi_upper, rec.nodes)
                        == (omega.size, omega.optimal, rep.max_dim, rep.counts,
                            br.lower, br.upper, br.nodes)), (n, i, cb, xb)
    assert not _side_threads()


def _gens(H):
    return np.flatnonzero(H.generators.member_table())


def test_the_first_error_in_serial_order_is_raised(monkeypatch, tmp_path):
    # all four sides of two trials share one queue, on one helper or on
    # three; a side that fails later in time but earlier in serial order
    # wins, as a serial run meets it first: trial 0's graph side, its
    # complement side, then trial 1's
    G0, G1 = (sample_cayley(7, derive_seed(11, i)) for i in range(2))
    side_gens = {"graph 0": _gens(G0), "complement 0": _gens(G0.complement()),
                 "graph 1": _gens(G1), "complement 1": _gens(G1.complement())}
    kernel = cliques._native.max_clique
    cfg = ExperimentConfig.from_dict(dict(ns=[7], trials=2, base_seed=11, out_dir=str(tmp_path)))

    def failing(slow, fast):
        def wrapped(n, gens, *rest):
            for side, when in ((slow, 0.1), (fast, 0)):
                if np.array_equal(gens, side_gens[side]):
                    time.sleep(when)  # the slow side fails after the fast one
                    raise MemoryError(side)
            return kernel(n, gens, *rest)
        return wrapped

    for slow, fast, raised in (("complement 0", "graph 1", "complement 0"),
                               ("graph 1", "complement 0", "complement 0"),
                               ("complement 1", "graph 0", "graph 0"),
                               ("complement 1", "graph 1", "graph 1")):
        for workers in (1, 3):
            with monkeypatch.context() as m:
                m.setattr(cliques._native, "max_clique", failing(slow, fast))
                with pytest.raises(MemoryError, match=f"^{raised}$"):
                    run_experiment(cfg, workers=workers)
            assert not _side_threads()


def test_a_broken_record_wins_over_a_later_trials_failed_side(monkeypatch, tmp_path):
    # trial 0's graph side ends last, with M_1 off by one, so its record
    # fails its check; trial 1's graph side fails first in time.  A serial
    # run builds trial 0's record before it reaches trial 1
    G0, G1 = (sample_cayley(7, derive_seed(11, i)) for i in range(2))
    real = cliques._side
    cfg = ExperimentConfig.from_dict(dict(ns=[7], trials=2, base_seed=11, out_dir=str(tmp_path)))

    def failing(H, *rest):
        if H.generators.mask == G1.generators.mask:
            raise MemoryError("graph 1")
        rep, omega, seconds = real(H, *rest)
        if H.generators.mask == G0.generators.mask:
            time.sleep(0.1)
            rep = replace(rep, counts={**rep.counts, 1: rep.counts[1] + 1})
        return rep, omega, seconds

    monkeypatch.setattr(cliques, "_side", failing)
    for workers in (1, 3):
        with pytest.raises(InvariantError, match=r"m_counts\[1\]"):
            run_experiment(cfg, workers=workers)
        assert not _side_threads()


def test_elapsed_counts_each_side_once(monkeypatch, tmp_path):
    # every side reports one second more than it took: a record's elapsed
    # holds both its sides, each once, and the rest of the trial's work
    real = cliques._side

    def slower(*side):
        rep, omega, seconds = real(*side)
        return rep, omega, seconds + 1.0

    monkeypatch.setattr(cliques, "_side", slower)
    cfg = ExperimentConfig.from_dict(dict(ns=[5], trials=3, base_seed=2, out_dir=str(tmp_path)))
    for workers in (1, 2):
        records = run_experiment(cfg, workers=workers).records
        assert len(records) == 3
        assert all(2.0 <= r.elapsed < 3.0 for r in records), [r.elapsed for r in records]


def test_an_interrupt_raised_by_a_side_starts_no_later_side(monkeypatch, tmp_path):
    # trial 0's complement side is interrupted while its graph side is still
    # running: no side of trials 1..3 starts, and the interrupt reaches the
    # caller once the running side has ended
    graphs = [sample_cayley(7, derive_seed(13, i)) for i in range(4)]
    started = []
    real = cliques.subspace_cliques

    def interrupted(H):
        started.append(H.generators.mask)
        if H.generators.mask == graphs[0].generators.mask:
            time.sleep(0.1)
        elif H.generators.mask == graphs[0].complement().generators.mask:
            raise KeyboardInterrupt
        return real(H)

    monkeypatch.setattr(cliques, "subspace_cliques", interrupted)
    cfg = ExperimentConfig.from_dict(dict(ns=[7], trials=4, base_seed=13, out_dir=str(tmp_path)))
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert sorted(started) == sorted(H.generators.mask for H in (graphs[0], graphs[0].complement()))
    assert not _side_threads()
    with pytest.raises(KeyboardInterrupt):
        chromatic_bracket(graphs[0])
    assert not _side_threads()


def test_no_helper_thread_outlives_a_call(monkeypatch, tmp_path):
    # a call with two sides or more runs them on this thread and one helper,
    # which is gone when the call returns; a single side stays on this thread
    G = sample_cayley(7, 5)
    omega = max_clique(G)
    cfg = ExperimentConfig.from_dict(dict(ns=[5, 6], trials=2, base_seed=4, out_dir=str(tmp_path)))
    real = cliques._side
    me = threading.current_thread()
    before = threading.active_count()
    for call, sides in ((lambda: run_experiment(cfg), 8), (lambda: run_trial(6, 3), 2),
                        (lambda: chromatic_bracket(G), 2),
                        (lambda: chromatic_bracket(G, clique=omega), 1)):
        ran = []
        second = threading.Event()

        def recorded(*side):
            ran.append(threading.current_thread())
            if len(ran) > 1:
                second.set()
            elif sides > 1:  # hold the first side until the other thread takes one
                assert second.wait(timeout=10)
            return real(*side)

        monkeypatch.setattr(cliques, "_side", recorded)
        call()
        helpers = {t for t in ran if t is not me}
        assert len(ran) == sides
        assert [t.name for t in helpers] == (["f2cayley-sides"] if sides > 1 else [])
        assert not any(t.is_alive() for t in helpers)
        assert not _side_threads() and threading.active_count() == before


def test_an_interrupt_with_three_helpers_starts_no_side_after_the_running_ones(
        monkeypatch, tmp_path):
    # four threads take the sides of trials 0 and 1 at once; trial 0's
    # complement side is interrupted once all four have started, while the
    # other three still run: no side of trials 2 and 3 starts, and the
    # interrupt reaches the caller once the running sides have ended
    graphs = [sample_cayley(7, derive_seed(13, i)) for i in range(4)]
    first = [H.generators.mask for G in graphs[:2] for H in (G, G.complement())]
    started = []
    all_started = threading.Event()
    real = cliques.subspace_cliques

    def interrupted(H):
        started.append(H.generators.mask)
        if len(started) == len(first):
            all_started.set()
        if H.generators.mask == first[1]:
            all_started.wait(timeout=10)
            raise KeyboardInterrupt
        if H.generators.mask in first:
            time.sleep(0.1)
        return real(H)

    monkeypatch.setattr(cliques, "subspace_cliques", interrupted)
    cfg = ExperimentConfig.from_dict(dict(ns=[7], trials=4, base_seed=13, out_dir=str(tmp_path)))
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, workers=3)
    assert sorted(started) == sorted(first)
    assert not _side_threads()


def test_no_helper_thread_outlives_an_experiment_on_four_helpers(monkeypatch, tmp_path):
    # the first five of eight sides meet at a barrier, so this thread and
    # four helpers each take one; every helper is gone when the call returns
    cfg = ExperimentConfig.from_dict(dict(ns=[5, 6], trials=2, base_seed=4, out_dir=str(tmp_path)))
    real = cliques._side
    me = threading.current_thread()
    before = threading.active_count()
    ran = []
    barrier = threading.Barrier(5)

    def recorded(*side):
        ran.append(threading.current_thread())
        if len(ran) <= 5:
            barrier.wait(timeout=10)
        return real(*side)

    monkeypatch.setattr(cliques, "_side", recorded)
    run_experiment(cfg, workers=4)
    helpers = {t for t in ran if t is not me}
    assert len(ran) == 8 and me in ran
    assert len(helpers) == 4 and {t.name for t in helpers} == {"f2cayley-sides"}
    assert not any(t.is_alive() for t in helpers)
    assert not _side_threads() and threading.active_count() == before


def test_a_call_starts_no_more_helpers_than_sides_less_one(monkeypatch, tmp_path):
    # eight helpers asked for: a one-trial experiment has two sides and
    # starts one helper, an experiment of no trials starts none
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self.name)
            super().start()

    real = cliques._side
    ran = []
    second = threading.Event()

    def recorded(*side):
        ran.append(threading.current_thread())
        if len(ran) > 1:
            second.set()
        else:  # hold the first side until the other thread takes one
            assert second.wait(timeout=10)
        return real(*side)

    monkeypatch.setattr(cliques, "threading",
                        SimpleNamespace(Thread=Counted, Lock=threading.Lock))
    monkeypatch.setattr(cliques, "_side", recorded)
    for trials, helpers in ((1, 1), (0, 0)):
        starts.clear()
        ran.clear()
        cfg = ExperimentConfig.from_dict(dict(ns=[6], trials=trials, base_seed=2,
                                              out_dir=str(tmp_path / str(trials))))
        assert len(run_experiment(cfg, workers=8).records) == trials
        assert starts == ["f2cayley-sides"] * helpers
        assert len(ran) == len(set(ran)) == 2 * trials
    assert not _side_threads()


def test_every_side_runs_once_under_fast_thread_switching(monkeypatch):
    # the two threads share one counter of sides taken; switching threads
    # every microsecond, a lost update would run a side twice or not at all
    ran = []

    def fake(i, budget, report):
        ran.append(i)
        return i, budget, 0.0

    monkeypatch.setattr(cliques, "_side", fake)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            done = cliques._run_sides([(i, None, None) for i in range(500)])
            assert sorted(ran) == list(range(500))
            assert done == [(i, None, 0.0) for i in range(500)]
    finally:
        sys.setswitchinterval(interval)
    assert not _side_threads()


def test_experiment_outputs_match_the_serial_sides(tmp_path):
    # records.jsonl (but elapsed) and summary.csv are those of the sides run
    # one after the other, trial by trial, at one, two and four helpers
    ns = tuple(range(2, 10))
    ns_flat = [n for n in ns for _ in range(3)]
    for b in (None, 1, 50):
        ref = []
        for i, n in enumerate(ns_flat):
            seed = derive_seed(23, i)
            G = sample_cayley(n, seed)
            rep, omega, br = _serial_sides(G, b, b)
            ref.append(TrialRecord(
                n=n, seed=seed, a_size=len(G.generators), omega_size=omega.size,
                omega_optimal=omega.optimal, m_counts=dict(rep.counts),
                chi_lower=br.lower, chi_upper=br.upper, elapsed=0.0, nodes=br.nodes))
        want = [{k: v for k, v in json.loads(r.to_json()).items() if k != "elapsed"} for r in ref]
        summary = "\n".join([summary_header()] + summarize(ns, ref)) + "\n"
        for workers in (1, 2, 4):
            cfg = ExperimentConfig(ns=ns, trials=3, base_seed=23, clique_budget=b, chi_budget=b,
                                   out_dir=str(tmp_path / f"{b}-{workers}"))
            res = run_experiment(cfg, workers=workers)
            with open(res.records_path) as fh:
                got = [{k: v for k, v in json.loads(line).items() if k != "elapsed"}
                       for line in fh]
            with open(res.summary_path) as fh:
                assert (got, fh.read()) == (want, summary), (b, workers)
    assert not _side_threads()


def test_independence_on_perfect_matching():
    # single generator: the graph is a perfect matching, alpha = 2^(n-1)
    for n in (3, 4):
        G = CayleyGraph(n, ElemSet.from_elements(n, [1]))
        out = max_clique(G.complement())
        assert out.size == 1 << (n - 1)
        assert verify_independent(G, out.witness)


def reference_coset_coloring(G, V):
    """Colors by first appearance of each coset minimum V.reduce(x), x in
    index order: the reference that coset_coloring must equal color for
    color."""
    reps = {}
    colors = []
    for x in range(1 << G.n):
        colors.append(reps.setdefault(V.reduce(x), len(reps)))
    return tuple(colors), len(reps)


def test_coset_coloring_proper_and_sized():
    for n in range(2, 12):
        for i in range(3):
            G = sample_cayley(n, derive_seed(213, 10 * n + i))
            for H in (G, G.complement()):
                V = Subspace(n, subspace_cliques(H.complement()).witness_basis)
                col = coset_coloring(H, V)
                assert verify_coloring(H, col)
                assert col.num_colors == 1 << (n - V.dim)
                assert (col.colors, col.num_colors) == reference_coset_coloring(H, V)


def test_coset_coloring_rejects_non_independent_subspace():
    G = CayleyGraph(3, ElemSet.from_elements(3, [1, 2]))
    V = Subspace(3, (0b001,))  # 1 is a generator: 0 and 1 are adjacent
    with pytest.raises(PreconditionError) as exc:
        coset_coloring(G, V)
    assert "0" in str(exc.value) and "1" in str(exc.value)


def test_greedy_coloring_is_proper():
    rng = random.Random(4242)
    for n in (3, 4, 5):
        for _ in range(5):
            G = sample_cayley(n, rng.getrandbits(63))
            col = greedy_coloring(G)
            assert verify_coloring(G, col)


def test_chromatic_bracket_contains_exact_value():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(6):
            G = sample_cayley(n, rng.getrandbits(63))
            br = chromatic_bracket(G)
            chi = brute_chromatic(adjacency_masks(G), 1 << n)
            assert br.lower <= chi <= br.upper
            if br.exact is not None:
                assert br.exact == chi


def test_chromatic_of_subspace_graph():
    # A = H \ {0}: components are cliques of size 2^dim, so chi = 2^dim
    for n in (2, 3, 4):
        for dim in range(n + 1):
            V = next(iter(enumerate_subspaces(n, dim)))
            G = CayleyGraph(n, subspace_members(V))
            br = chromatic_bracket(G)
            assert br.exact == 1 << dim


def test_chromatic_bracket_accepts_precomputed_inputs():
    G = sample_cayley(5, 777)
    rep = subspace_cliques(G)
    omega = max_clique(G, subspace_report=rep)
    a = chromatic_bracket(G)
    b = chromatic_bracket(G, subspace_report=rep, clique=omega)
    assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact)


def test_chromatic_bracket_refuses_inputs_of_another_graph():
    # a clique of G1 is no clique of G2: taken as one, it closed G2's
    # bracket [13, 16] at 16
    G1, G2 = sample_cayley(7, 10), sample_cayley(7, 1010)
    omega = max_clique(G1)
    assert not verify_clique(G2, omega.witness)
    with pytest.raises(PreconditionError, match="clique outcome"):
        chromatic_bracket(G2, clique=omega)
    br = chromatic_bracket(G2)
    assert (br.lower, br.upper, br.exact) == (13, 16, None)
    own = max_clique(G2)
    # a set of its size from another space, refused by verify_clique
    for m in (6, 8):
        other = replace(own, witness=ElemSet(m, (1 << own.size) - 1))
        with pytest.raises(PreconditionError, match="wrong ambient dimension"):
            chromatic_bracket(G2, clique=other)
    assert chromatic_bracket(G2, clique=own) == br
    # a subspace report of G1 whose witness leaves the generators of G2
    G1, G2 = sample_cayley(6, 37), sample_cayley(6, 537)
    rep = subspace_cliques(G1)
    with pytest.raises(PreconditionError, match="subspace report"):
        chromatic_bracket(G2, subspace_report=rep)
    with pytest.raises(PreconditionError, match="subspace report"):
        max_clique(G2, subspace_report=rep)
    # a clique passed in stands in for G2's side, but the report is still
    # checked against G2
    with pytest.raises(PreconditionError, match="subspace report"):
        chromatic_bracket(G2, subspace_report=rep, clique=max_clique(G2))


def test_verify_helpers_reject_bad_witnesses():
    G = CayleyGraph(3, ElemSet.from_elements(3, [1]))
    assert not verify_clique(G, ElemSet.from_elements(3, [0, 2]))
    assert not verify_independent(G, ElemSet.from_elements(3, [0, 1]))


def test_verify_helpers_refuse_a_set_from_another_space():
    # a larger space indexed the generator table out of range; a smaller one
    # gave an answer about some embedding of X into F_2^n
    G = sample_cayley(4, 1)
    for X in (ElemSet.from_elements(6, [40, 1]), ElemSet.from_elements(3, [0, 1]),
              ElemSet.empty(2)):
        for verify in (verify_clique, verify_independent):
            with pytest.raises(PreconditionError, match="wrong ambient dimension"):
                verify(G, X)
