"""Clique, independence and coloring machinery against brute-force oracles."""
import random

import numpy as np
import pytest

from f2cayley import (
    CayleyGraph,
    Coloring,
    ElemSet,
    InvariantError,
    PreconditionError,
    Subspace,
    SubspaceCliqueReport,
    bits_of,
    chromatic_bracket,
    coset_coloring,
    derive_seed,
    gaussian_binomial,
    greedy_coloring,
    independence_number,
    max_clique,
    sample_cayley,
    subspace_cliques,
    subspace_members,
    enumerate_subspaces,
    verify_clique,
    verify_coloring,
    verify_independent,
    xor_shift,
)
from f2cayley import cliques


def brute_max_clique(adj, N):
    """Largest clique by subset DP over all 2^N vertex subsets."""
    best = 1
    is_clique = [False] * (1 << N)
    is_clique[0] = True
    for mask in range(1, 1 << N):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if is_clique[rest] and rest & ~adj[v] == 0:
            is_clique[mask] = True
            best = max(best, mask.bit_count())
    return best


def brute_chromatic(adj, N):
    """Exact chromatic number by color-count backtracking."""
    colors = [-1] * N

    def feasible(k):
        def go(v):
            if v == N:
                return True
            used = max(colors[:v], default=-1)
            for c in range(min(k, used + 2)):
                if all(colors[u] != c for u in range(v) if adj[v] >> u & 1):
                    colors[v] = c
                    if go(v + 1):
                        return True
                    colors[v] = -1
            return False

        return go(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


def test_max_clique_matches_subset_dp():
    rng = random.Random(606)
    for n in (2, 3, 4):
        for _ in range(12):
            G = sample_cayley(n, rng.getrandbits(63))
            out = max_clique(G)
            assert out.optimal and out.method == "exact"
            assert out.size == brute_max_clique(G.adjacency_masks(), 1 << n)
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
    n = 7
    G = CayleyGraph(n, ElemSet(n, (1 << (1 << n)) - 2))
    rep = subspace_cliques(G)
    assert rep.counts == {m: gaussian_binomial(n, m) for m in range(n + 1)}
    assert sum(rep.counts.values()) == 29_212
    assert rep.max_dim == n and len(rep.witness_basis) == n


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
    seeded = max_clique(G, budget=1)
    assert not seeded.optimal and seeded.method == "subspace-seeded"
    assert seeded.size == 8 and verify_clique(G, seeded.witness)
    improved = max_clique(G, budget=16)
    assert not improved.optimal and improved.method == "budget-exhausted"
    assert improved.size > 8 and verify_clique(G, improved.witness)
    full = max_clique(G)
    assert full.optimal and full.method == "exact" and full.size == 10
    assert full.size >= improved.size >= seeded.size


def test_budgets_stop_after_exactly_budget_nodes():
    G = sample_cayley(7, 23)
    for b in (1, 5, 16):
        out = max_clique(G, budget=b)
        assert not out.optimal and out.nodes == b
    assert max_clique(G, budget=0).nodes == 0
    G4 = sample_cayley(4, 99)
    adj = G4.adjacency_masks()
    full = cliques._exact_chromatic(adj, 16, 1, 17, None)
    assert full[0] is not None and full[1] > 3
    assert cliques._exact_chromatic(adj, 16, 1, 17, 3) == (None, 3)


def brute_adjacency(n, a_mask):
    """Neighbor masks from the pair rule x ~ y iff x + y is a generator."""
    N = 1 << n
    return [sum(1 << y for y in range(N) if y != x and (a_mask >> (x ^ y)) & 1)
            for x in range(N)]


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
NO_SEED = SubspaceCliqueReport(counts={0: 1}, max_dim=0, complete=True, witness_basis=())


def test_max_clique_from_bare_incumbent_on_hard_cases():
    for n, a in PAIRING_HARD_CASES:
        H = CayleyGraph(n, ElemSet(n, a))
        out = max_clique(H, subspace_report=NO_SEED)
        assert out.optimal and out.size == bron_kerbosch_max(brute_adjacency(n, a), 1 << n)
        assert verify_clique(H, out.witness) and out.witness.size == out.size


def test_max_clique_and_alpha_match_bron_kerbosch_at_n5_to_7():
    # large enough for the difference and pairing rules below the root to fire
    for n in (5, 6, 7):
        N = 1 << n
        for i in range(8):
            G = sample_cayley(n, derive_seed(57, 100 * n + i))
            Gc = G.complement()
            omega = {id(H): bron_kerbosch_max(brute_adjacency(n, H.generators.mask), N)
                     for H in (G, Gc)}
            for H, Hc in ((G, Gc), (Gc, G)):
                out = max_clique(H)
                assert out.optimal and out.size == omega[id(H)] == out.witness.size
                assert verify_clique(H, out.witness)
                # from the incumbent {0} the search must find a maximum clique itself
                bare = max_clique(H, subspace_report=NO_SEED)
                assert bare.size == omega[id(H)] == bare.witness.size
                assert verify_clique(H, bare.witness)
                ind = independence_number(H)
                assert ind.optimal and ind.size == omega[id(Hc)] == ind.witness.size
                assert verify_independent(H, ind.witness)


class _RefBudget(Exception):
    pass


def reference_max_clique(G, budget=None, subspace_report=None):
    """The search of max_clique over the global labels 0..2^n - 1, with the
    difference and pairing rules but with no local labels and no kmin cut:
    every vertex is colored and the branch loop does all the pruning.  The
    reference that max_clique must equal node for node and witness for
    witness; returns (size, witness mask, optimal, nodes)."""
    n = G.n
    adj = G.adjacency_masks()
    rep = subspace_cliques(G) if subspace_report is None else subspace_report
    seed = subspace_members(Subspace(n, rep.witness_basis)).mask
    state = {"mask": seed, "size": seed.bit_count(), "nodes": 0}

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
            else:
                P2, sub = P & adj[v], adj
            if P2:
                expand(r_mask | 1 << v, r_size + 1, P2, sub, v)
            elif r_size + 1 > state["size"]:
                state["size"], state["mask"] = r_size + 1, r_mask | 1 << v
            P &= ~(1 << v)
            if r_size == 2:
                P &= ~(1 << (v ^ root_v))

    try:
        expand(1, 1, adj[0], adj)
        optimal = True
    except _RefBudget:
        optimal = False
    return state["size"], state["mask"], optimal, state["nodes"]


def test_max_clique_matches_global_label_reference(monkeypatch):
    # Root graphs of 118-262 vertices and root branches of 50-142, most not a
    # multiple of 8, so the packed masks cross byte and 64-bit boundaries; the
    # budget sweep stops the search inside root branches at many depths, and
    # one graph (n = 8, i = 1, omega 10 > 2^3) improves on its seed there.
    sizes = []
    local_graph = cliques._local_graph

    def recording_local_graph(lab, dbits):
        sizes.append(len(lab))
        return local_graph(lab, dbits)

    monkeypatch.setattr(cliques, "_local_graph", recording_local_graph)
    for n, i in ((8, 0), (8, 1), (9, 0)):
        G = sample_cayley(n, derive_seed(11, i))
        for H in (G, G.complement()):
            rep = subspace_cliques(H)
            seed = subspace_members(Subspace(n, rep.witness_basis)).mask
            full = max_clique(H, subspace_report=rep)
            for budget in (None,) + tuple(range(1, 61)):
                out = full if budget is None else max_clique(H, budget, subspace_report=rep)
                ref = reference_max_clique(H, budget, rep)
                assert (out.size, out.witness.mask, out.optimal, out.nodes) == ref
                assert out.witness.size == out.size and out.witness.mask & 1
                assert verify_clique(H, out.witness)
                if budget is not None and budget < full.nodes:
                    assert out.nodes == budget and not out.optimal
                    assert out.method == ("subspace-seeded" if out.witness.mask == seed
                                          else "budget-exhausted")
    assert max(sizes) > 256 and any(64 < k < 128 and k % 8 for k in sizes)


def test_local_graph_rows_across_gather_blocks():
    # 1100 candidates at n = 11 span three blocks of gathered rows, as the
    # root's graph does from n = 11 up
    rng = random.Random(1111)
    n = 11
    a = rng.getrandbits(1 << n) & ~1
    lab = np.array(sorted(rng.sample(range(1, 1 << n), 1100)))
    dbits = np.array([(a >> x) & 1 for x in range(1 << n)], dtype=bool)
    adj, nadj = cliques._local_graph(lab, dbits)
    assert len(adj) == len(nadj) == 1100 > 2 * cliques._GATHER_ROWS
    for u in (0, 1, 511, 512, 513, 1023, 1024, 1099):
        want = sum(1 << w for w in range(1100) if (a >> int(lab[u] ^ lab[w])) & 1)
        assert adj[u] == want
        assert nadj[u] == ((1 << 1100) - 1) & ~want & ~(1 << u)


def reference_plain_greedy(G):
    """Pure-Python greedy in index order over the adjacency masks: the reference
    that greedy_coloring must equal color for color."""
    N = 1 << G.n
    adj = G.adjacency_masks()
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
    # Why chromatic_bracket needs no greedy coloring: greedy's classes are the
    # cosets of its color-0 class, an independent subspace, so it never uses
    # fewer colors than the cosets of the complement's deepest subspace.
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
    # local graphs that claim every pair is an edge
    G = sample_cayley(5, 8)
    with monkeypatch.context() as m:
        m.setattr(cliques, "_local_graph", lambda lab, dbits: (
            [((1 << len(lab)) - 1) & ~(1 << u) for u in range(len(lab))], [0] * len(lab)))
        with pytest.raises(InvariantError, match="not a clique"):
            max_clique(G)
    # a complement that is not one: its cliques are not independent in G
    G = sample_cayley(5, 8)
    G.complement = lambda: G
    with pytest.raises(InvariantError, match="not independent"):
        independence_number(G)
    # greedy coloring on a generator list with no edges
    G = sample_cayley(5, 8)
    with monkeypatch.context() as m:
        m.setattr(ElemSet, "elements", lambda self: [])
        with pytest.raises(InvariantError, match="greedy coloring"):
            greedy_coloring(G)
    V = Subspace(5, subspace_cliques(G.complement()).witness_basis)
    with monkeypatch.context() as m:
        m.setattr(Subspace, "reduce", lambda self, x: 0)  # one coset for all
        with pytest.raises(InvariantError, match="coset coloring"):
            coset_coloring(G, V)
    one_color = Coloring((0,) * 32, 1)
    monkeypatch.setattr(cliques, "coset_coloring", lambda H, W: one_color)
    with pytest.raises(InvariantError, match="inverted"):
        chromatic_bracket(G)


def test_independence_on_perfect_matching():
    # single generator: the graph is a perfect matching, alpha = 2^(n-1)
    for n in (3, 4):
        G = CayleyGraph(n, ElemSet.from_elements(n, [1]))
        out = independence_number(G)
        assert out.size == 1 << (n - 1)
        assert verify_independent(G, out.witness)


def test_coset_coloring_proper_and_sized():
    G = sample_cayley(4, 2718)
    comp_rep = subspace_cliques(G.complement())
    V = Subspace(4, comp_rep.witness_basis)
    col = coset_coloring(G, V)
    assert verify_coloring(G, col)
    assert col.num_colors == 1 << (4 - V.dim)


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
            chi = brute_chromatic(G.adjacency_masks(), 1 << n)
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


def test_verify_helpers_reject_bad_witnesses():
    G = CayleyGraph(3, ElemSet.from_elements(3, [1]))
    assert not verify_clique(G, ElemSet.from_elements(3, [0, 2]))
    assert not verify_independent(G, ElemSet.from_elements(3, [0, 1]))
