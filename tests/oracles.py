"""Exhaustive oracles shared by the clique and acceptance tests."""
import numpy as np


def adjacency_masks(G):
    """Per-vertex neighbor bitmasks of a Cayley graph, 2^n masks of 2^n bits,
    by the pair rule: x ~ y iff x + y is a generator."""
    N = 1 << G.n
    x = np.arange(N)
    in_gens = np.array([v in G.generators for v in range(N)])
    return [int.from_bytes(np.packbits(in_gens[x ^ v], bitorder="little").tobytes(), "little")
            for v in range(N)]


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

    def go(v, k):
        if v == N:
            return True
        used = max(colors[:v], default=-1)
        for c in range(min(k, used + 2)):
            if all(colors[u] != c for u in range(v) if adj[v] >> u & 1):
                colors[v] = c
                if go(v + 1, k):
                    return True
                colors[v] = -1
        return False

    k = 1
    while not go(0, k):
        k += 1
    return k
