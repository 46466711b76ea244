"""Graph sampling, serialization, and the counter-based coin stream."""
import dataclasses

import numpy as np
import pytest

from f2cayley import (
    CayleyGraph,
    ElemSet,
    PreconditionError,
    coin,
    coin_matrix,
    coin_row,
    derive_seed,
    mix64,
    sample_cayley,
)

# chi-square critical value, 7 degrees of freedom, p = 1e-6
CHI2_CRIT = 40.521831234179864


def test_sampling_is_deterministic_and_seed_sensitive():
    a = sample_cayley(6, 12345)
    b = sample_cayley(6, 12345)
    assert a.generators == b.generators
    c = sample_cayley(6, 12346)
    assert a.generators != c.generators


def test_generators_exclude_zero_and_drive_edges():
    # x ~ y iff x + y is a generator, so with 0 outside the generators no
    # vertex is its own neighbor, and a 0 passed in is dropped
    G = sample_cayley(5, 99)
    assert 0 not in G.generators
    assert CayleyGraph(5, ElemSet(5, G.generators.mask | 1)).generators == G.generators
    for x in range(32):
        assert sum((x ^ y) in G.generators for y in range(32)) == len(G.generators)


def test_graph_is_frozen():
    G = sample_cayley(4, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.generators = ElemSet(4, 0)
    assert CayleyGraph(4, ElemSet(4, 0b1011)).generators == ElemSet(4, 0b1010)


def test_complement_flips_every_pair():
    G = sample_cayley(4, 5)
    H = G.complement()
    assert 0 not in H.generators
    for x in range(16):
        for y in range(x + 1, 16):
            assert ((x ^ y) in G.generators) != ((x ^ y) in H.generators)
    assert H.complement().generators == G.generators


def test_text_round_trip():
    G = sample_cayley(7, 424242)
    text = G.to_text()
    H = CayleyGraph.from_text(text)
    assert (H.n, H.seed, H.generators) == (G.n, G.seed, G.generators)
    assert H.to_text() == text
    K = CayleyGraph(3, ElemSet.from_elements(3, [1, 6]))
    assert CayleyGraph.from_text(K.to_text()).generators == K.generators


def test_from_text_rejects_malformed_input():
    for bad in ("", "n=3", "n=3 seed=1\nzz\n", "n=3 seed=1\nffff\n"):
        with pytest.raises(PreconditionError):
            CayleyGraph.from_text(bad)


def test_dimension_range_is_enforced():
    with pytest.raises(PreconditionError):
        sample_cayley(1, 0)
    with pytest.raises(PreconditionError):
        sample_cayley(14, 0)
    with pytest.raises(PreconditionError):
        CayleyGraph(5, ElemSet(4, 0))  # generators of another dimension


def test_generator_sets_are_uniform_at_n2():
    """Each of the 8 possible generator sets over F_2^2 \\ {0} should appear
    ~equally often; chi-square with 7 df at p = 1e-6."""
    trials = 4000
    counts = [0] * 8
    for i in range(trials):
        G = sample_cayley(2, derive_seed(20240817, i))
        idx = 0
        for j, v in enumerate((1, 2, 3)):
            if v in G.generators:
                idx |= 1 << j
        counts[idx] += 1
    expected = trials / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT, counts


def test_coin_row_matches_scalar_coins():
    seed = 987654321
    row = coin_row(seed, 64)
    assert row.shape == (64,)
    for i in range(64):
        assert int(row[i]) == coin(seed, i)


def test_coin_matrix_matches_rows():
    seeds = [derive_seed(7, i) for i in range(20)]
    mat = coin_matrix(seeds, 32)
    assert mat.shape == (20, 32)
    for r, s in enumerate(seeds):
        assert np.array_equal(mat[r], coin_row(s, 32))


def test_derive_seed_is_collision_free_at_scale():
    base = 123
    seen = {derive_seed(base, i) for i in range(100_000)}
    assert len(seen) == 100_000
    assert derive_seed(base, 5) != derive_seed(base + 1, 5)


def test_mix64_is_64_bit_and_nontrivial():
    vals = {mix64(i) for i in range(1000)}
    assert len(vals) == 1000
    assert all(0 <= v < 1 << 64 for v in vals)
