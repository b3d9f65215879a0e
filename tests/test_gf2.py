"""Bit-packed GF(2) linear algebra against brute-force oracles."""
from __future__ import annotations

import itertools
import random

import pytest

from conftest import apply_map, invertible_maps
from racover import gf2


def test_parity_small_values():
    assert [gf2.parity(v) for v in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_parity_is_additive():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.getrandbits(60)
        b = rng.getrandbits(60)
        assert gf2.parity(a ^ b) == gf2.parity(a) ^ gf2.parity(b)


def test_rank_examples():
    assert gf2.rank([]) == 0
    assert gf2.rank([0, 0]) == 0
    assert gf2.rank([1, 2, 4]) == 3
    assert gf2.rank([1, 2, 3]) == 2
    assert gf2.rank([5, 3, 6]) == 2


def test_independent_matches_rank():
    rng = random.Random(11)
    for _ in range(200):
        rows = [rng.randrange(16) for _ in range(rng.randrange(5))]
        assert gf2.independent(rows) == (gf2.rank(rows) == len(rows))


def test_span_is_the_full_subspace():
    rng = random.Random(13)
    for _ in range(100):
        rows = [rng.randrange(32) for _ in range(rng.randrange(4))]
        sp = gf2.span(rows)
        assert len(sp) == 1 << gf2.rank(rows)
        assert sp == sorted(sp)
        members = set(sp)
        assert 0 in members
        # closed under addition and contains every generator
        for a, b in itertools.product(sp, repeat=2):
            assert a ^ b in members
        for r in rows:
            assert r in members


def _brute_all_ones(rows, dim):
    for x in range(1 << dim):
        if all(gf2.parity(x & r) for r in rows):
            return x
    return None


def test_solve_all_ones_against_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        dim = rng.randrange(1, 5)
        rows = [rng.randrange(1, 1 << dim) for _ in range(rng.randrange(6))]
        got = gf2.solve_all_ones(rows)
        want = _brute_all_ones(rows, dim)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert all(gf2.parity(got & r) for r in rows)


def test_solve_all_ones_known_cases():
    # basis vectors admit the all-ones covector
    assert gf2.solve_all_ones([1, 2, 4]) == 7
    # a zero-sum triple kills every candidate
    assert gf2.solve_all_ones([1, 2, 3]) is None
    assert gf2.solve_all_ones([]) == 0


@pytest.mark.parametrize("dim, count", [(1, 1), (2, 6), (3, 168)])
def test_invertible_map_counts(dim, count):
    maps = invertible_maps(dim)
    assert len(maps) == count
    seen = set()
    for cols in maps:
        assert len(cols) == dim
        assert gf2.independent(cols)
        seen.add(tuple(cols))
    assert len(seen) == count


def test_apply_map_on_basis_and_sums():
    cols = [3, 5, 6]
    for i in range(3):
        assert apply_map(cols, 1 << i) == cols[i]
    rng = random.Random(19)
    for _ in range(100):
        a = rng.randrange(8)
        b = rng.randrange(8)
        assert apply_map(cols, a ^ b) == apply_map(cols, a) ^ apply_map(cols, b)


def test_invertible_maps_compose_to_permutations():
    # an invertible map permutes the nonzero vectors
    for cols in invertible_maps(3):
        images = {apply_map(cols, v) for v in range(1, 8)}
        assert images == set(range(1, 8))


def test_quotient_map_is_the_projection_onto_v_mod_lf():
    for lf in range(1, 16):
        q = gf2.quotient_map(lf)
        assert q(lf) == 0
        assert {q(v) for v in range(16)} == set(range(8))
        for u in range(16):
            assert q(u ^ lf) == q(u)
            for v in range(16):
                assert q(u ^ v) == q(u) ^ q(v)
