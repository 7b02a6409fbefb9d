import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactors.code import (
    adjacent_codeword,
    build_context,
    code_size,
    codewords_in_ball,
    codewords_near,
    enumerate_code,
    in_code,
    phi,
    phi_table,
)
from cubefactors.cube import basis_vertex, hamming_distance

CTX7 = build_context(7)

# brute-force pairwise minimum distance, frozen per dimension
MIN_DISTANCE = {3: 3, 4: 4, 5: 3, 6: 3, 7: 3, 8: 4, 9: 3, 10: 3, 11: 3, 12: 3}


def test_context_examples():
    assert CTX7.k == 3
    assert CTX7.space.directions == (1, 2, 3, 4, 5, 6, 7)
    ctx4 = build_context(4)
    assert ctx4.k == 3
    assert ctx4.space.directions == (1, 2, 4, 7)
    ctx8 = build_context(8)
    assert ctx8.k == 4
    assert all(x.bit_count() % 2 == 1 for x in ctx8.space.directions)
    assert len(ctx8.space.directions) == 8


def test_context_guard():
    with pytest.raises(ValueError, match="d >= 3"):
        build_context(2)


def test_direction_set_shape():
    for d in range(3, 15):
        ctx = build_context(d)
        dirs = ctx.space.directions
        assert len(dirs) == d
        assert 0 not in dirs
        assert 2 ** (ctx.k - 1) <= d <= 2**ctx.k - 1
        odd = {v for v in range(1, 1 << ctx.k) if v.bit_count() % 2 == 1}
        assert odd <= set(dirs)


def test_phi_examples():
    assert phi(CTX7, 0) == 0
    for x in CTX7.space.directions:
        assert phi(CTX7, basis_vertex(CTX7.space, x)) == x
    assert phi(CTX7, 0b0000011) == 3


@given(
    st.integers(min_value=3, max_value=20),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_phi_is_a_homomorphism(d, data):
    ctx = build_context(d)
    u = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    v = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    assert phi(ctx, u ^ v) == phi(ctx, u) ^ phi(ctx, v)


def test_in_code_basics():
    assert in_code(CTX7, 0)
    assert not in_code(CTX7, basis_vertex(CTX7.space, 5))
    assert sum(in_code(CTX7, u) for u in range(128)) == 16


def test_code_size_formula():
    for d in range(3, 15):
        ctx = build_context(d)
        words = list(enumerate_code(ctx))
        assert len(words) == code_size(ctx) == 1 << (d - ctx.k)
        assert len(set(words)) == len(words)
        assert all(in_code(ctx, u) for u in words)


def test_min_distance_frozen():
    for d, expected in MIN_DISTANCE.items():
        ctx = build_context(d)
        words = sorted(enumerate_code(ctx))
        dist = min(
            hamming_distance(a, b) for a, b in combinations(words, 2)
        )
        assert dist >= 3
        assert dist == expected


def test_adjacent_codeword_examples():
    assert adjacent_codeword(CTX7, 0) is None
    for x in CTX7.space.directions:
        assert adjacent_codeword(CTX7, basis_vertex(CTX7.space, x)) == (0, x)
    ctx4 = build_context(4)
    # syndrome 3 is even weight, hence inactive at d=4: no codeword neighbour
    u = 0b0011  # phi = 1 ^ 2 = 3
    assert phi(ctx4, u) == 3
    assert adjacent_codeword(ctx4, u) is None


def test_adjacent_codeword_matches_brute_force():
    for d in (4, 7, 9, 12):
        ctx = build_context(d)
        words = list(enumerate_code(ctx))
        for u in range(1 << d):
            near = [w for w in words if hamming_distance(u, w) == 1]
            assert len(near) <= 1
            got = adjacent_codeword(ctx, u)
            if in_code(ctx, u):
                assert got is None
            elif near:
                assert got == (near[0], phi(ctx, u))
            else:
                assert got is None


def test_codewords_in_ball_examples():
    assert list(codewords_in_ball(CTX7, 0, 2)) == [0]
    assert list(codewords_in_ball(CTX7, basis_vertex(CTX7.space, 1), 0)) == []
    got = sorted(codewords_in_ball(CTX7, 0, 3))
    assert len(got) == 8
    assert got[0] == 0
    assert all(w == 0 or w.bit_count() == 3 for w in got)


def test_codewords_in_ball_feasibility_guard():
    with pytest.raises(ValueError, match="exceeds feasible bound"):
        list(codewords_in_ball(CTX7, 0, 3, max_cost=10))


def test_ball_enumeration_matches_filter_oracle():
    rng = random.Random(9)
    for d in (5, 8, 10, 12):
        ctx = build_context(d)
        words = set(enumerate_code(ctx))
        for _ in range(8):
            u = rng.randrange(1 << d)
            for radius in (0, 1, 2, 3, 5):
                expected = sorted(
                    w for w in words if hamming_distance(u, w) <= radius
                )
                assert sorted(codewords_in_ball(ctx, u, radius)) == expected
                assert sorted(codewords_near(ctx, u, radius)) == expected


def test_phi_table_matches_scalar_phi():
    for d in (4, 7, 10):
        ctx = build_context(d)
        table = phi_table(ctx)
        assert len(table) == 1 << d
        for u in range(0, 1 << d, 7):
            assert int(table[u]) == phi(ctx, u)
        assert not table.flags.writeable


def test_code_array_matches_enumeration():
    for d in range(3, 17):
        ctx = build_context(d)
        arr = ctx._codeword_array
        assert arr.dtype == np.uint32
        assert not arr.flags.writeable
        assert arr.tolist() == sorted(enumerate_code(ctx))


def test_code_array_lifts_the_explicit_cap():
    ctx = build_context(23)
    with pytest.raises(ValueError, match="explicit-mode cap"):
        next(enumerate_code(ctx))
    arr = ctx._codeword_array
    assert len(arr) == code_size(ctx) == 1 << 18
    assert (np.diff(arr.astype(np.int64)) > 0).all()
    rng = random.Random(23)
    assert all(in_code(ctx, int(w)) for w in rng.sample(arr.tolist(), 200))


@pytest.mark.parametrize("d", [14, 16, 18])
def test_codewords_near_matches_brute_force(d):
    # These radii used to take the recursive path; the filter must agree.
    ctx = build_context(d)
    words = np.array(list(enumerate_code(ctx)), dtype=np.int64)
    rng = random.Random(d)
    points = [rng.randrange(1 << d) for _ in range(3)] + [int(words[rng.randrange(len(words))])]
    for u in points:
        dist = np.array([(int(w) ^ u).bit_count() for w in words])
        for radius in (0, 2, 4, 6, 10, 14):
            expected = sorted(words[dist <= radius].tolist())
            assert codewords_near(ctx, u, radius) == expected


def test_codewords_near_without_an_array():
    ctx = build_context(26)
    rng = random.Random(26)
    for _ in range(5):
        u = rng.randrange(1 << 26)
        for radius in range(4):
            expected = sorted(codewords_in_ball(ctx, u, radius))
            assert codewords_near(ctx, u, radius) == expected
            assert all(in_code(ctx, w) for w in expected)
    assert "_codeword_array" not in vars(ctx)


def test_codewords_near_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        codewords_near(CTX7, 0, -1)
