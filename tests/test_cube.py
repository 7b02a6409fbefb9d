import random
from functools import reduce
from math import comb
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactors.cube import (
    _binary_values,
    _xor_table,
    ball,
    basis_vertex,
    check_explicit,
    direction_mask,
    edge_at,
    explicit_cap,
    flip,
    hamming_distance,
    make_space,
    parse_vertex,
    small_cube_id,
    vertex_text,
    vertices,
)

SPACE7 = make_space(range(1, 8))


def test_make_space_sorts_and_indexes():
    sp = make_space([5, 1, 3])
    assert sp.directions == (1, 3, 5)
    assert sp.index == {1: 0, 3: 1, 5: 2}
    assert sp.n_vertices == 8


def test_space_rejects_duplicates_and_zero():
    with pytest.raises(ValueError):
        make_space([1, 1, 2])
    with pytest.raises(ValueError):
        make_space([0, 1, 2])


def test_basis_vertex():
    assert basis_vertex(SPACE7, 1) == 0b0000001
    assert basis_vertex(SPACE7, 3) == 0b0000100
    seen = {basis_vertex(SPACE7, x) for x in SPACE7.directions}
    assert len(seen) == 7
    with pytest.raises(ValueError, match="direction 9 not in X"):
        basis_vertex(SPACE7, 9)


def test_flip_is_involution_at_distance_one():
    for u in (0, 0b1010101, 0b1111111):
        for x in SPACE7.directions:
            v = flip(SPACE7, u, x)
            assert hamming_distance(u, v) == 1
            assert flip(SPACE7, v, x) == u
    assert flip(SPACE7, 0, 3) == 0b0000100


def test_hamming_distance():
    assert hamming_distance(5, 5) == 0
    assert hamming_distance(0b1010101, 0b0101010) == 7


@given(
    st.integers(min_value=2, max_value=16),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_flip_commutes(d, data):
    sp = make_space(range(1, d + 1))
    u = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    x = data.draw(st.sampled_from(sp.directions))
    y = data.draw(st.sampled_from(sp.directions))
    if x != y:
        assert flip(sp, flip(sp, u, x), y) == flip(sp, flip(sp, u, y), x)


def test_small_cube_id_extremes():
    assert {small_cube_id(SPACE7, u, SPACE7.directions) for u in range(128)} == {0}
    assert len({small_cube_id(SPACE7, u, []) for u in range(128)}) == 128


def test_small_cube_id_counts():
    ids = {small_cube_id(SPACE7, u, (1, 2, 3)) for u in range(128)}
    assert len(ids) == 16


def test_small_cube_id_constant_on_subcubes():
    import random

    rng = random.Random(3)
    for d in (4, 6, 8, 10):
        sp = make_space(range(1, d + 1))
        dirs = tuple(sorted(rng.sample(range(1, d + 1), rng.randrange(1, d + 1))))
        mask = direction_mask(sp, dirs)
        groups = {}
        for u in vertices(sp):
            groups.setdefault(small_cube_id(sp, u, dirs), []).append(u)
        assert len(groups) == 1 << (d - len(dirs))
        for cube_id, members in groups.items():
            assert cube_id & mask == 0
            assert len(members) == 1 << len(dirs)
            assert all(v & ~mask == cube_id for v in members)


def test_ball_sizes():
    assert list(ball(SPACE7, 5, 0)) == [5]
    assert len(list(ball(SPACE7, 0, 1))) == 8
    got = list(ball(SPACE7, 0b1100, 2))
    assert len(got) == 29
    assert len(set(got)) == 29
    assert all(hamming_distance(0b1100, v) <= 2 for v in got)


def test_ball_matches_binomial_sum():
    for d in (5, 9, 16):
        sp = make_space(range(1, d + 1))
        for radius in range(5):
            expected = sum(comb(d, i) for i in range(radius + 1))
            assert len(list(ball(sp, 0, radius))) == expected


def test_vertex_text_round_trip():
    # index 0 is the rightmost digit, as in conventional binary
    assert vertex_text(SPACE7, 1 << 2) == "0000100"
    assert vertex_text(SPACE7, 1) == "0000001"
    assert parse_vertex(SPACE7, "0000100") == 1 << 2
    for u in (0, 1, 127, 0b1010101):
        assert parse_vertex(SPACE7, vertex_text(SPACE7, u)) == u
    with pytest.raises(ValueError):
        parse_vertex(SPACE7, "0101")
    with pytest.raises(ValueError):
        vertex_text(SPACE7, 1 << 7)


def test_edge_canonical_form():
    e1 = edge_at(SPACE7, 0b0000000, 2)
    e2 = edge_at(SPACE7, 0b0000010, 2)
    assert e1 == e2
    assert e1.lo == 0
    assert e1.endpoints(SPACE7) == (0, 2)


def test_explicit_cap_env_override(monkeypatch):
    monkeypatch.setenv("CUBEFACTORS_MAX_EXPLICIT_D", "8")
    assert explicit_cap() == 8
    with pytest.raises(ValueError, match="exceeds the explicit-mode cap"):
        check_explicit(9)
    check_explicit(8)
    monkeypatch.delenv("CUBEFACTORS_MAX_EXPLICIT_D")
    assert explicit_cap() == 22


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=12))
def test_xor_table_xors_the_images_of_the_set_bits(images):
    table = _xor_table(images)
    assert table.dtype == np.uint32
    assert table.tolist() == [
        reduce(xor, (x for i, x in enumerate(images) if u >> i & 1), 0)
        for u in range(1 << len(images))
    ]


def test_binary_values_read_up_to_32_digits():
    rng = random.Random(32)
    for d in range(1, 33):
        texts = ["0" * d, "1" * d] + [format(rng.getrandbits(d), f"0{d}b") for _ in range(50)]
        digits = np.frombuffer("".join(texts).encode(), np.uint8).reshape(len(texts), d)
        values = _binary_values(digits)
        assert values.dtype == np.uint32
        assert values.tolist() == [int(s, 2) for s in texts], d
