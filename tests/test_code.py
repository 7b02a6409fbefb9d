import hashlib
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubefactors.code as code_mod
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
    # C(40, <= 9) = 3.7e8 nodes is within the bound and C(40, <= 10) = 1.2e9
    # is past it.  The call itself raises: no node is enumerated first.
    ctx = build_context(40)
    codewords_in_ball(ctx, 0, 9)
    for radius in (10, 14):
        with pytest.raises(ValueError, match=f"radius {radius} exceeds feasible bound at d=40"):
            codewords_in_ball(ctx, 0, radius)


@pytest.mark.parametrize("u", [-1, 1 << 7, 1 << 9])
@pytest.mark.parametrize("entry", [phi, in_code, adjacent_codeword])
def test_vertices_outside_the_cube_are_refused(entry, u):
    with pytest.raises(ValueError, match=f"vertex {u} does not fit in d=7 bits"):
        entry(CTX7, u)


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


@pytest.mark.parametrize("d", range(18, 26))
def test_codewords_near_takes_either_path_with_the_same_words(d):
    # Small radii enumerate the ball and larger ones scan the array; both
    # sides of the crossover must return the ball's words in order.
    ctx = build_context(d)
    takes_ball = [
        code_mod._ball_cost(d, radius - 1) * code_mod._NODE_WORDS < code_size(ctx)
        for radius in range(7)
    ]
    assert any(takes_ball) and not all(takes_ball)
    rng = random.Random(d)
    words = ctx._codeword_array
    for u in (rng.randrange(1 << d), int(words[rng.randrange(len(words))])):
        for radius in range(7):
            assert codewords_near(ctx, u, radius) == sorted(codewords_in_ball(ctx, u, radius))


@pytest.mark.parametrize("path", ["array", "ball"])
def test_codewords_near_refuses_a_vertex_outside_the_cube(monkeypatch, path):
    # Both paths refuse as phi does: the array path would otherwise match a
    # vertex past d bits against the codewords, or overflow uint32.
    ctx = build_context(10)
    if path == "ball":
        monkeypatch.setattr(code_mod, "_MATERIALIZE_LIMIT", 0)
    assert codewords_near(ctx, 0, 3) == sorted(codewords_in_ball(ctx, 0, 3))
    for u in (-1, 1 << 10, 1 << 12, 1 << 40):
        with pytest.raises(ValueError, match=f"^vertex {u} does not fit in d=10 bits$"):
            codewords_near(ctx, u, 3)


def test_codewords_near_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        codewords_near(CTX7, 0, -1)


# sha256 of the codeword array and of phi_table, as the per-coordinate loops
# built them before both were built as XOR tables.
GOLDEN_CODEWORDS = {
    7: "56b4a5857b8cbe9eba509378f0d570eb8c7ad19a0d440510ea162bfa7695a2e7",
    8: "3b9317c832598d2ca8b4b7eb580cdf4abc9589e0974d94f3e92ace8c2c453a3b",
    9: "edb3079fe9a16d9b4d88334988f68c4aa9c3e7ca11ff7895042073b910923b71",
    10: "845dd3d7886165d4a0b34b0669b78caa0742a9851a501343bc09f24c619b45cb",
    11: "7807ea8b8b61e336377251b6895d53326ceaf4de10905cd5fe7525b90e4b275b",
    12: "43686ee69cbb83be6d6302008153b1001f1dc63c4109b56b4efb1cfcf966b009",
    13: "d9c23a33a907da793c97f0e48b164874579697315e92de4db47f8cca05a191e6",
    14: "5948eb686df17fb22f98012c273941d0ca0876a2e6622cad106fe853e8fd948e",
    15: "b609c87520159e58311d7c599fa40bdfcd28f5a8892c493827a6813b85352cb3",
    16: "e27873c5662606d272bd1f98a8005abafa84e13a34252096486a580c85f6fe80",
    17: "f633fddc3d924ecdf3aceed583896a72df8837f23cd9fe84565ef74d3743442d",
    18: "684fe6e36587e3d90769b4afd9e8908fdd118b8e8c2d63168d24cef1f1cb9ce0",
    19: "67e194a666735ebaf7a05ff52a2b1ec8c12194631deff084f80c6e21ac0c3a44",
    20: "dcd6c2cebc76b39dcf97225e25be5853edd46509bbc844e5e949b96b7ed65b93",
    21: "8e2d714dc3f31115df26afb8b75cd89c0c0294799ec90988e330c1f10bc5650f",
    22: "6cfa4afdbd22ba07b6a3723e60d62a38ec1d35dddbbe190b4c13a73f01865b29",
    23: "f341bd7993a8b9f3a216d0ec8bdc758bb3c658c7266f3aa54d7ddbb6e0888309",
    24: "3dd72f327adb81bd01d54cdb432e6718dcc397d2ccf152eefb8c8b04d58e0884",
    25: "089d5c657b1697c46341d45e9cc48c126d54692cc974e580d369ad22be094737",
    26: "ec1e348b830262c7c5b3469e1d5418538a8e8c85e2a90b1863ee1d36b48b14f9",
}
GOLDEN_PHI = {
    7: "e86baafa2bd0812e7326f6c8d0a91f08c6589ad96b17b13c4073704cc5c00353",
    8: "e304de097f592711e202f3421c2f70a1e7bb3f329c78d9e8f0d6688907c0e402",
    9: "bbf893e507913a8c6fcc27873a5a1ff1b07226fa0c84fa00bd8604c90c0ada36",
    10: "76b6a755a6f71b288046ffed3648f9b4c829d1ad6303b02c12c4fe341c073c8c",
    11: "59c80c706b304a069c301605280fec5e3b6fba5911b08f91f9e8049ea9143f15",
    12: "718aaf436af23e40f0ee3fe7cc68ac63faebafcec18d792c86b205d9f0b43e52",
    13: "04a44ffa172805ade1bb2f68ba2e2b864a72f3d343630da6ec60c0176820bdb1",
    14: "4e9d751efd0649a1452878e6fad9b845c340a58ea2ef0981512af36c8e739106",
    15: "fa01096cb33c1e53680d2d56b9d4103227f36096f358bfff61a522aeb611518e",
    16: "5c7d39d48de2f6fe162bd88dd1d61d8c3dbe851a79365cbe1c2733803a7abff4",
}


def test_code_tables_are_pinned():
    for d, digest in GOLDEN_CODEWORDS.items():
        words = build_context(d)._codeword_array
        assert hashlib.sha256(words.tobytes()).hexdigest() == digest, d
    for d, digest in GOLDEN_PHI.items():
        table = phi_table(build_context(d))
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest, d
