import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefactors.gf2 import Subspace, decompose, span_basis


def brute_span(vectors, width):
    seen = {0}
    for _ in range(width + 1):
        seen |= {a ^ v for a in seen for v in vectors}
    return seen


def test_span_empty_is_zero_subspace():
    s = span_basis([], 3)
    assert s.dim == 0
    assert s.contains(0)
    assert not s.contains(1)


def test_span_drops_dependent_vector():
    s = span_basis([0b001, 0b010, 0b011], 3)
    assert s.dim == 2
    assert s.spanning_input == (0b001, 0b010)


def test_span_full_rank():
    s = span_basis([0b001, 0b010, 0b111], 3)
    assert s.dim == 3


def test_span_rejects_wide_vector():
    with pytest.raises(ValueError):
        span_basis([0b1000], 3)


def test_membership_matches_brute_force():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randrange(1, 7)
        vecs = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(0, 5))]
        s = span_basis(vecs, k)
        expected = brute_span(vecs, k)
        got = set(s.elements())
        assert got == expected
        for v in range(1 << k):
            assert s.contains(v) == (v in expected)


def test_elements_refuses_huge_span():
    s = Subspace(32, tuple(1 << i for i in range(32)), ())
    with pytest.raises(ValueError):
        list(s.elements())


def test_decompose_full_space():
    dec = decompose(span_basis([1, 2, 4], 3))
    assert dec.complement.dim == 0
    assert dec.label_width == 0
    assert all(dec.coset_label(x) == 0 for x in range(8))


def test_decompose_zero_space():
    dec = decompose(span_basis([], 3))
    assert dec.complement.dim == 3
    # complement basis is the unit vectors, so labels are the vectors themselves
    assert all(dec.coset_label(x) == x for x in range(8))


def test_decompose_example_k3():
    dec = decompose(span_basis([0b001, 0b010], 3))
    assert dec.ell == 2
    assert dec.coset_label(0b111) == dec.coset_label(0b101)
    labels = {dec.coset_label(x) for x in range(8)}
    assert len(labels) == 2
    assert {dec.coset_label(x) for x in (0b100, 0b101, 0b110, 0b111)} == labels - {0}
    assert all(dec.coset_label(w) == 0 for w in (0, 1, 2, 3))


def test_projections_split_vectors():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(1, 7)
        vecs = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(0, 4))]
        dec = decompose(span_basis(vecs, k))
        for x in range(1 << k):
            w = dec.proj_subspace(x)
            c = dec.proj_complement(x)
            assert w ^ c == x
            assert dec.subspace.contains(w)
            assert dec.complement.contains(c)


def test_coset_rep_round_trip():
    dec = decompose(span_basis([0b0011, 0b0101], 4))
    for label in range(1 << dec.label_width):
        rep = dec.coset_rep(label)
        assert dec.coset_label(rep) == label


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(k, raw, _rng):
    vecs = [v & ((1 << k) - 1) for v in raw]
    dec = decompose(span_basis(vecs, k))
    assert dec.subspace.dim + dec.complement.dim == k


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=63), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_coset_label_constant_on_cosets(k, raw):
    vecs = [v & ((1 << k) - 1) for v in raw]
    dec = decompose(span_basis(vecs, k))
    members = list(dec.subspace.elements())
    for x in range(1 << k):
        for w in members:
            assert dec.coset_label(x ^ w) == dec.coset_label(x)


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=63), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_label_count_is_two_to_k_minus_ell(k, raw):
    vecs = [v & ((1 << k) - 1) for v in raw]
    dec = decompose(span_basis(vecs, k))
    labels = {dec.coset_label(x) for x in range(1 << k)}
    assert len(labels) == 1 << (k - dec.ell)


# sha256 of (complement basis, every coset label) for seeded subspaces, as the
# two-elimination decompose computed them; tf's parity signatures are built
# from these labels.
GOLDEN_LABELS = "b508fd8495e82be3bf896e8b492a5fd30b366d813f1b86dc64b7a66d61269c10"


def test_complements_and_labels_are_pinned():
    rng = random.Random(12)
    rows = []
    for _ in range(400):
        k = rng.randrange(1, 9)
        vecs = [rng.randrange(1 << k) for _ in range(rng.randrange(0, k + 2))]
        dec = decompose(span_basis(vecs, k))
        rows.append([list(dec.complement.basis), [dec.coset_label(x) for x in range(1 << k)]])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_LABELS


def _greedy_unit_extension(sub):
    """Unit vectors, lowest index first, each kept when it enlarges the span."""
    vecs = list(sub.basis)
    chosen = []
    for i in range(sub.width):
        if not span_basis(vecs, sub.width).contains(1 << i):
            vecs.append(1 << i)
            chosen.append(1 << i)
    return tuple(chosen)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_complement_is_the_greedy_unit_extension(k, raw):
    vecs = [v & ((1 << k) - 1) for v in raw]
    dec = decompose(span_basis(vecs, k))
    assert dec.complement.basis == _greedy_unit_extension(dec.subspace)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=100, deadline=None)
def test_coset_label_is_linear(k, raw, x, y):
    mask = (1 << k) - 1
    dec = decompose(span_basis([v & mask for v in raw], k))
    x, y = x & mask, y & mask
    assert dec.coset_label(x ^ y) == dec.coset_label(x) ^ dec.coset_label(y)
