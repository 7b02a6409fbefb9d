import gc
import random
import weakref
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubefactors.analyze as analyze_mod
import cubefactors.construct as construct_mod
from cubefactors.code import build_context, code_size, enumerate_code, in_code
from cubefactors.construct import (
    KINDS,
    ConstructionParams,
    Factorisation,
    OverlapError,
    RandomTape,
    SwapPlan,
    apply_explicit,
    build_explicit,
    build_factorisation,
    directional,
    implicit_factorisation,
    random_greedy_factorisation,
    touched_edge_count,
)
from cubefactors.cube import Edge, direction_mask, edge_at
from cubefactors.analyze import (
    _CosetView,
    _Union,
    _labels,
    _merge,
    _signature_bits,
    _one_component_per_key,
    RResult,
    ValidationReport,
    bfs_components,
    closed_cosets,
    code_intersection,
    code_intersections,
    connectivity_profile,
    decomposition_of,
    in_closed_coset,
    is_connected,
    min_connecting_prefix,
    psi_criterion,
    rmin,
    settled_prefixes,
    small_cube_connectivity,
    tf_class_sizes,
    tf_connectivity,
    tf_context,
    tf_label,
    union_components,
    untouched_parallel_paths,
    untouched_path_histogram,
    validate,
)
from factor_files import count_label_misses

CTX7 = build_context(7)
FAC7 = directional(CTX7)
SCALED = ConstructionParams(pg=0.05, rg=6, rh=4, cube_dim=6)
SWAPPING = ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4)


def _crafted_square(ctx, u, p, q):
    """The directional factorisation with the one square at u across the
    directions labelled p and q swapped."""
    row = (u, ctx.space.index[p], ctx.space.index[q])
    plan = SwapPlan(ctx, ConstructionParams(), 0, (), (), (u,), [row], (), 1)
    return apply_explicit(ctx, plan)


def _crafted(axes):
    """The factorisation with this axis array, one row per factor."""
    return Factorisation(build_context(len(axes)), "crafted", "explicit", axes)


_directional_axes = construct_mod._directional_axes


def _bfs_labels(tables):
    """Smallest vertex of each vertex's component in the union of the partner tables."""
    n = len(tables[0])
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for pt in tables:
                v = int(pt[u])
                if label[v] < 0:
                    label[v] = start
                    stack.append(v)
    return label


# -- validity ------------------------------------------------------------------


def test_validate_accepts_valid_factorisations():
    assert validate(FAC7).ok
    assert validate(random_greedy_factorisation(build_context(4), RandomTape(2))).ok
    assert validate(build_explicit(build_context(10), SCALED, RandomTape(13))).ok


def test_validate_detects_broken_involution():
    axes = _directional_axes(3)
    axes[0, 1] = 1  # vertex 1 leaves factor 1's edge 0-1 for the edge 1-3
    rep = validate(_crafted(axes))
    assert not rep.ok
    assert (rep.vertex, rep.factor) == (0, 1)
    assert rep.message == "factor is not an involution"


def test_validate_detects_double_assignment():
    axes = _directional_axes(3)
    axes[1] = axes[0]
    rep = validate(_crafted(axes))
    assert not rep.ok
    assert (rep.vertex, rep.factor) == (0, 2)
    assert rep.message == "edge already assigned to factor 1"


def test_validate_detects_fixed_point():
    # A factor unmatched at every vertex (the old 255 fill) is refused when
    # its factorisation is made, so validate never meets a fixed point.
    axes = _directional_axes(3)
    axes[2] = 255
    with pytest.raises(ValueError, match="^slot of direction 3 at vertex 000 names axis 255, "):
        _crafted(axes)


def test_validate_reports_slot_values_that_name_no_axis():
    # d..255 name no axis of the cube: an axis array holding one is refused
    # when its factorisation is made, so validate never sees one.
    for value in range(3, 256):
        axes = _directional_axes(3)
        axes[1, 5] = value
        with pytest.raises(ValueError, match=f"^slot of direction 2 at vertex 101 names axis {value}, "):
            _crafted(axes)
        axes = np.full((3, 8), value, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^slot of direction 1 at vertex 000 names axis {value}, "):
            _crafted(axes)


def _locate_violation(fac):
    """The per-slot scan that validate replaced, kept as an oracle.

    It reads the partner rows that ``table`` derives.
    """
    d, n = fac.d, 1 << fac.d
    owner = {}
    for x in fac.directions:
        pt = fac.table(x)
        for u in range(n):
            v = int(pt[u])
            if int(pt[v]) != u:
                return ValidationReport(False, u, x, "factor is not an involution")
            if u < v:
                key = (u, (u ^ v).bit_length() - 1)
                if key in owner:
                    return ValidationReport(
                        False, u, x, f"edge already assigned to factor {owner[key]}"
                    )
                owner[key] = x
    for u in range(n):
        for i in range(d):
            if not u >> i & 1 and (u, i) not in owner:
                return ValidationReport(
                    False, u, fac.directions[i], "edge assigned to no factor"
                )
    return ValidationReport(True)


# Corruptions of an axis array a, one row per factor.


def _overwrite_slot(a, rng):
    a[rng.randrange(len(a)), rng.randrange(a.shape[1])] = rng.randrange(len(a))


def _move_edge(a, rng):
    # Edge u-v leaves row r, whose ends there go back to r's own axis, and
    # joins row s, which pairs the two ends it displaced across the edge's axis.
    r, s = rng.sample(range(len(a)), 2)
    u = rng.randrange(a.shape[1])
    e = int(a[r, u])
    v = u ^ 1 << e
    us, vs = u ^ 1 << int(a[s, u]), v ^ 1 << int(a[s, v])
    a[r, u] = a[r, v] = r
    a[s, us] = a[s, vs] = e
    a[s, u] = a[s, v] = e


def _half_square_switch(a, rng):
    # Rows r and s alternate around a square; r takes s's two edges of it and
    # keeps matching onto neighbours, so those edges sit in both rows.
    d = len(a)
    while True:
        u, r = rng.randrange(a.shape[1]), rng.randrange(d)
        i, j = int(a[r, u]), rng.randrange(d)
        s = int(np.flatnonzero(a[:, u] == j)[0])
        if i != j and a[r, u ^ 1 << j] == i and a[s, u ^ 1 << i] == j:
            break
    for w in (u, u ^ 1 << i):
        a[r, w] = a[r, w ^ 1 << j] = j


def _duplicate_row(a, rng):
    r, s = rng.sample(range(len(a)), 2)
    a[s] = a[r]


def _random_writes(a, rng):
    for _ in range(rng.randrange(2, 6)):
        _overwrite_slot(a, rng)


# Two corruptions aimed at validate's candidates outside the moved slots.
# Each returns False, changing nothing, where the source has no place for it.


def _move_beside_own_slot(a, rng):
    # The partner w = u + e_r of an own-axis slot u of row r moves to another
    # axis.  Only row r changes, at w, so the first fault is u's involution,
    # and u is taken with every slot on its own axis where there is one.
    d, n = a.shape
    r = rng.randrange(d)
    low = np.arange(n) >> r & 1 == 0
    for where in ((a == np.arange(d)[:, None]).all(axis=0), a[r] == r):
        us = np.flatnonzero(where & low)
        if us.size:
            u = int(us[rng.randrange(us.size)])
            a[r, u ^ 1 << r] = rng.choice([x for x in range(d) if x != r])
            return True
    return False


def _own_axis_to_earlier_moved_pair(a, rng):
    # Row j trades two parallel moved edges (u, u + e_y), (u + e_i, u + e_i + e_y)
    # for the square's two i-edges, so it stays a matching; axis i, which a
    # later row (its own, in a sparse source) holds at u, is there twice.
    d = len(a)
    rows, vertices = np.nonzero(a != np.arange(d)[:, None])
    for _ in range(1000 if rows.size else 0):
        t = rng.randrange(rows.size)
        j, u = int(rows[t]), int(vertices[t])
        y, i = int(a[j, u]), rng.randrange(d)
        if i != y and a[j, u ^ 1 << i] == y and np.flatnonzero(a[:, u] == i)[0] > j:
            for w in (u, u ^ 1 << y):
                a[j, w] = a[j, w ^ 1 << i] = i
            return True
    return False


def _check_against_oracle(d):
    ctx = build_context(d)
    sources = [
        directional(ctx),
        random_greedy_factorisation(ctx, RandomTape(d)),
        build_explicit(ctx, SCALED, RandomTape(13)),
        # Every slot off its own axis.
        _crafted(np.roll(_directional_axes(d), 1, axis=0)),
    ]
    if d == 12:
        sources.append(build_explicit(ctx, SWAPPING, RandomTape(0)))
        assert touched_edge_count(sources[-1]) > 0
    assert touched_edge_count(sources[2]) > 0
    corruptions = [
        _overwrite_slot, _move_edge, _half_square_switch,
        _duplicate_row, _random_writes, _move_beside_own_slot,
        _own_axis_to_earlier_moved_pair,
    ]
    rng = random.Random(d)
    messages = set()
    applied = set()
    for fac in sources:
        assert validate(fac).ok
        for corrupt in corruptions:
            for _ in range(4):
                axes = fac.axes.copy()
                if corrupt(axes, rng) is False:
                    continue
                applied.add(corrupt)
                crafted = _crafted(axes)
                rep = validate(crafted)
                assert rep == _locate_violation(crafted), corrupt.__name__
                messages.add(rep.message.split(" factor ")[0])
    assert applied == set(corruptions)
    assert messages >= {
        "factor is not an involution",
        "edge already assigned to",
    }


@pytest.mark.parametrize("d", [7, 10, 12])
def test_validate_matches_per_slot_oracle(d):
    _check_against_oracle(d)


def test_validate_matches_per_slot_oracle_in_small_blocks(monkeypatch):
    # A d = 10 cube has several 64-vertex blocks of moved-slot vertices.
    monkeypatch.setattr(analyze_mod, "_BLOCK", 64)
    _check_against_oracle(10)


def test_validate_finds_the_own_axis_slot_beside_a_moved_one():
    # Every slot of vertex 0 stays on its own axis, yet row 2 breaks there.
    axes = _directional_axes(7)
    axes[2, 4] = 5
    assert validate(_crafted(axes)) == ValidationReport(
        False, 0, 3, "factor is not an involution"
    )


def test_validate_finds_an_axis_an_earlier_moved_slot_took():
    # Row 0 (factor 1) pairs the square 0, 1, 4, 5 across axis 2 instead of
    # axis 0.  It stays a matching, and row 2 holds axis 2 there once more.
    axes = _directional_axes(7)
    axes[0, [0, 1, 4, 5]] = 2
    assert validate(_crafted(axes)) == ValidationReport(
        False, 0, 3, "edge already assigned to factor 1"
    )


@pytest.mark.parametrize("block", [1, analyze_mod._BLOCK])
def test_validate_finds_an_own_axis_fault_beside_a_consistent_vertex(monkeypatch, block):
    # Row 2 (factor 3) pairs 0-1 and 4-5 across axis 0 and row 0 (factor 1)
    # pairs 1-5 across axis 2.  Vertices 1 and 5 are consistent, so their
    # blocks pass when each vertex is a block; vertex 0 keeps axis 0 in row 0
    # beside the moved slot at 1, which is the first fault.
    monkeypatch.setattr(analyze_mod, "_BLOCK", block)
    axes = _directional_axes(7)
    axes[2, [0, 1, 4, 5]] = 0
    axes[0, [1, 5]] = 2
    want = ValidationReport(False, 0, 1, "factor is not an involution")
    assert _locate_violation(_crafted(axes)) == want
    assert validate(_crafted(axes)) == want


def test_subset_spec_validation():
    with pytest.raises(ValueError, match="nonempty"):
        union_components(FAC7, [])
    with pytest.raises(ValueError, match="direction 9 not in X"):
        union_components(FAC7, [9])
    rep = union_components(FAC7, (2, 1, 2))
    assert rep.count == 32


# -- components ------------------------------------------------------------------


def test_directional_unions_split_into_subcubes():
    dirs = CTX7.space.directions
    for r in range(1, 8):
        rep = union_components(FAC7, dirs[:r])
        assert rep.count == 1 << (7 - r)
        assert all(s == 1 << r for s in rep.sizes)


def test_directional_unions_exhaustive_d4():
    ctx = build_context(4)
    fac = directional(ctx)
    for r in range(1, 5):
        for sub in combinations(ctx.space.directions, r):
            rep = union_components(fac, sub)
            assert rep.count == 1 << (4 - r)
            assert all(s == 1 << r for s in rep.sizes)


def test_directional_unions_large_dims():
    # one sampled subset per size keeps d = 11, 12 affordable
    rng = random.Random(5)
    for d in (11, 12):
        ctx = build_context(d)
        fac = directional(ctx)
        for r in range(1, d + 1):
            sub = rng.sample(ctx.space.directions, r)
            rep = union_components(fac, sub)
            assert rep.count == 1 << (d - r)
            assert all(s == 1 << r for s in rep.sizes)


def test_bfs_oracle_matches_union_components():
    cases = []
    fac5 = directional(build_context(5))
    cases += [(fac5, sub) for sub in ([1], [1, 2], [2, 4, 7], [1, 2, 3, 4, 7])]
    g4 = random_greedy_factorisation(build_context(4), RandomTape(1))
    cases += [(g4, sub) for sub in ([1, 2], [2, 4, 7], [1, 2, 4, 7])]
    sq = _crafted_square(CTX7, 0, 1, 2)
    cases += [(sq, sub) for sub in ([1, 2], [1, 3], [2, 3, 4])]
    big = build_explicit(build_context(10), SCALED, RandomTape(13))
    cases += [(big, sub) for sub in ([1, 2, 3], [2, 7, 13], list(big.directions))]
    for fac, sub in cases:
        a = union_components(fac, sub)
        b = bfs_components(fac, sub)
        assert a.count == b.count
        assert a.sizes == b.sizes


def test_square_swap_preserves_pair_union():
    # the swapped square keeps the same four edges, only their factors change
    sq = _crafted_square(CTX7, 0, 1, 2)
    assert union_components(sq, [1, 2]).sizes == union_components(FAC7, [1, 2]).sizes


# -- small cubes -------------------------------------------------------------------


def test_small_cube_connectivity_directional():
    got = small_cube_connectivity(FAC7, [1, 2, 3])
    assert len(got) == 1 << 4
    assert all(got.values())
    mask = direction_mask(CTX7.space, (1, 2, 3))
    assert set(got) == {u & ~mask for u in range(1 << 7)}


def test_small_cube_connectivity_matches_bfs():
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    dirs = (1, 2, 3)
    got = small_cube_connectivity(fac, dirs)
    label = _bfs_labels([fac.table(x) for x in dirs])
    mask = direction_mask(fac.ctx.space, dirs)
    expect = {}
    for u in range(1 << 10):
        expect.setdefault(u & ~mask, set()).add(label[u])
    assert got == {i: len(s) == 1 for i, s in expect.items()}


# -- subset algebra ----------------------------------------------------------------


def test_decomposition_of_span():
    dec = decomposition_of(CTX7, [1, 2, 3])
    assert dec.subspace.dim == 2
    assert dec.label_width == 1
    assert set(dec.subspace.spanning_input) <= {1, 2, 3}
    assert dec.subspace.contains(3)
    full = decomposition_of(CTX7, CTX7.space.directions)
    assert full.subspace.dim == CTX7.k
    assert full.label_width == 0


def test_tf_context_masks():
    tfc = tf_context(CTX7, [1, 2, 3])
    assert tfc.masks == (0b1111000,)
    assert tfc.n_labels == 1
    # directions 4..7 sit in the one nonzero coset of span{1,2,3}
    assert tf_label(tfc, 0) == tf_label(tfc, 0b0000111)
    assert tf_label(tfc, 0b0001000).bits == 1
    assert tf_label(tfc, 0b0001000).psi == 1
    assert tf_label(tfc, 0b0011000).bits == 0


@pytest.mark.parametrize("d", [7, 8, 9, 10])
def test_signature_bits_match_tf_label_at_every_vertex(d):
    ctx = build_context(d)
    rng = random.Random(d)
    for _ in range(4):
        tfc = tf_context(ctx, rng.sample(ctx.space.directions, rng.randint(1, d)))
        assert _signature_bits(tfc).tolist() == [tf_label(tfc, u).bits for u in range(1 << d)]


def test_tf_label_constant_on_small_cubes():
    rng = random.Random(0)
    for _ in range(20):
        dirs = sorted(rng.sample(CTX7.space.directions, rng.randint(1, 6)))
        tfc = tf_context(CTX7, dirs)
        for _ in range(20):
            u = rng.randrange(1 << 7)
            w = u
            for x in dirs:
                if rng.random() < 0.5:
                    w ^= CTX7.space.bit_of(x)
            assert tf_label(tfc, u) == tf_label(tfc, w)


def test_tf_label_constant_exhaustive():
    # every vertex of every small cube, for a few fixed subsets
    for dirs in ([1, 2, 3], [2, 7], [1, 2, 3, 4, 7]):
        tfc = tf_context(CTX7, dirs)
        span = [0]
        for x in dirs:
            span += [w ^ CTX7.space.bit_of(x) for w in span]
        for u in range(1 << 7):
            base = tf_label(tfc, u)
            assert all(tf_label(tfc, u ^ s) == base for s in span)


def test_tf_class_sizes_example():
    assert tf_class_sizes(tf_context(CTX7, [1, 2, 3])) == {0: 64, 1: 64}


def test_tf_class_sizes_general_formula():
    # realised classes: one per pattern over the cosets that hold a direction
    rng = random.Random(1)
    cases = [(9, (3,)), (9, (1, 3)), (7, (1,)), (10, (2, 5, 8))]
    for _ in range(16):
        d = rng.choice([7, 9, 10, 12])
        ctx = build_context(d)
        dirs = tuple(sorted(rng.sample(ctx.space.directions, rng.randint(1, d))))
        cases.append((d, dirs))
    for d, dirs in cases:
        ctx = build_context(d)
        tfc = tf_context(ctx, dirs)
        nonempty = sum(1 for m in tfc.masks if m)
        sizes = tf_class_sizes(tfc)
        assert len(sizes) == 1 << nonempty
        assert set(sizes.values()) == {1 << (d - nonempty)}


def test_tf_class_sizes_all_even_subset_has_empty_cosets():
    # span{3} at d=9 misses the odd directions, so some cosets hold none
    ctx = build_context(9)
    tfc = tf_context(ctx, (3,))
    assert tfc.n_labels == 7
    assert sum(1 for m in tfc.masks if m) == 4
    sizes = tf_class_sizes(tfc)
    assert len(sizes) == 16
    assert set(sizes.values()) == {32}


def test_tf_class_sizes_with_odd_direction_fills_every_coset():
    # an odd-weight direction makes every coset active, giving the maximum
    for d, dirs in ((9, (1, 3)), (7, (1,)), (12, (5, 6))):
        ctx = build_context(d)
        tfc = tf_context(ctx, dirs)
        assert all(m for m in tfc.masks)
        ell = decomposition_of(ctx, dirs).subspace.dim
        n_classes = 1 << ((1 << (ctx.k - ell)) - 1)
        sizes = tf_class_sizes(tfc)
        assert len(sizes) == n_classes
        assert set(sizes.values()) == {(1 << d) // n_classes}


def test_tf_connectivity_directional():
    got = tf_connectivity(FAC7, [1, 2, 3])
    assert got == {0: False, 1: False}
    assert tf_connectivity(FAC7, CTX7.space.directions) == {0: True}


def test_tf_connectivity_matches_bfs():
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    assert touched_edge_count(fac) > 0
    for dirs in ((1, 2, 3), (1, 3, 4, 5), (2, 3, 5, 7, 8, 14), (1, 5, 8, 11, 13, 14)):
        got = tf_connectivity(fac, dirs)
        tfc = tf_context(fac.ctx, dirs)
        label = _bfs_labels([fac.table(x) for x in dirs])
        expect = {}
        for u in range(1 << 10):
            expect.setdefault(tf_label(tfc, u).bits, set()).add(label[u])
        assert got == {b: len(s) == 1 for b, s in expect.items()}


# -- code meets small cubes ---------------------------------------------------------


def test_code_intersections_spanning_subset():
    got = code_intersections(CTX7, [1, 2, 4])
    assert len(got) == 16
    assert set(got.values()) == {1}


def test_code_intersections_full_subset():
    got = code_intersections(CTX7, CTX7.space.directions)
    assert got == {0: code_size(CTX7)}


def test_code_intersections_match_scalar_and_psi():
    rng = random.Random(2)
    for d in (7, 9):
        ctx = build_context(d)
        for _ in range(10):
            dirs = tuple(sorted(rng.sample(ctx.space.directions, rng.randint(1, d))))
            ell = decomposition_of(ctx, dirs).subspace.dim
            expected_nonzero = 1 << (len(dirs) - ell)
            got = code_intersections(ctx, dirs)
            assert sum(got.values()) == code_size(ctx)
            for cube_id, count in got.items():
                assert count in (0, expected_nonzero)
                assert count == code_intersection(ctx, dirs, cube_id)
                assert (count > 0) == psi_criterion(ctx, dirs, cube_id)


def test_cube_id_validation():
    with pytest.raises(ValueError, match="zero on the subset"):
        code_intersection(CTX7, [1, 2], 0b0000001)
    with pytest.raises(ValueError, match="zero on the subset"):
        psi_criterion(CTX7, [1, 2], 1 << 7)
    assert psi_criterion(CTX7, CTX7.space.directions, 0)


# -- parallel paths ----------------------------------------------------------------


def _partner_parallel_paths(fac, e):
    """``untouched_parallel_paths`` as it was before it read the axis array:
    three ``partner`` queries per parallel path."""
    ctx = fac.ctx
    lo, hi = e.endpoints(ctx.space)
    if in_code(ctx, lo):
        u, v = lo, hi
    elif in_code(ctx, hi):
        u, v = hi, lo
    else:
        raise ValueError("edge has no endpoint in the code")
    y = e.direction
    count = 0
    for x in fac.directions:
        if x == y:
            continue
        bx = ctx.space.bit_of(x)
        if (
            fac.partner(u, x) == u ^ bx
            and fac.partner(u ^ bx, y) == v ^ bx
            and fac.partner(v, x) == v ^ bx
        ):
            count += 1
    return count


def _partner_path_histogram(fac):
    """``untouched_path_histogram`` as it was before it read the axis array:
    one ``_partner_parallel_paths`` per code-incident edge."""
    ctx = fac.ctx
    edges = [
        edge_at(ctx.space, w, y)
        for w in ctx._codeword_array.tolist()
        for y in fac.directions
    ]
    hist = Counter()
    for e in edges:
        hist[fac.d - 1 - _partner_parallel_paths(fac, e)] += 1
    return dict(sorted(hist.items()))


def _path_inputs(d):
    """The builds the parallel-path counts are checked on at d: swapping and
    all squares, seeds 0-2 (less any the construction refuses), directional,
    greedy, a crafted square at vertex 0, and at d = 7 the pg = 0.05 cube swap."""
    ctx = build_context(d)
    for name, params in (("swapping", SWAPPING), ("all-squares", ALL_SQUARES)):
        for seed in range(3):
            try:
                yield f"{name}-{seed}", build_explicit(ctx, params, RandomTape(seed))
            except OverlapError:
                pass
    yield "directional", directional(ctx)
    yield "greedy", random_greedy_factorisation(ctx, RandomTape(d))
    yield "crafted-square", _crafted_square(ctx, 0, *ctx.space.directions[:2])
    if d == 7:
        yield "cube-swap", build_explicit(ctx, ConstructionParams(pg=0.05), RandomTape(5))


@pytest.mark.parametrize("d", range(7, 13))
def test_path_counts_match_the_partner_queries(d):
    rng = random.Random(d)
    for name, fac in _path_inputs(d):
        hist = untouched_path_histogram(fac)
        assert hist == _partner_path_histogram(fac), name
        assert sum(hist.values()) == d * code_size(fac.ctx)
        words = fac.ctx._codeword_array.tolist()
        for w in rng.sample(words, min(len(words), 8)):
            for y in fac.directions:
                e = edge_at(fac.ctx.space, w, y)
                assert untouched_parallel_paths(fac, e) == _partner_parallel_paths(fac, e), name


def test_path_counts_read_unmatched_slots_as_disturbed():
    # Row 0 leaves its edge 0-1 unmatched, both ends naming axis 1 instead:
    # a slot off its own axis that no valid factorisation holds there.  Both
    # counts see it as the queries do: the six edges at codeword 0 off axis
    # 0 lose their path through axis 0.
    axes = _directional_axes(7)
    axes[0, 0] = axes[0, 1] = 1
    fac = _crafted(axes)
    assert not validate(fac).ok
    assert untouched_path_histogram(fac) == _partner_path_histogram(fac) == {0: 106, 1: 6}


def test_directional_paths_all_untouched():
    for w in (0, 0b0000111):
        for y in (1, 4, 7):
            assert untouched_parallel_paths(FAC7, edge_at(CTX7.space, w, y)) == 6
    assert untouched_path_histogram(FAC7) == {0: 112}


def test_paths_require_code_endpoint():
    with pytest.raises(ValueError, match="no endpoint in the code"):
        untouched_parallel_paths(FAC7, Edge(1, 2))


def test_paths_refuse_an_edge_outside_the_cube():
    for lo in (1 << 7, 1 << 20, -2):
        with pytest.raises(ValueError, match=f"vertex {lo} does not fit in d=7 bits"):
            untouched_parallel_paths(FAC7, Edge(lo, 1))


def test_square_swap_disturbs_nearby_parallel_paths():
    sq = _crafted_square(CTX7, 0, 1, 2)
    # edge {0,1}: only the x=2 path crosses rewritten slots
    assert untouched_parallel_paths(sq, edge_at(CTX7.space, 0, 1)) == 5
    # edge {0,64}: both the x=1 and x=2 paths start at rewritten slots
    assert untouched_parallel_paths(sq, edge_at(CTX7.space, 0, 7)) == 4


def test_cube_swap_path_histogram_frozen():
    # pg=0.05 at d=7 yields exactly one 6-cube swap for these seeds
    for seed in (5, 7, 9):
        fac = build_explicit(CTX7, ConstructionParams(pg=0.05), RandomTape(seed))
        hist = untouched_path_histogram(fac)
        assert hist == {1: 48, 5: 48, 6: 16}
        assert sum(hist.values()) == 7 * code_size(CTX7)
        assert max(hist) <= fac.params.cube_dim


# -- minimum connecting subset size ---------------------------------------------------


def _fold(tables):
    """Labels and roots of the union of each nonempty prefix of the
    matchings, each merged into the last by ``_merge``, from every vertex
    its own root."""
    comp = roots = None
    for pt in tables:
        if comp is None:
            comp = roots = np.arange(pt.size, dtype=np.uint32)
        comp, roots = _merge(comp, roots, pt)
        yield comp, roots


def _union(tables):
    """Labels and roots of the union of the matchings, by ``_fold``."""
    return list(_fold(tables))[-1]


def _brute_force_r(fac):
    """r(M) by listing the subsets of each size, smallest size first, each size
    stopping at its first disconnected union: the search ``rmin`` replaced,
    kept as its oracle."""
    for r in range(1, fac.d + 1):
        if all(
            _union(map(fac.table, dirs))[1].size == 1
            for dirs in combinations(fac.directions, r)
        ):
            return r
    raise AssertionError("full factor union must be connected")


@pytest.mark.parametrize("d", range(7, 11))
@pytest.mark.parametrize(
    "kind, params",
    [(kind, ConstructionParams()) for kind in KINDS] + [("construction", SWAPPING)],
    ids=[*KINDS, "swapping"],
)
def test_rmin_matches_brute_force_and_its_witness_holds(d, kind, params):
    ctx = build_context(d)
    built = 0
    for seed in (0,) if kind == "directional" else range(3):
        try:
            fac = build_factorisation(ctx, kind, params, RandomTape(seed))
        except OverlapError:
            continue
        built += 1
        res = rmin(fac)
        assert res.r == _brute_force_r(fac), seed
        assert res.r > 1 and len(res.witness) == res.r - 1
        # The witness is disconnected, res.vertex is the smallest vertex
        # outside vertex 0's component, and any one more factor connects it.
        assert bfs_components(fac, res.witness).count >= 2
        labels = _bfs_labels([fac.table(x) for x in res.witness])
        assert labels[res.vertex] != 0
        assert not any(labels[: res.vertex])
        for x in set(fac.directions) - set(res.witness):
            assert bfs_components(fac, (*res.witness, x)).count == 1, (seed, x)
    assert built


def test_r_of_directional_needs_all_factors():
    # The first path down the search is already a largest disconnected set;
    # every other branch is cut before it is labelled.
    for d in (3, 4, 5):
        fac = directional(build_context(d))
        assert rmin(fac) == RResult(d, fac.directions[:-1], 1 << (d - 1), d)


def test_r_of_greedy_frozen():
    ctx = build_context(4)
    got = [
        rmin(random_greedy_factorisation(ctx, RandomTape(s))).r for s in (7, 8, 9)
    ]
    assert got == [4, 4, 3]


def test_r_of_dimension_guard():
    assert rmin(directional(build_context(18))).r == 18
    fac = directional(build_context(21))
    with pytest.raises(ValueError, match="guarded to d <= 20"):
        rmin(fac)


def test_r_of_swapped_construction():
    # all d factors always connect, so r <= d; this seed needs only 7
    ctx = build_context(8)
    fac = build_explicit(ctx, SCALED, RandomTape(2))
    assert touched_edge_count(fac) == 64
    assert rmin(fac).r == 7


def test_r_of_supersets_stay_connected():
    # connectivity is monotone in the subset: every size >= r connects
    fac = random_greedy_factorisation(build_context(6), RandomTape(11))
    r = rmin(fac).r
    for size in range(r, 7):
        for sub in combinations(fac.directions, size):
            assert union_components(fac, sub).count == 1


def test_r_of_definition_spot_check():
    # r == 3: some 2-subset union is disconnected, every 3-subset connects
    ctx = build_context(4)
    fac = random_greedy_factorisation(ctx, RandomTape(9))
    assert rmin(fac).r == 3
    assert any(
        union_components(fac, sub).count > 1
        for sub in combinations(ctx.space.directions, 2)
    )
    assert all(
        union_components(fac, sub).count == 1
        for sub in combinations(ctx.space.directions, 3)
    )


def _carried_rmin(fac):
    """r(M) by the search ``rmin`` made before the coset rules: each node
    carries its union's labels and roots, so each child costs one
    ``_merge``, and the witness vertex is the best set's second root.  Kept
    as the oracle of the walk, the witness and the count."""
    tables = [fac.table(x) for x in fac.directions]
    best: tuple[int, ...] = ()
    vertex = None
    checked = 0

    def extend(chosen, comp, roots):
        nonlocal best, vertex, checked
        for j in range(chosen[-1] + 1 if chosen else 0, fac.d):
            if len(chosen) + fac.d - j <= len(best):
                return
            comp_j, roots_j = _merge(comp, roots, tables[j])
            checked += 1
            if roots_j.size > 1:
                if len(chosen) >= len(best):
                    best, vertex = (*chosen, j), int(roots_j[1])
                extend((*chosen, j), comp_j, roots_j)

    idx = fac.ctx._vertex_array
    extend((), idx, idx)
    if len(best) == fac.d:
        raise AssertionError("full factor union must be connected")
    witness = tuple(fac.directions[j] for j in best) if best else None
    return RResult(len(best) + 1, witness, vertex, checked)


ALL_SQUARES = ConstructionParams(pg=0, rg=6, rh=3, cube_dim=4)


def _oracle_inputs(d):
    """The builds the r search is checked on at d: swapping seeds 0-2 (less
    any the construction refuses), all squares, directional, greedy and the
    directional rows rotated by one."""
    ctx = build_context(d)
    for seed in range(3):
        try:
            yield f"swapping-{seed}", build_explicit(ctx, SWAPPING, RandomTape(seed))
        except OverlapError:
            pass
    yield "all-squares", _swapping(ctx, ALL_SQUARES, 0)
    yield "directional", directional(ctx)
    yield "greedy", random_greedy_factorisation(ctx, RandomTape(d))
    yield "rotated-rows", _crafted(np.roll(_directional_axes(d), 1, axis=0))


@pytest.mark.parametrize("d", range(8, 14))
def test_rmin_matches_the_carried_merge_search(d):
    for name, fac in _oracle_inputs(d):
        res = rmin(fac)
        assert res == _carried_rmin(fac), name
        # Every subset checked was settled by exactly one rule; the dense
        # builds never reach the coset rules.
        settled = settled_prefixes(fac)
        assert sum(settled.values()) == res.subsets_checked, name
        if name in ("greedy", "rotated-rows"):
            assert settled["fold"] == res.subsets_checked, name


def test_rmin_of_a_swapping_build_at_d14_is_pinned():
    fac = build_explicit(build_context(14), SWAPPING, RandomTape(0))
    res = rmin(fac)
    assert res == RResult(8, (1, 2, 3, 4, 6, 9, 13), 3728, 3449)
    assert res == _carried_rmin(fac)


# -- connectivity and prefixes -----------------------------------------------------


def test_is_connected_matches_bfs():
    rng = random.Random(3)
    swap = build_explicit(build_context(10), SCALED, RandomTape(13))
    assert touched_edge_count(swap) > 0
    facs = [
        directional(build_context(5)),
        random_greedy_factorisation(build_context(5), RandomTape(4)),
        random_greedy_factorisation(build_context(4), RandomTape(5)),
        _crafted_square(CTX7, 0, 3, 6),
        swap,
    ]
    for fac in facs:
        for _ in range(8):
            dirs = rng.sample(fac.directions, rng.randint(1, fac.d))
            assert is_connected(fac, dirs) == (bfs_components(fac, dirs).count == 1)


# -- the per-factorisation label memo -----------------------------------------------


def test_subset_analyses_agree_with_bfs_when_the_memo_switches_subsets(monkeypatch):
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    assert touched_edge_count(fac) > 0
    calls = count_label_misses(monkeypatch)
    a, b = (1, 3, 4, 5), (2, 3, 5, 7, 8, 14)
    for n, dirs in enumerate((a, b, a), 1):
        label = _bfs_labels([fac.table(x) for x in dirs])
        oracle = bfs_components(fac, dirs)
        mask = direction_mask(fac.ctx.space, dirs)
        tfc = tf_context(fac.ctx, dirs)
        vertices = range(1 << fac.d)
        cubes = _per_key([u & ~mask for u in vertices], label)
        classes = _per_key([tf_label(tfc, u).bits for u in vertices], label)
        for _ in range(2):
            rep = union_components(fac, dirs)
            assert (rep.count, rep.sizes) == (oracle.count, oracle.sizes)
            assert small_cube_connectivity(fac, dirs) == cubes
            assert tf_connectivity(fac, dirs) == classes
            assert is_connected(fac, dirs) == (oracle.count == 1)
        # Eight analyses of one subset, one labelling.
        assert len(calls) == n


def test_label_memo_is_keyed_by_the_sorted_distinct_directions(monkeypatch):
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    calls = count_label_misses(monkeypatch)
    small_cube_connectivity(fac, (2, 1, 2))
    tf_connectivity(fac, [1, 2])
    labels = _labels(fac, (1, 2))
    assert len(calls) == 1
    assert labels is _labels(fac, (1, 2))
    with pytest.raises(ValueError, match="read-only"):
        labels[0] = 1
    # The prefix sweeps and the r search label their own unions.
    min_connecting_prefix(fac, fac.directions)
    connectivity_profile(fac, 3, random.Random(1))
    rmin(build_explicit(build_context(8), SCALED, RandomTape(13)))
    assert _labels(fac, (1, 2)) is labels
    assert len(calls) == 1


def test_subset_labels_keeps_one_entry(monkeypatch):
    fac = directional(build_context(7))
    made = count_label_misses(monkeypatch)
    first = _labels(fac, (1,))
    assert _labels(fac, (1,)) is first
    second = _labels(fac, (2,))
    # Another key replaced the entry, so the first subset is labelled again.
    third = _labels(fac, (1,))
    assert third is not first and np.array_equal(third, first)
    assert made == [(1,), (2,), (1,)]
    assert list(fac.cached(analyze_mod._label_memo)) == [(1,)]
    assert not first.flags.writeable and not second.flags.writeable


def test_label_memo_is_freed_with_its_factorisation():
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    labels = weakref.ref(_labels(fac, (1, 2, 3)))
    ref = weakref.ref(fac)
    del fac
    gc.collect()
    assert ref() is None
    assert labels() is None


# -- component engine ----------------------------------------------------------------
#
# Random matchings of the vertex set, not only cube edges, hook roots into long
# chains and leave many components, which the near-directional construction
# never does.  A factorisation holds cube edges only, so the engine is fed the
# raw partner tables.


def _random_matchings(d, seed, fixed):
    """d random involutions of the 2^d vertices, as uint32 partner tables.

    With ``fixed`` set, each leaves a random share of vertices fixed.
    """
    rng = np.random.default_rng(seed)
    n = 1 << d
    rows = []
    for _ in range(d):
        perm = rng.permutation(n).astype(np.uint32)
        paired = perm[: int(rng.integers(0, n // 2 + 1)) * 2] if fixed else perm
        row = np.arange(n, dtype=np.uint32)
        row[paired[0::2]], row[paired[1::2]] = paired[1::2], paired[0::2]
        rows.append(row)
    return rows


def _per_key(keys, label):
    groups = {}
    for k, lab in zip(keys, label):
        groups.setdefault(int(k), set()).add(lab)
    return {k: len(s) == 1 for k, s in sorted(groups.items())}


@given(
    d=st.integers(6, 12),
    seed=st.integers(0, 2**32 - 1),
    fixed=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_bfs_on_random_matchings(d, seed, fixed, data):
    tables = _random_matchings(d, seed, fixed)
    size = data.draw(st.integers(1, d), label="size")
    chosen = data.draw(st.permutations(tables), label="order")[:size]
    label = _bfs_labels(chosen)
    labels, roots = _union(chosen)
    assert labels.tolist() == label
    assert roots.tolist() == sorted(set(label))
    # The grouping behind small_cube_connectivity and tf_connectivity, on
    # small-cube ids and on arbitrary keys.
    rng = np.random.default_rng(seed)
    mask = int(rng.integers(0, 1 << d))
    for keys in (np.arange(1 << d) & ~mask, rng.integers(0, 1 << d, 1 << d)):
        got = _one_component_per_key(keys, labels)
        assert list(got.items()) == list(_per_key(keys, label).items())


@given(d=st.integers(6, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_min_connecting_prefix_matches_bfs_on_random_matchings(d, seed, data):
    tables = _random_matchings(d, seed, data.draw(st.booleans(), label="fixed"))
    order = data.draw(st.permutations(tables), label="order")
    want = next(
        (r for r in range(1, d + 1) if len(set(_bfs_labels(order[:r]))) == 1), None
    )
    # Each prefix keeps one root per component, so the first prefix left
    # with one root is the first connected one, or none is.
    roots = [roots.size for _, roots in _fold(order)]
    assert roots == [len(set(_bfs_labels(order[:r]))) for r in range(1, d + 1)]
    assert want == next((r for r, size in enumerate(roots, 1) if size == 1), None)


def test_analyses_refuse_implicit_without_building(monkeypatch):
    # Every analysis reads the partner array: an implicit factorisation is
    # refused with the cap named, and no explicit twin is built behind it.
    calls = []
    real = construct_mod.build_explicit

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct_mod, "build_explicit", counted)
    imp = implicit_factorisation(build_context(10), SCALED, RandomTape(13))
    dirs = imp.directions[:4]
    refused = r"materialize\(\) first.*explicit-mode cap \d+"
    for call in (
        lambda: validate(imp),
        lambda: _labels(imp, dirs),
        lambda: union_components(imp, dirs),
        lambda: small_cube_connectivity(imp, dirs),
        lambda: tf_connectivity(imp, dirs),
        lambda: is_connected(imp, dirs),
        lambda: bfs_components(imp, dirs),
        lambda: rmin(imp),
        lambda: min_connecting_prefix(imp, imp.directions),
        lambda: connectivity_profile(imp, 5, random.Random(2)),
        lambda: touched_edge_count(imp),
        lambda: untouched_path_histogram(imp),
        lambda: untouched_parallel_paths(imp, Edge(0, 1)),
    ):
        with pytest.raises(ValueError, match=refused):
            call()
    assert calls == []


def test_min_connecting_prefix_directional():
    fac = directional(build_context(5))
    assert min_connecting_prefix(fac, [3, 1, 7, 2, 4]) == 5


def test_min_connecting_prefix_is_minimal():
    swap = build_explicit(build_context(10), SCALED, RandomTape(13))
    assert touched_edge_count(swap) > 0
    rng = random.Random(4)
    for fac in (random_greedy_factorisation(build_context(4), RandomTape(3)), swap):
        for _ in range(5):
            order = rng.sample(fac.directions, fac.d)
            p = min_connecting_prefix(fac, order)
            assert bfs_components(fac, order[:p]).count == 1
            if p > 1:
                assert bfs_components(fac, order[: p - 1]).count > 1


def test_min_connecting_prefix_needs_permutation():
    fac = directional(build_context(4))
    with pytest.raises(ValueError, match="permutation"):
        min_connecting_prefix(fac, [1, 2])
    with pytest.raises(ValueError, match="permutation"):
        min_connecting_prefix(fac, [1, 1, 2, 4])


def test_connectivity_profile_directional_and_deterministic():
    fac = directional(build_context(4))
    a = connectivity_profile(fac, 6, random.Random(7))
    b = connectivity_profile(fac, 6, random.Random(7))
    assert a == b
    assert a == [4] * 6
    g = random_greedy_factorisation(build_context(4), RandomTape(8))
    prof = connectivity_profile(g, 10, random.Random(8))
    assert len(prof) == 10
    assert all(1 <= p <= 4 for p in prof)


# -- chain prefixes settled from the moved vertices ------------------------------


def _fold_prefix(fac, order):
    """The fold's answer alone: the first connected prefix, or None."""
    walk = enumerate(_fold(map(fac.table, order)), 1)
    return next((r for r, (_, roots) in walk if roots.size == 1), None)


def _swapping(ctx, params, seed):
    """The construction from the first seed from ``seed`` on that it accepts."""
    for s in range(seed, seed + 20):
        try:
            return build_explicit(ctx, params, RandomTape(s))
        except OverlapError:
            pass
    raise AssertionError("no accepted seed")


def _with_unmatched_edge(fac):
    # Row i takes back its own axis on the first square it swapped, whose two
    # moved edges, on axis j, are then in no factor.  Row i stays a matching,
    # and its two edges of the square sit in row j too.
    axes = fac.axes.copy()
    for i, u in np.argwhere(axes != np.arange(fac.d)[:, None]):
        j = int(axes[i, u])
        square = [u, u ^ 1 << i, u ^ 1 << j, u ^ 1 << i ^ 1 << j]
        if (axes[i, square] == j).all():
            axes[i, square] = i
            return _crafted(axes)
    raise AssertionError("no swapped square")


def _double_assigned(fac):
    # Rows stay matchings, but some edges sit in two rows (_half_square_switch).
    axes = fac.axes.copy()
    _half_square_switch(axes, random.Random(fac.d))
    return _crafted(axes)


CHAIN_INPUTS = {
    "swapping": lambda ctx: _swapping(ctx, SWAPPING, 0),
    "all-squares": lambda ctx: _swapping(ctx, ConstructionParams(pg=0, rg=6, rh=3, cube_dim=4), 0),
    "defaults": lambda ctx: build_explicit(ctx, ConstructionParams(), RandomTape(1)),
    "greedy": lambda ctx: random_greedy_factorisation(ctx, RandomTape(ctx.d)),
    "rotated-rows": lambda ctx: _crafted(np.roll(_directional_axes(ctx.d), 1, axis=0)),
    "readme-d10": lambda ctx: build_explicit(build_context(10), SCALED, RandomTape(13)),
    "unmatched-edge": lambda ctx: _with_unmatched_edge(_swapping(ctx, SWAPPING, 0)),
    "double-assigned": lambda ctx: _double_assigned(_swapping(ctx, SWAPPING, 0)),
}
_chain_inputs: dict = {}


def _chain_input(name, d):
    # greedy builds take seconds from d = 13 on, and the readme build is d = 10.
    d = 10 if name == "readme-d10" else min(d, 11) if name == "greedy" else d
    if (name, d) not in _chain_inputs:
        _chain_inputs[name, d] = CHAIN_INPUTS[name](build_context(d))
    return _chain_inputs[name, d]


@given(name=st.sampled_from(sorted(CHAIN_INPUTS)), d=st.integers(7, 14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_min_connecting_prefix_matches_the_fold_and_bfs(name, d, data):
    fac = _chain_input(name, d)
    order = data.draw(st.permutations(fac.directions), label="order")
    want = _fold_prefix(fac, order)
    if want is None:
        # Only an invalid factorisation can leave its full union split.
        assert not validate(fac).ok
        with pytest.raises(AssertionError, match="full factor union"):
            min_connecting_prefix(fac, order)
        return
    assert min_connecting_prefix(fac, order) == want
    # The rows of every input are matchings, so the breadth-first search
    # sees the same graph.
    assert bfs_components(fac, order[:want]).count == 1
    if want > 1:
        assert bfs_components(fac, order[: want - 1]).count > 1


def test_coset_rules_run_only_on_sparse_valid_factorisations():
    rng = random.Random(5)
    for name, rules in [
        ("swapping", {"closed", "certified"}),
        ("defaults", {"closed", "certified"}),
        ("greedy", {"fold"}),
        ("rotated-rows", {"fold"}),
        ("unmatched-edge", {"fold"}),
        ("double-assigned", {"fold"}),
    ]:
        fac = CHAIN_INPUTS[name](build_context(12))
        profile = connectivity_profile(fac, 6, rng)
        settled = settled_prefixes(fac)
        assert {rule for rule, n in settled.items() if n} == rules, name
        assert sum(settled.values()) == sum(profile), name


def test_a_connected_fold_takes_no_more_merges(monkeypatch):
    # A dense build is folded from its first factor on: the first matching
    # is labelled without a merge, and none follows the first connected
    # prefix.
    fac = _chain_input("greedy", 10)
    order = list(fac.directions)
    want = _fold_prefix(fac, order)
    assert want < fac.d
    merges = []
    merge = analyze_mod._merge
    monkeypatch.setattr(analyze_mod, "_merge", lambda *args: merges.append(1) or merge(*args))
    union = _Union(fac, order)
    assert len(merges) == want - 1
    assert union.connected() and not union.labels().any()


def test_validate_runs_once_per_factorisation(monkeypatch):
    fac = _swapping(build_context(10), SWAPPING, 0)
    runs = []
    check = analyze_mod._validate
    monkeypatch.setattr(analyze_mod, "_validate", lambda f: runs.append(1) or check(f))
    rep = validate(fac)
    assert rep.ok and validate(fac) is rep
    # The coset rules read the same report.
    union_components(fac, fac.directions[:5])
    min_connecting_prefix(fac, fac.directions)
    assert runs == [1]


def _swap_rows(axes, f, g, base, span):
    """Rows f and g trade axes on base + span(axes in span), where both hold
    their own; the region must hold both axes, so the rows stay matchings."""
    region = np.array([base ^ sum(b << a for b, a in zip(bits, span))
                       for bits in np.ndindex(*(2,) * len(span))])
    assert (axes[f, region] == f).all() and (axes[g, region] == g).all()
    axes[f, region], axes[g, region] = g, f


def _hit_every_coset(axes, k, avoid):
    """Square swaps of row 1 with rows off M = {0..k-1}, at vertices on their
    own axes, until every coset outside ``avoid`` holds a dirty vertex; none
    touches a coset of ``avoid``."""
    d = len(axes)
    for t in range(0, 1 << d, 1 << k):
        if t in avoid or (axes[:, t : t + (1 << k)] != np.arange(d)[:, None]).any():
            continue
        q = next(q for q in range(k, d) if t ^ 1 << q not in avoid)
        base = next(
            w for w in range(t, t + (1 << k))
            if not w >> 1 & 1
            and (axes[:, [w, w ^ 2, w ^ 1 << q, w ^ 2 ^ 1 << q]] == np.arange(d)[:, None]).all()
        )
        _swap_rows(axes, 1, q, base, (1, q))


def _prefix_rules(fac, order):
    """The rule that settled each prefix ``min_connecting_prefix`` walks, in
    order, from the ``settled_prefixes`` delta across each question it asks
    its ``_Union``."""
    rules = []
    connected = _Union.connected

    def asked(union):
        before = settled_prefixes(fac)
        answer = connected(union)
        after = settled_prefixes(fac)
        rules.extend(rule for rule in before for _ in range(after[rule] - before[rule]))
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Union, "connected", asked)
        min_connecting_prefix(fac, order)
    return rules


def _view_verdict(fac, dirs):
    """The rule for the union of dirs and its verdict, read from their view:
    a closed coset splits it, certified cosets decide it through the coset
    graph, and else only the fold can tell."""
    view = _CosetView(fac, dirs)
    if view.k < fac.d and not view.hits().all():
        return "closed", False
    comp = view.graph()
    return ("fold", None) if comp is None else ("certified", not comp.any())


def _class_missing():
    # Rows 0 and 4 trade axes on the cosets 0 and e4 of M = {0..3}: neither
    # holds an edge along axis 0 in the union of rows 0..3 (R = 2^(k-1) = 8,
    # every miss 1), so each splits into two halves.
    axes = _directional_axes(9)
    _swap_rows(axes, 0, 4, 0, range(5))
    _hit_every_coset(axes, 4, {0, 1 << 4})
    return axes, 4


def _cube_swap_miss_two():
    # A cube swap on axes (0, 4, 1, 5): row 4 takes axis 0, row 1 axis 4,
    # row 5 axis 1 and row 0 axis 5.  In the union of rows 0..3 the square
    # span(0, 1) of each of its four cosets loses all four edges (every miss
    # 2, m_c = 4, R = 4 = k), though the coset stays connected.
    axes = _directional_axes(9)
    region = np.array([a | b << 1 | c << 4 | e << 5 for a, b, c, e in np.ndindex(2, 2, 2, 2)])
    for row, axis in ((4, 0), (1, 4), (5, 1), (0, 5)):
        axes[row, region] = axis
    _hit_every_coset(axes, 4, {0, 1 << 4, 1 << 5, 3 << 4})
    return axes, 4


def _isolated_vertex():
    # Four squares at vertex 0 move every row of M = {0..3} off M there, so
    # vertex 0 is isolated in its coset (miss = k = 4; R = 4, m_c = 1).
    axes = _directional_axes(9)
    for p in range(4):
        _swap_rows(axes, p, p + 4, 0, (p, p + 4))
    _hit_every_coset(axes, 4, {0})
    return axes, 4


def _isolated_edge():
    # Rows 1..4 trade axes with rows 5..8 on span(0, p, p + 4): the edge 0-1
    # is cut off in its coset of M = {0..4} (misses 4 and 4, sum 2(k - 1)).
    axes = _directional_axes(9)
    for p in range(1, 5):
        _swap_rows(axes, p, p + 4, 0, (0, p, p + 4))
    _hit_every_coset(axes, 5, {0})
    return axes, 5


@pytest.mark.parametrize(
    "craft", [_class_missing, _cube_swap_miss_two, _isolated_vertex, _isolated_edge]
)
def test_cosets_no_certificate_covers_go_to_the_fold(craft):
    axes, k = craft()
    fac = _crafted(axes)
    assert validate(fac).ok and 2 * fac.moved.size < 1 << fac.d
    order = list(fac.directions)
    verdicts = [_view_verdict(fac, order[:r]) for r in range(1, k + 1)]
    assert verdicts == [("closed", False)] * (k - 1) + [("fold", None)]
    want = _fold_prefix(fac, order)
    assert _prefix_rules(fac, order) == ["closed"] * (k - 1) + ["fold"] * (want - k + 1)
    assert settled_prefixes(fac) == {"closed": k - 1, "certified": 0, "fold": want - k + 1}
    assert min_connecting_prefix(fac, order) == want
    assert bfs_components(fac, order[:want]).count == 1
    assert bfs_components(fac, order[: want - 1]).count > 1


def test_a_coset_with_several_multi_vertices_is_certified():
    # Two squares at each of the vertices 0, e3 + e4 and e0 + e3 (rows 1 and
    # 2 trade with rows 5 and 6): in the union of rows 0..4 (k = 5) coset 0
    # loses six edges (R = 6 >= k) and has three vertices with miss 2 (sum
    # 6 < 2(k - 1)), so only the second clause certifies it.
    axes = _directional_axes(9)
    for v in (0, 0b11000, 0b01001):
        _swap_rows(axes, 1, 5, v, (1, 5))
        _swap_rows(axes, 2, 6, v, (2, 6))
    _hit_every_coset(axes, 5, {0})
    fac = _crafted(axes)
    order = list(fac.directions)
    assert _view_verdict(fac, order[:5])[0] == "certified"
    assert _prefix_rules(fac, order)[4] == "certified"
    assert min_connecting_prefix(fac, order) == _fold_prefix(fac, order)


def test_certified_cosets_decide_through_the_coset_graph():
    # Only squares: a coset of M = {0..3} loses at most an edge or two
    # (R < k), so every prefix is closed or certified, and the coset graph
    # decides the certified ones.
    axes = _directional_axes(9)
    _hit_every_coset(axes, 4, set())
    fac = _crafted(axes)
    order = list(fac.directions)
    verdicts = [_view_verdict(fac, order[:r]) for r in range(1, fac.d + 1)]
    want = _fold_prefix(fac, order)
    assert verdicts[3] == ("certified", False)
    for r, (rule, connected) in enumerate(verdicts, 1):
        assert rule in ("closed", "certified") and connected == (r >= want)
    # The chain settles its prefixes up to the first connected one by the
    # same rules.
    assert _prefix_rules(fac, order) == [rule for rule, _ in verdicts[:want]]
    assert min_connecting_prefix(fac, order) == want


# -- subset labels from the cosets -------------------------------------------------


def _count_coset_graphs(monkeypatch) -> list:
    """Record whether each ``_CosetView.graph`` call certified its cosets."""
    calls = []
    graph = _CosetView.graph

    def counted(view):
        comp = graph(view)
        calls.append(comp is not None)
        return comp

    monkeypatch.setattr(_CosetView, "graph", counted)
    return calls


# The readme-d10 build is a valid swapping build too, with 198 of its 1,024
# vertices in U.
SPARSE_INPUTS = ("swapping", "all-squares", "defaults", "readme-d10")


@given(name=st.sampled_from(SPARSE_INPUTS), d=st.integers(7, 14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_subset_labels_from_the_cosets_match_the_fold_and_bfs(name, d, data):
    fac = _chain_input(name, d)
    d = fac.d
    k = data.draw(st.integers(1, d), label="k")
    dirs = tuple(sorted(data.draw(st.permutations(fac.directions), label="order")[:k]))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_coset_graphs(mp)
        labels = _Union(fac, dirs).labels()
    # The coset path ran once; the fold is called only where it declines.
    assert len(calls) == 1
    assert labels.dtype == np.uint32
    assert np.array_equal(labels, _union(map(fac.table, dirs))[0])
    assert labels.tolist() == _bfs_labels([fac.table(x) for x in dirs])
    if name == "defaults":
        # U is empty: every coset is closed, and is its own component.
        assert calls == [True]
        mask = direction_mask(fac.ctx.space, dirs)
        assert np.array_equal(labels, np.arange(1 << d) & ~mask)


def test_most_subsets_of_the_swapping_setting_are_labelled_from_their_cosets(monkeypatch):
    fac = _chain_input("swapping", 12)
    calls = _count_coset_graphs(monkeypatch)
    rng = random.Random(2)
    for k in range(4, 13):
        dirs = tuple(sorted(rng.sample(fac.directions, k)))
        assert _Union(fac, dirs).labels().tolist() == _bfs_labels([fac.table(x) for x in dirs])
    assert len(calls) == 9 and sum(calls) >= 7


@pytest.mark.parametrize(
    "name", ["greedy", "rotated-rows", "unmatched-edge", "double-assigned"]
)
def test_subset_labels_of_dense_or_invalid_inputs_fold(name, monkeypatch):
    fac = _chain_input(name, 10)
    calls = _count_coset_graphs(monkeypatch)
    rng = random.Random(3)
    for k in (1, 3, fac.d // 2, fac.d - 1, fac.d):
        dirs = tuple(sorted(rng.sample(fac.directions, k)))
        labels = _Union(fac, dirs).labels()
        assert np.array_equal(labels, _union(map(fac.table, dirs))[0])
        assert labels.tolist() == _bfs_labels([fac.table(x) for x in dirs])
    assert calls == []


@pytest.mark.parametrize(
    "craft", [_class_missing, _cube_swap_miss_two, _isolated_vertex, _isolated_edge]
)
def test_subset_labels_of_uncertified_cosets_fold(craft, monkeypatch):
    axes, k = craft()
    fac = _crafted(axes)
    calls = _count_coset_graphs(monkeypatch)
    dirs = fac.directions[:k]
    labels = _Union(fac, dirs).labels()
    assert calls == [False]
    assert labels.tolist() == _bfs_labels([fac.table(x) for x in dirs])


# -- closed cosets ---------------------------------------------------------------


def _dense_closed_cosets(fac, dirs):
    """Closed cosets counted over every vertex: the smallest vertex of each
    coset whose slots of dirs all stay on their own directions' axes."""
    rows = [fac.ctx.space.index[x] for x in dirs]
    mask = sum(1 << i for i in rows)
    n = 1 << fac.d
    inside = np.ones(n, dtype=bool)
    for i in rows:
        inside &= (mask >> fac.axes[i].astype(np.int64) & 1) == 1
    coset = np.arange(n) & ~mask
    split = np.unique(coset[~inside])
    return [int(c) for c in np.unique(coset) if c not in set(split.tolist())]


@pytest.mark.parametrize("d", [8, 10, 12])
def test_closed_cosets_match_a_dense_count_and_are_components(d):
    rng = random.Random(d)
    ctx = build_context(d)
    facs = [
        _swapping(ctx, SWAPPING, 0),
        _swapping(ctx, ConstructionParams(pg=0, rg=6, rh=3, cube_dim=4), 1),
        build_explicit(ctx, SCALED, RandomTape(13)),
        directional(ctx),
    ]
    for fac in facs:
        for size in (1, d // 2, d - 3, d - 1, d):
            dirs = sorted(rng.sample(fac.directions, size))
            closed, cosets, vertex = closed_cosets(fac, dirs)
            want = _dense_closed_cosets(fac, dirs)
            assert (closed, cosets) == (len(want), 1 << (d - size))
            assert vertex == (want[0] if want else None)
            mask = direction_mask(fac.ctx.space, dirs)
            for u in rng.sample(range(1 << d), 8):
                assert in_closed_coset(fac, dirs, u) == (u & ~mask in want)
            if vertex is not None and size < d:
                # The reported coset is one whole component of the union.
                labels = np.array(_bfs_labels([fac.table(x) for x in dirs]))
                rows = [fac.ctx.space.index[x] for x in dirs]
                mask = sum(1 << i for i in rows)
                coset = np.flatnonzero((np.arange(1 << d) & ~mask) == vertex)
                assert np.array_equal(np.flatnonzero(labels == vertex), coset)
                assert bfs_components(fac, dirs).sizes.count(1 << size) >= closed


@pytest.mark.parametrize("d", [8, 9, 10, 11, 12])
def test_rmin_witness_coset_is_closed_exactly_when_it_is_a_component(d):
    ctx = build_context(d)
    all_squares = ConstructionParams(pg=0, rg=6, rh=3, cube_dim=4)
    for params, seed in ((SWAPPING, 0), (all_squares, 1)):
        fac = _swapping(ctx, params, seed)
        res = rmin(fac)
        closed = in_closed_coset(fac, res.witness, res.vertex)
        mask = direction_mask(fac.ctx.space, res.witness)
        assert closed == (res.vertex & ~mask in _dense_closed_cosets(fac, res.witness))
        if not closed_cosets(fac, res.witness)[0]:
            assert not closed
        # In a valid factorisation a coset is closed exactly when it is one
        # whole component of the union.
        labels = np.array(_bfs_labels([fac.table(x) for x in res.witness]))
        component = np.flatnonzero(labels == labels[res.vertex])
        coset = np.flatnonzero((np.arange(1 << d) & ~mask) == res.vertex & ~mask)
        assert closed == np.array_equal(component, coset)


def test_in_closed_coset_refuses_a_vertex_outside_the_cube():
    fac = _swapping(build_context(8), SWAPPING, 0)
    for u in (1 << 8, -1):
        with pytest.raises(ValueError, match=f"vertex {u} does not fit in d=8 bits"):
            in_closed_coset(fac, [1, 2], u)
    # A Python bool, which json.dumps writes.
    assert type(in_closed_coset(fac, [1, 2], (1 << 8) - 1)) is bool


def test_closed_cosets_of_the_directional_baseline():
    fac = directional(build_context(7))
    assert closed_cosets(fac, [1, 2, 4]) == (16, 16, 0)
    assert closed_cosets(fac, fac.directions) == (1, 1, 0)


def test_moved_vertices_are_the_columns_off_their_own_axes():
    fac = _swapping(build_context(12), SWAPPING, 0)
    us = fac.moved
    want = np.flatnonzero((fac.axes != np.arange(12)[:, None]).any(axis=0))
    assert np.array_equal(us, want) and not us.flags.writeable
    assert fac.moved is us
    assert directional(build_context(7)).moved.size == 0
    assert touched_edge_count(fac) == np.count_nonzero(fac.axes != np.arange(12)[:, None]) // 2
