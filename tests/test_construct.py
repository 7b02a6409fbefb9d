import filecmp
import gc
import json
import re
import weakref
from hashlib import blake2b

import numpy as np
import pytest

from cubefactors.code import adjacent_codeword, build_context, code_size, enumerate_code
import cubefactors.code as code_mod
import cubefactors.construct as construct_mod
from cubefactors.construct import (
    ConstructionParams,
    Factorisation,
    OverlapError,
    RandomTape,
    SwapPlan,
    _conflict_partner,
    _squares_conflict,
    apply_explicit,
    build_explicit,
    directional,
    implicit_factorisation,
    load_factorisation,
    plan_summary,
    random_greedy_factorisation,
    sample_plan,
    save_factorisation,
    touched_edge_count,
)
from cubefactors.cube import edge_at, hamming_distance, vertex_text
from cubefactors.analyze import union_components, validate
from factor_files import _per_edge_save, partner_rows

CTX7 = build_context(7)
CTX10 = build_context(10)
SCALED = ConstructionParams(pg=0.05, rg=6, rh=4, cube_dim=6)


# -- parameters and tape -------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(pg=1.5)
    with pytest.raises(ValueError):
        ConstructionParams(rg=3, rh=5)
    with pytest.raises(ValueError):
        ConstructionParams(cube_dim=0)
    assert ConstructionParams().pg_value(10) == 2.0 ** (-1.0)
    assert ConstructionParams(pg=1, rg=6, rh=4, cube_dim=6).pg_value(10) == 1
    assert ConstructionParams(pg=0.25).pg_value(10) == 0.25


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rg", 6.5, "rg must be an integer, got 6.5"),
        ("rh", 2.0, "rh must be an integer, got 2.0"),
        ("cube_dim", True, "cube_dim must be an integer, got True"),
        ("cube_dim", 2.5, "cube_dim must be an integer, got 2.5"),
        ("pg", True, "pg must be a number or null, got True"),
        ("pg", "0.05", "pg must be a number or null, got '0.05'"),
        ("conflict_check", 1, "conflict_check must be true or false, got 1"),
    ],
)
def test_params_of_the_wrong_type_are_refused(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConstructionParams(**{"pg": 0.05, "rg": 6, "rh": 2, "cube_dim": 6, field: value})


def test_tape_is_deterministic_and_seed_sensitive():
    a, b = RandomTape(5), RandomTape(5)
    c = RandomTape(6)
    vs = [0, 1, 77, 2**40]
    assert [a.coin(v, 1 << 63) for v in vs] == [b.coin(v, 1 << 63) for v in vs]
    assert [a.pair_positions(v, 9) for v in vs] == [b.pair_positions(v, 9) for v in vs]
    assert any(
        a.pair_positions(v, 9) != c.pair_positions(v, 9) for v in range(50)
    )
    assert a.derive_seed("x") == b.derive_seed("x")
    assert a.derive_seed("x") != a.derive_seed("y")


def test_tape_draw_shapes():
    tape = RandomTape(1)
    for v in range(200):
        i, j = tape.pair_positions(v, 7)
        assert 0 <= i < 7 and 0 <= j < 7 and i != j
        t = tape.tuple_positions(v, 9, 6)
        assert len(t) == 6 and len(set(t)) == 6
        assert all(0 <= p < 9 for p in t)
    assert not tape.coin(3, 0)
    assert tape.coin(3, 1 << 64)


def test_tape_pairs_cover_all_outcomes():
    tape = RandomTape(2)
    seen = {tape.pair_positions(v, 3) for v in range(300)}
    assert seen == {(i, j) for i in range(3) for j in range(3) if i != j}


# -- baselines -------------------------------------------------------------------


def test_directional_is_valid_and_untouched():
    fac = directional(CTX7)
    assert validate(fac).ok
    for u in (0, 5, 127):
        for x in CTX7.space.directions:
            assert fac.partner(u, x) == u ^ CTX7.space.bit_of(x)
            assert fac.untouched(edge_at(CTX7.space, u, x))
    assert touched_edge_count(fac) == 0


def test_directional_pair_union_is_four_cycles():
    fac = directional(build_context(3))
    rep = union_components(fac, [1, 2])
    assert rep.count == 2
    assert rep.sizes == (4, 4)


def test_partner_argument_validation():
    fac = directional(CTX7)
    with pytest.raises(ValueError):
        fac.partner(-1, 1)
    with pytest.raises(ValueError):
        fac.partner(1 << 7, 1)
    with pytest.raises(ValueError):
        fac.partner(0, 9)


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("label", [True, 1.0, np.int64(1), "1", 9, None])
def test_a_label_that_is_not_an_int_of_x_is_refused(mode, label):
    # As in a file, a bool or a float would otherwise find the label 1.
    if mode == "explicit":
        fac = directional(CTX7)
    else:
        fac = implicit_factorisation(CTX7, ConstructionParams(), RandomTape(0))
    with pytest.raises(ValueError, match=f"^unknown factor {label}$"):
        fac.partner(0, label)
    if mode == "explicit":
        with pytest.raises(ValueError, match=f"^unknown factor {label}$"):
            fac.table(label)
    assert fac.partner(0, 1) == 1


def test_axis_array_derives_tables_and_implicit_has_none():
    fac = build_explicit(CTX10, SCALED, RandomTape(13))
    assert fac.axes.shape == (10, 1 << 10) and fac.axes.dtype == np.uint8
    assert not hasattr(fac, "partners")
    assert type(touched_edge_count(fac)) is int
    idx = np.arange(1 << 10)
    for i, x in enumerate(CTX10.space.directions):
        table = fac.table(x)
        assert table.dtype == np.uint32
        assert (table == idx ^ 1 << fac.axes[i].astype(np.int64)).all()
        assert [fac.partner(u, x) for u in range(1 << 10)] == table.tolist()
    imp = implicit_factorisation(CTX10, SCALED, RandomTape(13))
    with pytest.raises(ValueError, match="implicit mode"):
        imp.axes
    with pytest.raises(ValueError, match="implicit mode"):
        imp.table(1)


def test_a_slot_naming_no_axis_is_refused():
    # Every slot of a factorisation names an axis below d; the error names
    # the first such slot's direction and vertex.
    for value in (7, 255):
        axes = construct_mod._directional_axes(7)
        axes[2, 5] = axes[4, 9] = value
        with pytest.raises(
            ValueError, match=f"^slot of direction 3 at vertex 0000101 names axis {value}, "
        ):
            Factorisation(CTX7, "crafted", "explicit", axes)
    assert Factorisation(CTX7, "crafted", "explicit", construct_mod._directional_axes(7))


def _saved_and_loaded(fac, tmp_path):
    path = tmp_path / "fac.jsonl"
    save_factorisation(fac, str(path))
    return load_factorisation(str(path))


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: directional(CTX10),
        lambda tmp: build_explicit(CTX10, SCALED, RandomTape(13)),
        lambda tmp: random_greedy_factorisation(CTX7, RandomTape(5)),
        lambda tmp: _saved_and_loaded(build_explicit(CTX10, SCALED, RandomTape(13)), tmp),
    ],
    ids=["directional", "build_explicit", "greedy", "load_factorisation"],
)
def test_partner_array_is_read_only(tmp_path, make):
    # The axis array is read-only, and a table derived from it is a copy.
    fac = make(tmp_path)
    assert not fac.axes.flags.writeable
    with pytest.raises(ValueError):
        fac.axes[0, 0] = 1
    for x in fac.directions:
        fac.table(x)[0] = 1
    assert validate(fac).ok


def test_factor_of_directional():
    fac = directional(CTX7)
    e = edge_at(CTX7.space, 0b0010, 2)
    assert fac.factor_of(e) == 2


# -- plan sampling ----------------------------------------------------------------


def test_plan_pg_zero():
    plan = sample_plan(CTX7, ConstructionParams(pg=0.0), RandomTape(3))
    assert plan.gprime.size == 0
    assert plan.g.size == 0 and plan.cubes.shape == (0, 6)
    assert plan.h.tolist() == sorted(enumerate_code(CTX7))
    # Every conflict partner is a codeword, and so in H.
    assert plan.pairs_drawn == len(plan.h)


def test_plan_pg_one_dense_code():
    plan = sample_plan(CTX7, ConstructionParams(pg=1.0, rg=14, rh=10), RandomTape(3))
    assert len(plan.gprime) == code_size(CTX7)
    assert plan.g.size == 0
    assert plan.h.size == 0 and plan.squares.shape == (0, 3)
    fac = apply_explicit(CTX7, plan)
    base = directional(CTX7)
    assert all(
        (fac.table(x) == base.table(x)).all() for x in CTX7.space.directions
    )


def test_plan_membership_invariants():
    for seed in (0, 13, 49):
        tape = RandomTape(seed)
        plan = sample_plan(CTX10, SCALED, tape)
        cw = set(enumerate_code(CTX10))
        gprime, g, h = plan.gprime.tolist(), plan.g.tolist(), plan.h.tolist()
        assert set(g) <= set(gprime) <= cw
        assert set(h) <= cw
        assert gprime == sorted(gprime) and g == sorted(g) and h == sorted(h)
        squares = plan.squares.tolist()
        assert [u for u, _, _ in squares] == sorted({u for u, _, _ in squares})
        assert {u for u, _, _ in squares} <= set(h)
        for u, p, q in squares:
            assert (p, q) == tape.pair_positions(u, CTX10.d)
        pq = {u: tape.pair_positions(u, CTX10.d) for u in h}
        partners = {_conflict_partner(CTX10, u, *pq[u]) for u in h} - {None}
        assert set(h) | partners <= cw
        assert plan.pairs_drawn == len(set(h) | partners)
        assert plan.cubes.shape == (len(g), 6)
        for v, r in zip(g, plan.cubes.tolist()):
            assert tuple(r) == tape.tuple_positions(v, CTX10.d, 6)
            assert len(set(r)) == 6 and set(r) <= set(range(CTX10.d))
        for v in g:
            assert all(
                hamming_distance(v, w) > SCALED.rg
                for w in gprime
                if w != v
            )
        for u in h:
            assert all(
                hamming_distance(u, w) > SCALED.rh for w in gprime
            )


# How the H filter runs for seeds 0 and 13: by marking each G' point's
# low-weight codeword offsets, or by comparing every codeword with the G'
# points in _near_any.
H_FILTERS = {
    (10, SCALED): ("compare", "mark"),
    (12, ConstructionParams()): ("compare", "compare"),
    (12, ConstructionParams(pg=0.1, rg=3, rh=0)): ("mark", "mark"),
    (10, ConstructionParams(pg=0.0)): ("mark", "mark"),
    (10, ConstructionParams(pg=1.0, rg=3, rh=2)): ("mark", "mark"),
    (10, ConstructionParams(pg=1.0)): ("compare", "compare"),
}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("d, params", list(H_FILTERS))
def test_plan_filters_match_brute_force(monkeypatch, block, d, params):
    h_filters = H_FILTERS[d, params]
    if block is not None:
        monkeypatch.setattr(construct_mod, "_BLOCK_ENTRIES", block)
    compared = []
    real_near_any = construct_mod._near_any

    def near_any(words, centres, lo, hi):
        # The G exclusion starts at distance 1, the H filter at 0.
        compared.append(lo == 0)
        return real_near_any(words, centres, lo, hi)

    monkeypatch.setattr(construct_mod, "_near_any", near_any)
    ctx = build_context(d)
    cw = sorted(enumerate_code(ctx))
    for seed, h_filter in zip((0, 13), h_filters):
        compared.clear()
        plan = sample_plan(ctx, params, RandomTape(seed))
        assert ("compare" if any(compared) else "mark") == h_filter
        thr = params.coin_threshold(d)
        gprime = [u for u in cw if RandomTape(seed).coin(u, thr)]
        assert plan.gprime.tolist() == gprime
        assert plan.g.tolist() == [
            v
            for v in gprime
            if all(hamming_distance(v, w) > params.rg for w in gprime if w != v)
        ]
        assert plan.h.tolist() == [
            u for u in cw if all(hamming_distance(u, w) > params.rh for w in gprime)
        ]


def test_conflict_partner_geometry():
    # At d = 7 the direction labelled x sits at position x - 1: the square
    # at 0 across 1 and 2 has its far corner 3 next to the codeword 7.
    assert _conflict_partner(CTX7, 0, 0, 1) == 0b0000111
    ctx4 = build_context(4)
    # p^q = 3 is inactive at d=4, so the far corner has no codeword neighbour
    assert ctx4.space.directions[:2] == (1, 2)
    assert _conflict_partner(ctx4, 0, 0, 1) is None


def test_squares_conflict_predicate():
    w = 0b0000111
    assert _squares_conflict(0, w, 1, 2)
    assert _squares_conflict(0, w, 0, 2)
    assert not _squares_conflict(0, w, 0, 4)


def test_conflict_rule_vetoes_symmetric_pairs():
    tape = RandomTape(13)
    plan = sample_plan(CTX10, SCALED, tape)
    h = set(plan.h.tolist())
    vetoed = h - set(plan.squares[:, 0].tolist())
    assert vetoed, "seed chosen so that the conflict rule fires"
    for u in vetoed:
        w = _conflict_partner(CTX10, u, *tape.pair_positions(u, CTX10.d))
        assert w is not None
        assert _squares_conflict(u, w, *tape.pair_positions(w, CTX10.d))
        if w in h:
            assert w in vetoed


def test_conflict_check_off_keeps_all_h():
    params = ConstructionParams(pg=0.05, rg=6, rh=4, cube_dim=6, conflict_check=False)
    plan = sample_plan(CTX10, params, RandomTape(13))
    assert np.array_equal(plan.squares[:, 0], plan.h)


# -- bulk build against the per-vertex and per-slot loops ---------------------------


def _oracle_plan(ctx, params, tape):
    """Per-vertex reference for ``sample_plan``: one tape call per draw and
    per conflict check.

    Every codeword draws its coin and its (p, q) pair, and H is found by
    comparing every codeword with every G' point.  The plan counts the pairs
    of H and of its squares' conflict partners, the draws a plan reads.
    """
    cw = ctx._codeword_array
    words = cw.tolist()
    thr = params.coin_threshold(ctx.d)
    coins = np.fromiter((tape.coin(u, thr) for u in words), bool, count=len(words))
    gp = cw[coins]
    g = gp[~construct_mod._near_any(gp, gp, 1, params.rg)]
    h = cw[~construct_mod._near_any(cw, gp, 0, params.rh)]
    pq = {u: tape.pair_positions(u, ctx.d) for u in words}
    cubes = [tape.tuple_positions(v, ctx.d, params.cube_dim) for v in g.tolist()]
    kept = set(h.tolist())
    squares = []
    for u in h.tolist():
        if params.conflict_check:
            w = _conflict_partner(ctx, u, *pq[u])
            if w is not None:
                kept.add(w)
                if _squares_conflict(u, w, *pq[w]):
                    continue
        squares.append((u, *pq[u]))
    return SwapPlan(ctx, params, tape.seed, gp, g, h, squares, cubes, len(kept))


def _oracle_partners(ctx, plan):
    """Per-slot reference for ``apply_explicit``: each claim is checked and written in turn."""
    d = ctx.d
    idx = np.arange(1 << d, dtype=np.uint32)
    partners = idx ^ (np.uint32(1) << np.arange(d, dtype=np.uint32))[:, None]
    claims = {}

    def claim(vertex, dir_pos, site, partner):
        key = vertex * d + dir_pos
        owner = claims.setdefault(key, site)
        if owner != site:
            raise OverlapError(
                f"overlapping swap regions: factor slot (vertex={vertex}, "
                f"direction index {dir_pos}) written twice"
            )
        partners[dir_pos, vertex] = partner

    site = 0
    for u, ip, iq in plan.squares.tolist():
        bp, bq = 1 << ip, 1 << iq
        for w in (u, u ^ bp, u ^ bq, u ^ bp ^ bq):
            claim(w, ip, site, w ^ bq)
            claim(w, iq, site, w ^ bp)
        site += 1
    for v, positions in zip(plan.g.tolist(), plan.cubes.tolist()):
        bits = [1 << i for i in positions]
        for sel in range(1 << len(positions)):
            w = v
            for j, b in enumerate(bits):
                if sel >> j & 1:
                    w ^= b
            for j in range(len(positions)):
                claim(w, positions[j], site, w ^ bits[j - 1])
        site += 1
    return partners


_PLAN_ARRAYS = ("gprime", "g", "h", "squares", "cubes")


def _assert_plan_matches_oracle(ctx, params, seed):
    """Returns the bulk plan and the oracle's, after checking that they agree."""
    plan = sample_plan(ctx, params, RandomTape(seed))
    ref = _oracle_plan(ctx, params, RandomTape(seed))
    for field in ("ctx", "params", "seed", "pairs_drawn"):
        assert getattr(plan, field) == getattr(ref, field), field
    for field in _PLAN_ARRAYS:
        assert np.array_equal(getattr(plan, field), getattr(ref, field)), field
    return plan, ref


def _assert_bulk_matches_oracle(ctx, params, seed):
    """Returns the build's plan, or None when the oracle refuses the seed."""
    plan, ref = _assert_plan_matches_oracle(ctx, params, seed)
    try:
        want = _oracle_partners(ctx, ref)
    except OverlapError as err:
        with pytest.raises(OverlapError) as got:
            apply_explicit(ctx, plan)
        assert str(got.value) == str(err)
        return None
    assert np.array_equal(partner_rows(apply_explicit(ctx, plan)), want)
    return plan


BULK_PARAMS = {
    "scaled": SCALED,
    "swapping": ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4),
    "cubes": ConstructionParams(pg=0.02, rg=4, rh=4, cube_dim=6),
    "no-conflict-check": ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4, conflict_check=False),
    "defaults": ConstructionParams(),
}


@pytest.mark.parametrize("name", list(BULK_PARAMS))
@pytest.mark.parametrize("d", range(8, 19))
def test_bulk_build_matches_the_loops(d, name):
    ctx = build_context(d)
    for seed in range(3):
        _assert_bulk_matches_oracle(ctx, BULK_PARAMS[name], seed)


@pytest.mark.parametrize("d", [20, 22])
def test_large_swapping_plans_match_the_oracle(d):
    # The plan alone: an oracle of the whole axis array would hold d rows
    # of 2^d partners, twice.
    plan, _ = _assert_plan_matches_oracle(build_context(d), BULK_PARAMS["swapping"], 1)
    assert len(plan.squares)


def test_default_plans_hash_no_pair_word(monkeypatch):
    # With the default parameters H is empty, so no (p, q) word is hashed,
    # by the bulk pass or by a single draw.
    hashed = []
    real_first_words = RandomTape._first_words

    def first_words(tape, tag, vertex_bytes):
        words = real_first_words(tape, tag, vertex_bytes)
        hashed.extend([tag] * len(words))
        return words

    monkeypatch.setattr(RandomTape, "_first_words", first_words)
    for d in range(8, 19):
        ctx = build_context(d)
        for seed in range(3):
            hashed.clear()
            tape = RandomTape(seed)
            plan = sample_plan(ctx, ConstructionParams(), tape)
            assert plan.h.size == 0 and plan.squares.size == 0
            assert hashed == [construct_mod._TAG_GPRIME] * code_size(ctx)
            assert construct_mod._TAG_PQ not in {tag for tag, _ in tape._heads}
            assert plan_summary(plan)["pairs_drawn"] == 0


def test_bulk_build_comparison_covers_every_outcome():
    # At d = 10 the parameter sets above swap squares, swap cubes and are
    # refused, so the comparison sees each path of the build.
    plans = {
        name: [_assert_bulk_matches_oracle(CTX10, params, seed) for seed in range(4)]
        for name, params in BULK_PARAMS.items()
    }
    for name, got in plans.items():
        built = [p for p in got if p is not None]
        assert bool(built) and any(len(p.squares) for p in built) == (name != "defaults")
    assert any(p is not None and p.g.size for p in plans["cubes"])
    assert None in plans["cubes"] and None in plans["no-conflict-check"]


def test_rejected_pair_draws_fall_back_to_the_exact_draw(monkeypatch):
    # Halve the rejection limit, so that about half the first (p, q) words
    # are refused and the bulk draw must redraw them one by one.
    real = construct_mod._uniform_limit
    monkeypatch.setattr(construct_mod, "_uniform_limit", lambda n: real(n) // 2)
    ctx, tape = CTX10, RandomTape(13)
    n = ctx.d * (ctx.d - 1)
    cw = ctx._codeword_array
    mask = np.arange(len(cw)) % 3 == 0
    pairs = np.full((len(cw), 2), -1)
    construct_mod._draw_pairs(ctx, tape, pairs, mask)
    first = [tape._word(construct_mod._TAG_PQ, u, 0) for u in cw[mask].tolist()]
    assert any(w >= real(n) // 2 for w in first)
    for u, row, drawn in zip(cw.tolist(), pairs.tolist(), mask.tolist()):
        assert row == (list(tape.pair_positions(u, ctx.d)) if drawn else [-1, -1])
    # The plan's squares keep the redrawn pairs, as the per-vertex draws do.
    plan, _ = _assert_plan_matches_oracle(ctx, SCALED, 13)
    assert len(plan.squares)


def test_tape_words_match_a_freshly_keyed_hash():
    tape = RandomTape(2**63 + 5)
    key = tape.seed.to_bytes(8, "big")
    # Every tag and counter, each word through the prefix hash the tape keeps.
    for tag in range(4):
        for counter in range(10):
            for vertex in (0, 255, 256, 2**21 + 1):
                msg = bytes([tag]) + counter.to_bytes(4, "big") + vertex.to_bytes(
                    (vertex.bit_length() + 7) // 8 or 1, "big"
                )
                fresh = int.from_bytes(blake2b(msg, key=key, digest_size=8).digest(), "big")
                assert tape._word(tag, vertex, counter) == fresh
                assert tape._word(tag, vertex, counter) == fresh
    assert set(tape._heads) == {(tag, counter) for tag in range(4) for counter in range(10)}
    # sample_plan's passes: the first word of one tag for many vertices.
    vertices = [0, 1, 255, 256, 65535, 65536, 2**22 - 1]
    vbytes = [construct_mod._vertex_bytes(v) for v in vertices]
    for tag in range(4):
        batch = tape._first_words(tag, iter(vbytes))
        assert batch.dtype == np.uint64 and batch.shape == (len(vertices),)
        fresh = [
            int.from_bytes(blake2b(bytes([tag]) + bytes(4) + vb, key=key, digest_size=8).digest(), "big")
            for vb in vbytes
        ]
        assert batch.tolist() == fresh
    assert tape._first_words(0, []).shape == (0,)
    label = b"fac:3:0"
    assert tape.derive_seed(label.decode()) == int.from_bytes(
        blake2b(bytes([3]) + label, key=key, digest_size=8).digest(), "big"
    )


# -- hand-crafted plans -------------------------------------------------------------


# At d = 7 the direction labelled x sits at position x - 1.


def _square_plan(*squares):
    """A plan of the squares given as (u, p, q) rows of direction positions."""
    return SwapPlan(
        CTX7, ConstructionParams(), 0, (), (), [u for u, _, _ in squares], squares, (),
        len(squares),
    )


def _cube_plan(v, positions):
    """A plan of the one cube swap at v across the given direction positions."""
    params = ConstructionParams(cube_dim=len(positions))
    return SwapPlan(CTX7, params, 0, (v,), (v,), (), (), [positions], 0)


def test_single_square_swap():
    plan = _square_plan((0, 0, 1))
    fac = apply_explicit(CTX7, plan)
    assert validate(fac).ok
    # square corners 0,1,2,3: factors 1 and 2 exchange the four edges
    assert fac.partner(0, 2) == 1
    assert fac.partner(0, 1) == 2
    assert fac.partner(3, 2) == 2
    assert fac.partner(3, 1) == 1
    assert not fac.untouched(edge_at(CTX7.space, 0, 1))
    assert not fac.untouched(edge_at(CTX7.space, 0, 2))
    assert fac.untouched(edge_at(CTX7.space, 0, 3))
    assert fac.factor_of(edge_at(CTX7.space, 0, 1)) == 2
    assert touched_edge_count(fac) == 4


def test_single_cube_swap():
    plan = _cube_plan(0, (0, 1, 2))
    fac = apply_explicit(CTX7, plan)
    assert validate(fac).ok
    bits = [CTX7.space.bit_of(x) for x in (1, 2, 3)]
    members = [b0 | b1 | b2 for b0 in (0, 1) for b1 in (0, 2) for b2 in (0, 4)]
    for w in members:
        # direction r_i edges end up in factor r_(i+1), cyclically
        assert fac.partner(w, 2) == w ^ bits[0]
        assert fac.partner(w, 3) == w ^ bits[1]
        assert fac.partner(w, 1) == w ^ bits[2]
    assert touched_edge_count(fac) == 3 * (1 << 2)
    assert plan_summary(plan)["touched_edges"] == 12


def test_overlapping_squares_raise():
    plan = _square_plan((0, 0, 1), (7, 1, 2))
    with pytest.raises(OverlapError, match="overlapping swap regions"):
        apply_explicit(CTX7, plan)


def test_overlap_error_names_the_first_clash_in_claim_order():
    # The squares share the slots (121, 2) and (125, 2).  Square 127 claims
    # its corners 127, 123, 125, 121 in that order, so its first clash is at
    # vertex 125, while 121 comes first in the order of the flat slot index.
    plan = _square_plan((120, 2, 0), (127, 2, 1))
    with pytest.raises(OverlapError) as want:
        _oracle_partners(CTX7, plan)
    with pytest.raises(OverlapError) as got:
        apply_explicit(CTX7, plan)
    assert str(got.value) == str(want.value)
    assert "(vertex=125, direction index 2)" in str(got.value)
    vertex, dir_pos, _ = construct_mod._square_claims(plan.squares)
    slot = np.sort(dir_pos << CTX7.d | vertex)
    assert slot[1:][slot[1:] == slot[:-1]][0] == 2 << CTX7.d | 121


def test_active_square_off_the_code_is_refused():
    with pytest.raises(ValueError, match="^square at 0000001 is not at a codeword$"):
        _square_plan((1, 0, 1))


def test_cube_off_the_code_is_refused():
    # Unrefused, the cube at 128 would write its slots past the cube's 2^7
    # vertices into other factors' rows, a factorisation validate rejects.
    with pytest.raises(ValueError, match="^cube at 0000001 is not at a codeword$"):
        _cube_plan(1, (0, 1, 2))
    with pytest.raises(ValueError, match="^vertex 128 does not fit in d=7 bits$"):
        _cube_plan(128, (0, 1, 2))


def test_plan_arrays_are_read_only_and_sized_to_the_sites():
    plan = sample_plan(CTX10, SCALED, RandomTape(13))
    assert plan.squares.shape[1] == 3 and plan.cubes.shape == (len(plan.g), SCALED.cube_dim)
    assert plan.squares.dtype == plan.cubes.dtype == np.int64
    for name in ("gprime", "g", "h", "squares", "cubes"):
        array = getattr(plan, name)
        assert array.dtype == np.int64 or array.dtype == np.uint32
        with pytest.raises(ValueError):
            array[:1] = 0
    assert len(plan.h) < plan.pairs_drawn < code_size(CTX10)
    assert plan_summary(plan)["pairs_drawn"] == plan.pairs_drawn
    # The arrays are the plan's own: a hand-built plan does not share the
    # rows it was given.
    rows = np.array([[0, 0, 1]])
    hand = _square_plan(*rows)
    rows[0, 1] = 3
    assert hand.squares.tolist() == [[0, 0, 1]]
    with pytest.raises(ValueError, match=r"^squares must have shape \(1, 3\)$"):
        SwapPlan(CTX7, ConstructionParams(), 0, (), (), (0,), [(0, 1)], (), 1)
    with pytest.raises(ValueError, match=r"^cubes must have shape \(1, 6\)$"):
        SwapPlan(CTX7, ConstructionParams(), 0, (0,), (0,), (), (), (), 0)


@pytest.mark.parametrize(
    "plan, message",
    [
        # Unrefused, (3, 3) would build a factorisation that passes validate
        # with no square swapped, (0, 7) would raise a bare IndexError and
        # the cube (1, 1, 2) would build one that validate rejects.
        (lambda: _square_plan((0, 3, 3)), "square at 0000000 draws positions (3, 3), not 2"),
        (lambda: _square_plan((7, 0, 7)), "square at 0000111 draws positions (0, 7), not 2"),
        (lambda: _square_plan((7, -1, 2)), "square at 0000111 draws positions (-1, 2), not 2"),
        (lambda: _cube_plan(0, (1, 1, 2)), "cube at 0000000 draws positions (1, 1, 2), not 3"),
        (lambda: _cube_plan(127, (6, 0, 7)), "cube at 1111111 draws positions (6, 0, 7), not 3"),
    ],
    ids=["square-repeat", "square-past-d", "square-negative", "cube-repeat", "cube-past-d"],
)
def test_plan_refuses_malformed_sites(plan, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)} distinct positions below d=7$"):
        plan()


# -- full construction ---------------------------------------------------------------


def test_construction_dim_guard():
    with pytest.raises(ValueError, match="d >= 7"):
        build_explicit(build_context(5), ConstructionParams(), RandomTape(0))
    with pytest.raises(ValueError, match="cube_dim"):
        build_explicit(CTX7, ConstructionParams(cube_dim=8), RandomTape(0))


def test_construction_validates_and_counts_touched():
    # with cube_dim 1 a cube swap's cycle is one factor long and moves nothing
    one_cycle = ConstructionParams(pg=0.05, rg=6, rh=4, cube_dim=1)
    for params, seed in ((SCALED, 0), (SCALED, 13), (SCALED, 49), (one_cycle, 4)):
        fac = build_explicit(CTX10, params, RandomTape(seed))
        assert validate(fac).ok
        summary = plan_summary(fac.plan)
        assert summary["g"] > 0 or params is SCALED
        assert touched_edge_count(fac) == summary["touched_edges"]


def test_construction_is_deterministic():
    a = build_explicit(CTX10, SCALED, RandomTape(13))
    b = build_explicit(CTX10, SCALED, RandomTape(13))
    c = build_explicit(CTX10, SCALED, RandomTape(14))
    assert all((a.table(x) == b.table(x)).all() for x in CTX10.space.directions)
    assert any((a.table(x) != c.table(x)).any() for x in CTX10.space.directions)


def test_overlap_is_rejected_transactionally():
    # scaled radii break the disjointness precondition for some seeds
    with pytest.raises(OverlapError, match="overlapping swap regions"):
        build_explicit(CTX10, SCALED, RandomTape(4))


def test_touched_edges_stay_local():
    fac = build_explicit(CTX10, SCALED, RandomTape(13))
    plan = fac.plan
    base = directional(CTX10)
    cube_masks = [
        (v, sum(1 << i for i in r)) for v, r in zip(plan.g.tolist(), plan.cubes.tolist())
    ]
    for x in CTX10.space.directions:
        pt, bt = fac.table(x), base.table(x)
        for u in np.nonzero(pt != bt)[0].tolist():
            v = int(pt[u])
            near_square = any(
                min(hamming_distance(u, w), hamming_distance(v, w)) <= 2
                for w in plan.squares[:, 0].tolist()
            )
            in_cube = any(
                (u ^ c) & ~mask == 0 and (v ^ c) & ~mask == 0
                for c, mask in cube_masks
            )
            assert near_square or in_cube


def test_implicit_matches_explicit_spot_checks():
    exp = build_explicit(CTX10, SCALED, RandomTape(13))
    imp = implicit_factorisation(CTX10, SCALED, RandomTape(13))
    rng = np.random.default_rng(0)
    for u in rng.integers(0, 1 << 10, size=300).tolist():
        for x in CTX10.space.directions:
            assert imp.partner(int(u), x) == int(exp.table(x)[u])


SWAPPING = ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4)


# At d = 20 the swapping setting draws no cube swap (G was empty for seeds
# 0-11), so there the square swaps alone are compared.
@pytest.mark.parametrize("d, seed", [(14, 6), (16, 2), (18, 1), (20, 0)])
def test_implicit_matches_explicit_past_d10(d, seed):
    ctx = build_context(d)
    exp = build_explicit(ctx, SWAPPING, RandomTape(seed))
    imp = implicit_factorisation(ctx, SWAPPING, RandomTape(seed))
    assert touched_edge_count(exp) > 0
    assert bool(exp.plan.g.size) == (d < 20) and len(exp.plan.squares)
    rng = np.random.default_rng(d)
    dirs = ctx.space.directions
    slots = set()
    # every slot of the cube swaps, some the square swaps moved, some uniform
    for v, r in zip(exp.plan.g.tolist(), exp.plan.cubes.tolist()):
        mask = sum(1 << i for i in r)
        sub = mask
        while True:
            slots.update((v ^ sub, dirs[i]) for i in r)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    for i, x in enumerate(ctx.space.directions):
        moved = np.flatnonzero(exp.table(x) != (np.arange(1 << d) ^ (1 << i)))
        slots.update((int(u), x) for u in rng.choice(moved, size=min(20, moved.size)))
    slots.update(
        (int(u), int(rng.choice(ctx.space.directions)))
        for u in rng.integers(0, 1 << d, size=200)
    )
    moved = 0
    for u, x in sorted(slots):
        v = imp.partner(u, x)
        assert v == int(exp.table(x)[u])
        moved += v != u ^ ctx.space.bit_of(x)
    assert moved > 300


def test_implicit_queries_past_the_explicit_cap():
    ctx = build_context(23)
    with pytest.raises(ValueError, match="explicit-mode cap"):
        build_explicit(ctx, SWAPPING, RandomTape(3))
    imp = implicit_factorisation(ctx, SWAPPING, RandomTape(3))
    rng = np.random.default_rng(23)
    moved = 0
    for u in rng.integers(0, 1 << 23, size=12).tolist():
        # the codeword next to u (if any) and one of its square directions
        w, _ = adjacent_codeword(ctx, u) or (u, None)
        for x in (ctx.space.directions[imp._pq[w][0]], int(rng.choice(ctx.space.directions))):
            v = imp.partner(w, x)
            assert hamming_distance(v, w) == 1
            assert imp.partner(v, x) == w
            moved += v != w ^ ctx.space.bit_of(x)
    assert moved > 0
    # Queries read the code array here, never the explicit build's byte list.
    assert "_codeword_bytes" not in vars(ctx)


def test_implicit_queries_past_the_code_array_build_no_code_cache():
    # Past 2^20 codewords the queries enumerate balls instead.
    ctx = build_context(26)
    params = ConstructionParams(pg=0.01, rg=3, rh=2, cube_dim=2)
    imp = implicit_factorisation(ctx, params, RandomTape(3))
    for u in np.random.default_rng(26).integers(0, 1 << 26, size=6).tolist():
        for x in ctx.space.directions[:4]:
            assert hamming_distance(imp.partner(u, x), u) == 1
    assert "_codeword_array" not in vars(ctx)
    assert "_codeword_bytes" not in vars(ctx)


@pytest.mark.parametrize("d, seed", [(12, 6), (14, 6)])
def test_implicit_queries_draw_only_the_cubes_that_reach_them(d, seed):
    # A cube at v can claim the slot (u, x) only if (u ^ v) | bit(x) has at
    # most cube_dim bits; no other G' point near u may have its directions
    # drawn.
    ctx = build_context(d)
    exp = build_explicit(ctx, SWAPPING, RandomTape(seed))
    imp = implicit_factorisation(ctx, SWAPPING, RandomTape(seed))
    m = SWAPPING.cube_dim
    assert exp.plan.g.size
    rng = np.random.default_rng(d)

    def reaches(v, u, x):
        return ((u ^ v) | ctx.space.bit_of(x)).bit_count() <= m

    def ask(queries):
        for u, x in sorted(queries):
            assert imp.partner(u, x) == int(exp.table(x)[u])
        assert all(any(reaches(v, u, x) for u, x in queries) for v in imp._r6)

    # Slots m steps from each G' point v along other directions than x: v
    # lies within distance m of each, but its cube cannot reach them.
    far = set()
    for v in exp.plan.gprime.tolist():
        for _ in range(4):
            pos = rng.choice(d, size=m + 1, replace=False).tolist()
            far.add((v ^ sum(1 << i for i in pos[:m]), ctx.space.directions[pos[m]]))
    ask(far)
    assert set(exp.plan.gprime.tolist()) - set(imp._r6)
    # Then the slots of every cube swap, and slots at random.
    queries = set(far)
    for v, r in zip(exp.plan.g.tolist(), exp.plan.cubes.tolist()):
        queries.update((v ^ 1 << i, ctx.space.directions[i]) for i in r)
    queries.update(
        (int(u), int(rng.choice(ctx.space.directions))) for u in rng.integers(0, 1 << d, size=100)
    )
    ask(queries)
    assert set(exp.plan.g.tolist()) <= set(imp._r6)


@pytest.mark.parametrize("d", range(12, 19))
def test_default_parameters_swap_nothing_at_sampled_slots(d):
    ctx = build_context(d)
    imp = implicit_factorisation(ctx, ConstructionParams(), RandomTape(d))
    rng = np.random.default_rng(d)
    for u in rng.integers(0, 1 << d, size=6).tolist():
        # the codeword next to u (if any) along its first square direction,
        # and u along a uniform direction
        w, _ = adjacent_codeword(ctx, u) or (u, None)
        for v, x in (
            (w, ctx.space.directions[imp._pq[w][0]]),
            (u, int(rng.choice(ctx.space.directions))),
        ):
            assert imp.partner(v, x) == v ^ ctx.space.bit_of(x)


def test_implicit_refuses_a_ball_past_the_bound_before_any_query(monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("a Hamming ball was enumerated")

    monkeypatch.setattr(code_mod, "codewords_in_ball", no_ball)
    ctx = build_context(32)
    # C(32, <= 14) is about 1.28e9, past the bound of 1e9.
    with pytest.raises(ValueError, match=r"d=32 .* radius 14 \(rg\)"):
        implicit_factorisation(ctx, ConstructionParams(), RandomTape(1))
    with pytest.raises(ValueError, match=r"radius 15 \(cube_dim\)"):
        implicit_factorisation(ctx, ConstructionParams(rg=3, rh=2, cube_dim=15), RandomTape(1))
    implicit_factorisation(ctx, SWAPPING, RandomTape(1))
    # C(31, <= 14) is about 7.7e8: the defaults still build up to d = 31.
    for d in range(26, 32):
        implicit_factorisation(build_context(d), ConstructionParams(), RandomTape(1))
    assert "_codeword_array" not in vars(ctx)


def test_factorisation_is_freed_without_the_cycle_collector():
    # The implicit caches must not point back at the factorisation, or every
    # dropped explicit twin would keep its tables until a collection runs.
    # Analysing a factorisation must not keep it alive either.
    imp = implicit_factorisation(CTX10, SCALED, RandomTape(13))
    for u in range(0, 1 << 10, 5):
        imp.partner(u, 1)
    exp = build_explicit(CTX10, SCALED, RandomTape(13))
    union_components(exp, exp.directions[:3])
    refs = [weakref.ref(imp), weakref.ref(exp)]
    gc.disable()
    try:
        del imp, exp
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_implicit_overlap_raises_at_query_time():
    imp = implicit_factorisation(CTX10, SCALED, RandomTape(4))
    with pytest.raises(OverlapError):
        for u in range(1 << 10):
            for x in CTX10.space.directions:
                imp.partner(u, x)


def test_materialize_round_trip():
    imp = implicit_factorisation(CTX10, SCALED, RandomTape(13))
    exp = imp.materialize()
    assert exp.mode == "explicit"
    assert validate(exp).ok
    assert touched_edge_count(imp.materialize()) == touched_edge_count(exp)


# -- greedy sampler ---------------------------------------------------------------


def test_greedy_is_a_valid_factorisation():
    # at d = 14 augmenting paths run deeper than Python's default recursion limit
    for d, seed in ((3, 1), (4, 7), (7, 3), (14, 1)):
        fac = random_greedy_factorisation(build_context(d), RandomTape(seed))
        assert validate(fac).ok
        assert set(fac.directions) == set(build_context(d).space.directions)


def test_greedy_seeds_differ():
    ctx = build_context(4)
    distinct = 0
    for i in range(20):
        a = random_greedy_factorisation(ctx, RandomTape(1000 + 2 * i))
        b = random_greedy_factorisation(ctx, RandomTape(1001 + 2 * i))
        if any((a.table(x) != b.table(x)).any() for x in ctx.space.directions):
            distinct += 1
    assert distinct >= 18


# -- file format --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    fac = build_explicit(CTX10, SCALED, RandomTape(13))
    path = tmp_path / "fac.jsonl"
    save_factorisation(fac, str(path))
    loaded = load_factorisation(str(path))
    assert loaded.kind == "construction"
    assert loaded.seed == 13
    assert all(
        (loaded.table(x) == fac.table(x)).all() for x in CTX10.space.directions
    )
    p2 = tmp_path / "fac2.jsonl"
    save_factorisation(fac, str(p2))
    assert filecmp.cmp(str(path), str(p2), shallow=False)


def test_save_load_implicit_stub(tmp_path):
    imp = implicit_factorisation(CTX10, SCALED, RandomTape(13))
    path = tmp_path / "imp.jsonl"
    save_factorisation(imp, str(path))
    loaded = load_factorisation(str(path))
    assert loaded.mode == "implicit"
    exp = build_explicit(CTX10, SCALED, RandomTape(13))
    for u in range(0, 1 << 10, 17):
        assert loaded.partner(u, 5) == int(exp.table(5)[u])


def test_load_reports_line_numbers(tmp_path):
    fac = build_explicit(CTX10, SCALED, RandomTape(13))
    path = tmp_path / "fac.jsonl"
    _per_edge_save(fac, str(path))
    lines = path.read_text().splitlines()
    assert json.loads(lines[2])["edges"]
    lines[2] = lines[2][:-1]  # truncate one JSON object
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="parse error at line 3"):
        load_factorisation(str(path))


def test_load_rejects_empty_and_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="line 1"):
        load_factorisation(str(path))
    path.write_text(json.dumps({"type": "factorisation"}) + "\n")
    with pytest.raises(ValueError, match="missing key"):
        load_factorisation(str(path))


def test_load_missing_edges_fail_validation(tmp_path):
    # A moved edge left out of its line puts its two ends back on the
    # factor's own axis, where their partners hold other slots.
    fac = build_explicit(CTX10, SCALED, RandomTape(13))
    path = tmp_path / "fac.jsonl"
    _per_edge_save(fac, str(path))
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    assert obj["edges"][0] == ["0001001010", 14]
    obj["edges"] = obj["edges"][1:]
    lines[1] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    loaded = load_factorisation(str(path))
    rep = validate(loaded)
    assert not rep.ok
    assert (rep.vertex, rep.factor) == (74, 1)
    assert rep.message == "factor is not an involution"


@pytest.mark.parametrize(
    "make",
    [
        lambda: directional(CTX7),
        lambda: build_explicit(CTX10, SCALED, RandomTape(13)),
        lambda: build_explicit(build_context(12), SWAPPING, RandomTape(1)),
        lambda: random_greedy_factorisation(CTX10, RandomTape(5)),
        lambda: implicit_factorisation(CTX10, SCALED, RandomTape(13)),
    ],
    ids=["directional-d7", "swapping-d10", "swapping-d12", "greedy-d10", "implicit-stub"],
)
def test_save_matches_per_edge_writer(tmp_path, make):
    fac = make()
    ours, ref = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl"
    save_factorisation(fac, str(ours))
    _per_edge_save(fac, str(ref))
    assert ours.read_bytes() == ref.read_bytes()
    if fac.mode == "explicit":
        loaded = load_factorisation(str(ours))
        for x in fac.directions:
            assert (loaded.table(x) == fac.table(x)).all()
        lines = [json.loads(line) for line in ours.read_text().splitlines()[1:]]
        assert [obj["factor"] for obj in lines] == list(fac.directions)
        assert sum(len(obj["edges"]) for obj in lines) == touched_edge_count(fac)


def test_swapping_file_has_two_digit_labels(tmp_path):
    # the oracle comparison above covers labels of both widths only if the
    # file mixes one- and two-digit labels and moves edges between factors
    fac = build_explicit(CTX10, SCALED, RandomTape(13))
    assert touched_edge_count(fac) > 0
    path = tmp_path / "fac.jsonl"
    save_factorisation(fac, str(path))
    labels = {e[1] for ln in path.read_text().splitlines()[1:] for e in json.loads(ln)["edges"]}
    assert min(labels) < 10 <= max(labels)


def _write_factor_line(tmp_path, edges, factor=1):
    fac = directional(CTX7)
    path = tmp_path / "fac.jsonl"
    _per_edge_save(fac, str(path))
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        if json.loads(lines[i])["factor"] == factor:
            lines[i] = json.dumps({"factor": factor, "edges": edges})
            break
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_rejects_edges_sharing_a_vertex(tmp_path):
    # (a,b), (b,c), (a,d) with a = 0, b = 1, c = 3, d = 4; loading edge by
    # edge would let later writes win and keep {a-d, b-c}
    sp = CTX7.space
    x1, x2, x3 = sp.directions[:3]
    a, b = vertex_text(sp, 0), vertex_text(sp, 1)
    path = _write_factor_line(tmp_path, [[a, x1], [b, x2], [a, x3]], factor=x1)
    with pytest.raises(ValueError, match=r"parse error at line 2: factor 1 .* vertex 000000[01]"):
        load_factorisation(str(path))


def test_load_accepts_an_edge_listed_twice(tmp_path):
    sp = CTX7.space
    x = sp.directions[0]
    edges = [[vertex_text(sp, u), x] for u in range(0, 1 << 7, 2)]
    path = _write_factor_line(tmp_path, edges + edges[:3], factor=x)
    loaded = load_factorisation(str(path))
    assert validate(loaded).ok
    assert (loaded.table(x) == directional(CTX7).table(x)).all()


# -- loader: one json decoder for every layout --------------------------------------


def _writer_lines(fac, tmp_path):
    path = tmp_path / "writer.jsonl"
    save_factorisation(fac, str(path))
    return path.read_bytes().split(b"\n")[:-1]


def _write_lines(tmp_path, lines, end=b"\n"):
    path = tmp_path / "variant.jsonl"
    path.write_bytes(b"".join(line + end for line in lines))
    return str(path)


def _relayout(line, **dumps):
    obj = json.loads(line)
    if dumps.pop("reverse", False):
        obj["edges"].reverse()
    return json.dumps(obj, **dumps).encode()


def _swapping_d10():
    return build_explicit(CTX10, SCALED, RandomTape(13))


def _greedy_d10():
    return random_greedy_factorisation(CTX10, RandomTape(5))


INPUTS_D10 = pytest.mark.parametrize(
    "make", [_swapping_d10, _greedy_d10], ids=["swapping", "greedy"]
)


@INPUTS_D10
def test_other_json_layouts_load_the_same_partners(tmp_path, make):
    fac = make()
    lines = _writer_lines(fac, tmp_path)
    variants = {
        "writer": (lines, b"\n"),
        "default-separators": ([lines[0]] + [_relayout(x) for x in lines[1:]], b"\n"),
        "sorted-keys": ([lines[0]] + [_relayout(x, sort_keys=True) for x in lines[1:]], b"\n"),
        "reversed-edges": ([lines[0]] + [
            _relayout(x, reverse=True, separators=(",", ":")) for x in lines[1:]
        ], b"\n"),
        "crlf": (lines, b"\r\n"),
    }
    for name, (body, end) in variants.items():
        loaded = load_factorisation(_write_lines(tmp_path, body, end))
        assert np.array_equal(partner_rows(loaded), partner_rows(fac)), name


def _first_entry(line):
    """(start, label start, end) of the first ["lo",label] entry of a writer line."""
    start = line.index(b'["')
    return start, line.index(b'",', start) + 2, line.index(b"]", start)


def _with_label(label):
    def corrupt(line):
        start, at, end = _first_entry(line)
        return line[:at] + label + line[end:]
    return corrupt


def _digit_two(line):
    start = line.index(b'["') + 2 + 4
    return line[:start] + b"2" + line[start + 1:]


def _truncated(keep):
    def corrupt(line):
        start, at, end = _first_entry(line)
        return line[: start + keep] + line[end + 1:]
    return corrupt


def _second_edge_at_lo(line):
    start, at, end = _first_entry(line)
    other = b"1" if line[at:end] != b"1" else b"2"
    return line[:at] + other + b"]," + line[start:]


def _duplicated(line):
    start, at, end = _first_entry(line)
    return line[: end + 1] + b"," + line[start:]


def _load_or_error(path):
    try:
        return partner_rows(load_factorisation(path))
    except ValueError as exc:
        return str(exc)


# What the json path made of each corrupted first factor line of a writer
# file, whose first entry is (lo, label): the parse error at line 2, made by
# a function of lo where it names lo, or JSON for the error json.loads itself
# gives on the line, or SAME when the file loads to the original partner
# array, or OWN when the factor's row is left on its own axis.
JSON, SAME, OWN = "json", "same", "own"


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (_digit_two, lambda lo: f"expected a 10-digit binary string, got '{lo[:4]}2{lo[5:]}'"),
        (_with_label(b"99"), "direction 99 not in X"),
        (_with_label(b"123"), "direction 123 not in X"),
        (_with_label(b"012"), JSON),
        (_with_label(b""), JSON),
        (lambda line: line.replace(b'["00', b'["', 1),
         lambda lo: f"expected a 10-digit binary string, got '{lo[2:]}'"),
        (_truncated(2 + 5), JSON),
        (_truncated(2 + 10 + 2), JSON),
        (_second_edge_at_lo, lambda lo: f"factor 1 lists two edges at vertex {lo}"),
        (_duplicated, SAME),
        (lambda line: line.replace(b'{"factor":', b'{"factor":0', 1), JSON),
        (lambda line: b'{"factor":99' + line[line.index(b","):], "unknown factor 99"),
        (lambda line: line[: line.index(b"[") + 1] + b"]}", OWN),
        (lambda line: line[:-1], JSON),
        (lambda line: line + b" ", SAME),
        (lambda line: line[:-2] + b"5" + line[-2:], JSON),
    ],
    ids=["digit-2", "label-99", "label-123", "label-012", "no-label", "short-text",
         "cut-in-text", "cut-after-text", "two-edges-at-lo", "duplicated-edge", "factor-leading-zero",
         "unknown-factor", "no-edges", "cut-suffix", "trailing-space", "byte-before-close"],
)
@INPUTS_D10
def test_corrupted_writer_lines_match_the_json_path(tmp_path, make, corrupt, expected):
    fac = make()
    lines = _writer_lines(fac, tmp_path)
    lo = json.loads(lines[1])["edges"][0][0]
    assert lo.startswith("00")
    lines[1] = corrupt(lines[1])
    got = _load_or_error(_write_lines(tmp_path, lines))
    if expected == JSON:
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(lines[1])
        expected = str(exc.value)
    elif callable(expected):
        expected = expected(lo)
    if expected in (SAME, OWN):
        want = partner_rows(fac)
        if expected == OWN:
            want[0] = np.arange(1 << 10) ^ 1
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert got == "parse error at line 2: " + expected


def test_lines_end_at_newline_only(tmp_path):
    # U+2028 and U+0085 may stand unescaped in a JSON string, and
    # str.splitlines would break the line there.
    fac = directional(build_context(6))
    lines = _writer_lines(fac, tmp_path)
    obj = json.loads(lines[1])
    obj["note"] = "a\u2028b\u0085c"
    lines[1] = json.dumps(obj, ensure_ascii=False).encode()
    path = _write_lines(tmp_path, lines)
    assert np.array_equal(partner_rows(load_factorisation(path)), partner_rows(fac))
    broken = lines[:3] + [lines[3][:-1]] + lines[4:]
    with pytest.raises(ValueError, match="parse error at line 4: "):
        load_factorisation(_write_lines(tmp_path, broken))
    # a form feed or \x1c..\x1e is no line break either; unescaped in a
    # string it is an invalid control character on the line it sits on
    for char in b"\x0c\x1c\x1e":
        noted = lines[2][:-1] + b',"note":"a%c"}' % char
        with pytest.raises(ValueError, match="parse error at line 3: Invalid control"):
            load_factorisation(_write_lines(tmp_path, lines[:2] + [noted] + lines[3:]))
    # bytes that are not UTF-8 are an error on their own line, too
    with pytest.raises(ValueError, match="parse error at line 3: 'utf-8' codec"):
        load_factorisation(_write_lines(tmp_path, lines[:2] + [lines[2] + b"\xff"] + lines[3:]))
