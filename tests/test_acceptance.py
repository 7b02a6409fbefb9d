"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every test prints its line before asserting, so a red run still shows the
status of each criterion with `pytest -s` or in the captured output.
"""

import filecmp
import json
import random
import time
from itertools import combinations

import numpy as np

from cubefactors import cli
from cubefactors.analyze import (
    bfs_components,
    code_intersections,
    decomposition_of,
    rmin,
    tf_class_sizes,
    tf_context,
    tf_label,
    union_components,
    validate,
)
from cubefactors.code import build_context, enumerate_code
from cubefactors.construct import (
    ConstructionParams,
    RandomTape,
    build_explicit,
    directional,
    implicit_factorisation,
    load_factorisation,
    random_greedy_factorisation,
    save_factorisation,
    touched_edge_count,
)
from factor_files import partner_rows

SCALED = ConstructionParams(pg=0.05, rg=6, rh=4, cube_dim=6)
# Default parameters perform no swap at any d <= 22; these do at every d
# from 7 on, so the criteria that use them test the construction itself.
SWAPPING = ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4)

# minimum nonzero codeword weight per dimension; 4 at d in {4, 8} because
# the direction set there has no three elements summing to zero
MIN_DISTANCE = {3: 3, 4: 4, 5: 3, 6: 3, 7: 3, 8: 4, 9: 3, 10: 3, 11: 3, 12: 3}


def _report(n: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {n:02d} {name}: {detail}"


def test_criterion_01_validity():
    t0 = time.perf_counter()
    failures = []
    for d in range(7, 15):
        ctx = build_context(d)
        for seed in range(5):
            fac = build_explicit(ctx, ConstructionParams(), RandomTape(seed))
            rep = validate(fac)
            if not rep.ok:
                failures.append((d, seed, rep.message))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        1,
        "validity",
        ok,
        f"40 constructions validated in {elapsed:.1f}s, failures={failures}",
    )


def test_criterion_02_baseline_structure():
    failures = []
    checked = 0
    for d in range(3, 11):
        fac = directional(build_context(d))
        dirs = fac.directions
        for r in range(1, d + 1):
            want_count, want_size = 1 << (d - r), 1 << r
            for sub in combinations(dirs, r):
                rep = union_components(fac, sub)
                checked += 1
                if rep.count != want_count or set(rep.sizes) != {want_size}:
                    failures.append((d, sub, rep.count, rep.sizes[:3]))
    ok = not failures
    _report(
        2,
        "baseline structure",
        ok,
        f"{checked} factor subsets exhaustively checked for d=3..10, failures={failures[:3]}",
    )


def test_criterion_03_code_identities():
    t0 = time.perf_counter()
    failures = []
    for d in range(3, 13):
        ctx = build_context(d)
        words = list(enumerate_code(ctx))
        if len(words) != 1 << (d - ctx.k):
            failures.append((d, "size", len(words)))
        # the code is linear, so min distance equals min nonzero weight
        mind = min(w.bit_count() for w in words if w)
        if mind < 3 or mind != MIN_DISTANCE[d]:
            failures.append((d, "distance", mind))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(
        3,
        "code identities",
        ok,
        f"|C|=2^(d-k) for d=3..12; min distance >= 3, equal to 4 at d in {{4,8}} "
        f"and 3 otherwise; {elapsed:.1f}s, failures={failures}",
    )


def test_criterion_04_small_cube_code_identity():
    rng = random.Random(404)
    failures = []
    checked = 0
    for d in range(7, 13):
        ctx = build_context(d)
        for _ in range(20):
            dirs = tuple(sorted(rng.sample(ctx.space.directions, rng.randint(1, d))))
            ell = decomposition_of(ctx, dirs).subspace.dim
            expected = 1 << (len(dirs) - ell)
            tfc = tf_context(ctx, dirs)
            for cube_id, count in code_intersections(ctx, dirs).items():
                checked += 1
                psi_zero = tf_label(tfc, cube_id).psi == 0
                if count not in (0, expected) or (count > 0) != psi_zero:
                    failures.append((d, dirs, cube_id, count))
    ok = not failures
    _report(
        4,
        "small-cube code identity",
        ok,
        f"{checked} cubes over 120 random subsets: counts in {{0, 2^(|D|-ell)}} "
        f"and nonzero iff psi=0, failures={failures[:3]}",
    )


def test_criterion_05_tf_partition():
    # class count/size formulas hold when D meets the odd-weight directions;
    # subsets spanning only even-weight labels leave some cosets inactive and
    # follow the general per-active-coset formula instead (covered in the
    # analyze tests), so sampling here conditions on that intersection
    rng = random.Random(505)
    failures = []
    for d in range(3, 13):
        ctx = build_context(d)
        odd = {x for x in ctx.space.directions if x.bit_count() % 2 == 1}
        for _ in range(20):
            while True:
                dirs = tuple(
                    sorted(rng.sample(ctx.space.directions, rng.randint(1, d)))
                )
                if odd & set(dirs):
                    break
            tfc = tf_context(ctx, dirs)
            ell = tfc.dec.ell
            want_classes = 1 << ((1 << (ctx.k - ell)) - 1)
            want_size = 1 << (d - (1 << (ctx.k - ell)) + 1)
            sizes = tf_class_sizes(tfc)
            if len(sizes) != want_classes or set(sizes.values()) != {want_size}:
                failures.append((d, dirs, len(sizes)))
    ok = not failures
    _report(
        5,
        "tf partition",
        ok,
        "200 subsets with an odd-weight direction: 2^(2^(k-ell)-1) classes of "
        f"size 2^(d-2^(k-ell)+1), failures={failures[:3]}",
    )


def test_criterion_06_mode_equivalence():
    t0 = time.perf_counter()
    ctx = build_context(10)
    mismatches = 0
    for seed in (0, 13, 49):
        exp = build_explicit(ctx, SCALED, RandomTape(seed))
        imp = implicit_factorisation(ctx, SCALED, RandomTape(seed))
        for x in ctx.space.directions:
            pt = exp.table(x)
            for u in range(1 << 10):
                if imp.partner(u, x) != int(pt[u]):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300.0
    _report(
        6,
        "mode equivalence",
        ok,
        f"3 seeds x 10240 (u,x) pairs at d=10 scaled params, "
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_07_oracle_equivalence():
    rng = random.Random(707)
    pool = [directional(build_context(d)) for d in (4, 6, 9, 12)]
    pool += [
        random_greedy_factorisation(build_context(d), RandomTape(s))
        for d, s in ((4, 1), (5, 2), (6, 3))
    ]
    pool += [
        build_explicit(build_context(d), ConstructionParams(), RandomTape(s))
        for d, s in ((7, 0), (8, 1))
    ]
    pool.append(build_explicit(build_context(10), SCALED, RandomTape(13)))
    big = build_explicit(build_context(12), ConstructionParams(), RandomTape(2))
    cases = [(big, tuple(sorted(rng.sample(big.directions, 11))))]
    for _ in range(50):
        fac = rng.choice(pool)
        cases.append(
            (fac, tuple(sorted(rng.sample(fac.directions, rng.randint(1, fac.d)))))
        )
    failures = []
    for fac, dirs in cases:
        a = union_components(fac, dirs)
        b = bfs_components(fac, dirs)
        if a.count != b.count or a.sizes != b.sizes:
            failures.append((fac.d, fac.kind, dirs))
    ok = not failures
    _report(
        7,
        "oracle equivalence",
        ok,
        f"{len(cases)} random (factorisation, subset) instances, failures={failures}",
    )


def test_criterion_08_r_brute_force():
    got = {d: rmin(directional(build_context(d))).r for d in range(3, 9)}
    ok = all(got[d] == d for d in got)
    _report(8, "exact r", ok, f"directional r(M) per d: {got}")


def test_criterion_09_empirical_trend(tmp_path, capsys):
    failures = []
    for d in (12, 14):
        out = tmp_path / f"exp{d}.json"
        rc = cli.main(
            ["experiment", "--d", str(d), "--seeds", "5", "--samples", "200",
             "--out", str(out)]
        )
        if rc != 0:
            failures.append((d, "exit", rc))
            continue
        rep = json.loads(out.read_text())
        for entry in rep["results"]["per_seed"]:
            fr = entry["fractions"]
            if fr[0] != 0.0:
                failures.append((d, entry["index"], "r=1", fr[0]))
            if fr[-1] != 1.0:
                failures.append((d, entry["index"], "r=d", fr[-1]))
            if any(a > b for a, b in zip(fr, fr[1:])):
                failures.append((d, entry["index"], "monotone", fr))
    capsys.readouterr()
    ok = not failures
    _report(
        9,
        "empirical trend",
        ok,
        f"d in {{12,14}}, 5 seeds x 200 chains: fractions non-decreasing, "
        f"0.0 at r=1, 1.0 at r=d, failures={failures[:3]}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    rc1 = cli.main(["construct", "--d", "12", "--seed", "42", "--out", str(a)])
    rc2 = cli.main(["construct", "--d", "12", "--seed", "42", "--out", str(b)])
    capsys.readouterr()
    same = filecmp.cmp(str(a), str(b), shallow=False)
    ok = rc1 == 0 and rc2 == 0 and same
    _report(
        10,
        "determinism",
        ok,
        f"construct --d 12 --seed 42 twice: byte-identical={same}",
    )


def _swapping(d: int):
    fac = build_explicit(build_context(d), SWAPPING, RandomTape(1))
    return fac, touched_edge_count(fac)


def test_criterion_11_swapping_validity():
    t0 = time.perf_counter()
    failures = []
    touched = {}
    for d in range(7, 17):
        fac, touched[d] = _swapping(d)
        rep = validate(fac)
        if not rep.ok or touched[d] == 0:
            failures.append((d, rep.message, touched[d]))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        11,
        "swapping validity",
        ok,
        f"pg 0.005 rg 6 rh 3 cube_dim 4 at d=7..16 validated in {elapsed:.1f}s, "
        f"touched edges {touched}, failures={failures}",
    )


def test_criterion_12_swapping_file_round_trip(tmp_path):
    failures = []
    for d in range(7, 17):
        fac, touched = _swapping(d)
        path = tmp_path / f"fac{d}.jsonl"
        save_factorisation(fac, str(path))
        loaded = load_factorisation(str(path))
        if touched == 0 or not np.array_equal(partner_rows(loaded), partner_rows(fac)):
            failures.append((d, touched))
    ok = not failures
    _report(
        12,
        "swapping file round trip",
        ok,
        f"save then load at d=7..16 gives the built partner rows, failures={failures}",
    )


def test_criterion_13_swapping_mode_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1313)
    failures = []
    queries = 0
    for d in range(7, 13):
        exp, touched = _swapping(d)
        imp = implicit_factorisation(exp.ctx, SWAPPING, RandomTape(1))
        idx = np.arange(1 << d, dtype=np.uint32)
        # every (vertex, factor) slot of a touched edge, then random slots
        partners = partner_rows(exp)
        rows, us = np.nonzero(partners != idx ^ (np.uint32(1) << idx[:d, None]))
        slots = list(zip(us.tolist(), rows.tolist()))
        slots += [(rng.randrange(1 << d), rng.randrange(d)) for _ in range(256)]
        for u, i in slots:
            x = exp.directions[i]
            if imp.partner(u, x) != int(partners[i, u]):
                failures.append((d, u, x))
        queries += len(slots)
        if touched == 0:
            failures.append((d, "no touched edge"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(
        13,
        "swapping mode equivalence",
        ok,
        f"{queries} partner queries at d=7..12 on every touched edge and 256 "
        f"random slots per d, {elapsed:.1f}s, failures={failures[:3]}",
    )


def test_criterion_14_swapping_mode_equivalence_large_d():
    t0 = time.perf_counter()
    rng = random.Random(1414)
    failures = []
    queries = 0
    touched = {}
    for d in range(14, 19):
        exp, touched[d] = _swapping(d)
        imp = implicit_factorisation(exp.ctx, SWAPPING, RandomTape(1))
        idx = np.arange(1 << d, dtype=np.uint32)
        # a seeded sample of the touched (vertex, factor) slots, then random slots
        partners = partner_rows(exp)
        rows, us = np.nonzero(partners != idx ^ (np.uint32(1) << idx[:d, None]))
        moved = list(zip(us.tolist(), rows.tolist()))
        slots = rng.sample(moved, min(512, len(moved)))
        slots += [(rng.randrange(1 << d), rng.randrange(d)) for _ in range(256)]
        for u, i in slots:
            x = exp.directions[i]
            if imp.partner(u, x) != int(partners[i, u]):
                failures.append((d, u, x))
        queries += len(slots)
        if touched[d] == 0:
            failures.append((d, "no touched edge"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(
        14,
        "swapping mode equivalence at large d",
        ok,
        f"{queries} partner queries at d=14..18 on 512 sampled touched slots and "
        f"256 random slots per d, touched edges {touched}, {elapsed:.1f}s, "
        f"failures={failures[:3]}",
    )


def test_criterion_15_swapping_r_below_d():
    t0 = time.perf_counter()
    fac = build_explicit(build_context(12), SWAPPING, RandomTape(0))
    res = rmin(fac)
    components = bfs_components(fac, res.witness).count
    elapsed = time.perf_counter() - t0
    ok = touched_edge_count(fac) > 0 and res.r < 12 and components >= 2
    _report(
        15,
        "swapping r below d",
        ok,
        f"pg 0.005 rg 6 rh 3 cube_dim 4 at d=12 seed 0: r={res.r}, witness "
        f"{list(res.witness)} has {components} components, "
        f"{res.subsets_checked} subsets checked in {elapsed:.2f}s",
    )
