import filecmp
import hashlib
import json

import numpy as np

import pytest

import cubefactors.analyze as analyze_mod
import cubefactors.code as code_mod
import cubefactors.construct as construct_mod
from cubefactors import cli
from cubefactors.analyze import rmin, union_components
from cubefactors.code import build_context, code_size
from cubefactors.construct import (
    ConstructionParams,
    OverlapError,
    RandomTape,
    build_explicit,
    build_factorisation,
    load_factorisation,
    random_greedy_factorisation,
    touched_edge_count,
)
from cubefactors.cube import parse_vertex, vertex_text
from factor_files import _per_edge_save, count_label_misses, partner_rows

SCALED = ConstructionParams(pg=0.05, rg=6, rh=4, cube_dim=6)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


# -- construct ---------------------------------------------------------------------


def test_construct_writes_summary_and_file(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    rc, rep = run_json(
        capsys, "construct", "--d", "7", "--seed", "3", "--out", str(path)
    )
    assert rc == 0
    assert rep["operation"] == "construct"
    assert rep["d"] == 7 and rep["seed"] == 3 and rep["mode"] == "explicit"
    assert {"gprime", "g", "h", "active_squares", "pairs_drawn", "touched_edges"} <= set(rep)
    assert set(rep["timings"]) == {"sample_plan", "apply", "save"}
    # H and the conflict partners of its squares draw (p, q), and no other codeword.
    scaled = ["--pg", "0.05", "--rg", "6", "--rh", "4", "--cube-dim", "6"]
    rc, swap = run_json(capsys, "construct", "--d", "10", "--seed", "13", *scaled)
    assert rc == 0 and 0 < swap["h"] < swap["pairs_drawn"] < 64
    fac = load_factorisation(str(path))
    assert fac.d == 7


def test_construct_is_byte_identical(tmp_path, capsys):
    args = ["construct", "--d", "10", "--seed", "13", "--pg", "0.05",
            "--rg", "6", "--rh", "4", "--cube-dim", "6"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(str(a), str(b), shallow=False)


def test_construct_pg_zero_summary(capsys):
    rc, rep = run_json(capsys, "construct", "--d", "7", "--pg", "0")
    assert rc == 0
    assert rep["gprime"] == 0
    assert rep["g"] == 0
    assert rep["h"] == code_size(build_context(7))
    assert set(rep["timings"]) == {"sample_plan", "apply"}


def test_construct_small_d_is_a_usage_error(capsys):
    rc = cli.main(["construct", "--d", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "d >= 7" in err


def test_construct_overlap_is_a_failure(capsys):
    rc = cli.main(
        ["construct", "--d", "10", "--seed", "4", "--pg", "0.05",
         "--rg", "6", "--rh", "4"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "overlapping swap regions" in err


def test_construct_implicit_stub(tmp_path, capsys):
    path = tmp_path / "stub.jsonl"
    rc, rep = run_json(
        capsys, "construct", "--d", "8", "--mode", "implicit", "--out", str(path)
    )
    assert rc == 0 and rep["mode"] == "implicit"
    assert len(path.read_text().splitlines()) == 1
    assert load_factorisation(str(path)).mode == "implicit"


def test_implicit_mode_refuses_an_infeasible_ball_up_front(tmp_path, capsys):
    # The defaults' rg = 14 ball at d = 32 holds C(32, <= 14) > 1e9 vertices.
    assert cli.main(["construct", "--d", "32", "--mode", "implicit"]) == 2
    assert "d=32 would enumerate Hamming balls of radius 14 (rg)" in capsys.readouterr().err
    # A stored stub of the same factorisation is refused when loaded.
    path = tmp_path / "stub.jsonl"
    assert cli.main(["construct", "--d", "31", "--mode", "implicit", "--out", str(path)]) == 0
    header = json.loads(path.read_text())
    ctx = build_context(32)
    header.update(d=32, k=ctx.k, X=list(ctx.space.directions), params=ConstructionParams().as_dict(32))
    path.write_text(json.dumps(header) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 2
    assert "radius 14 (rg)" in capsys.readouterr().err


# sha256 of these construct --out files, as construct writes them in version
# 2 (only the edges off their own axis) and as the per-edge writer writes
# them.  The determinism contract says the same flags give the same bytes,
# whatever the implementation of the build.
GOLDEN_CONSTRUCT = {
    "default-d12": (
        ["--d", "12"],
        "f01440b80a9602bde44e4c499cac43474b12859f90261781a2d1150adce2ea17",
    ),
    "swapping-d12": (
        ["--d", "12", "--pg", "0.005", "--rg", "6", "--rh", "3", "--cube-dim", "4"],
        "82fa82ae220661c80aa164bb0e10357c2a67368fc4357456bcd7a0ed6ed0e076",
    ),
    "swapping-d16": (
        ["--d", "16", "--pg", "0.005", "--rg", "6", "--rh", "3", "--cube-dim", "4"],
        "df5a3d0afbacf2a703651a1707b272aea58005ed25a25dec12c606635353f704",
    ),
    "readme-d10": (
        ["--d", "10", "--seed", "13", "--pg", "0.05", "--rg", "6", "--rh", "4",
         "--cube-dim", "6"],
        "db84d8365bce33afdc74d88d92b6b1b7407bff8930e1b55eeabfad1816a96acc",
    ),
}


# sha256 of the partner rows, the stack of table(x) over the directions, of
# the factorisations built from the GOLDEN_CONSTRUCT flag sets and of one
# greedy and one directional build, pinned while a factorisation stored its
# partners.
GOLDEN_PARTNER_ROWS = {
    "default-d12": "524a9be36bc84b98f917c9850cbdc23658035050065ae9f7d9afbbb301935998",
    "swapping-d12": "350113ec09be94c32a92304b979077b0598e8be73e837b09247ebd6c611950ed",
    "swapping-d16": "f9db384b9afd790386aba0575d6fd31f48f4f3e94f629e8d081a715495f10ee8",
    "readme-d10": "6f4a7b0b75cbf470e2f9ba6cf39ef61f0eff6b53fa3f1fbcc681726424abfc97",
    "greedy-d9": "186ab1256ff90bc5b96398b5dbd40d34026e4bbe70f467eadbd15a7f874e4aa5",
    "directional-d11": "1d40cff5acc03f630016e142a0722e4049e72335fa5a7e30a7e7f18fae767191",
}
OTHER_BUILDS = {"greedy-d9": ("greedy", 9, 5), "directional-d11": ("directional", 11, 0)}


def _golden_build(name):
    """The factorisation built from a GOLDEN_CONSTRUCT flag set or named in OTHER_BUILDS."""
    if name in OTHER_BUILDS:
        kind, d, seed = OTHER_BUILDS[name]
        return build_factorisation(build_context(d), kind, ConstructionParams(), RandomTape(seed))
    ns = cli.build_parser().parse_args(["construct", *GOLDEN_CONSTRUCT[name][0]])
    return build_explicit(build_context(ns.d), cli._params_from(ns), RandomTape(cli._seed(ns)))


@pytest.mark.parametrize("name", list(GOLDEN_PARTNER_ROWS))
def test_partner_rows_are_pinned(name):
    rows = partner_rows(_golden_build(name))
    assert hashlib.sha256(rows.tobytes()).hexdigest() == GOLDEN_PARTNER_ROWS[name]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_CONSTRUCT))
def test_construct_out_bytes_are_pinned(tmp_path, capsys, name):
    args, digest = GOLDEN_CONSTRUCT[name]
    path, ref = tmp_path / "fac.jsonl", tmp_path / "ref.jsonl"
    assert cli.main(["construct", *args, "--out", str(path)]) == 0
    capsys.readouterr()
    assert _sha256(path) == digest
    fac = _golden_build(name)
    _per_edge_save(fac, str(ref))
    assert _sha256(ref) == digest
    assert np.array_equal(partner_rows(load_factorisation(str(path))), partner_rows(fac))


README_D10 = GOLDEN_CONSTRUCT["readme-d10"][0]


def test_version_1_file_is_refused(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", *README_D10, "--out", str(path)]) == 0
    capsys.readouterr()
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    old = tmp_path / "v1.jsonl"
    old.write_bytes(json.dumps({**header, "version": 1}).encode() + b"\n" + rest)
    assert cli.main(["verify", "--in", str(old)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at line 1: version 1 is no longer read; ")
    # The header names what rebuilds the file, byte for byte.
    fac = build_factorisation(
        build_context(header["d"]), header["kind"],
        ConstructionParams.from_dict(header["params"]), RandomTape(header["seed"]),
    )
    rebuilt = tmp_path / "rebuilt.jsonl"
    construct_mod.save_factorisation(fac, str(rebuilt))
    assert filecmp.cmp(str(rebuilt), str(path), shallow=False)


def test_default_d16_file_lists_no_edge(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    rc, rep = run_json(capsys, "construct", "--d", "16", "--out", str(path))
    assert rc == 0 and rep["touched_edges"] == 0
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["version"] == 2
    dirs = build_context(16).space.directions
    assert lines[1:] == ['{"factor":%d,"edges":[]}' % x for x in dirs]


def test_construct_implicit_keeps_one_construct_timing(monkeypatch, capsys):
    rc, rep = run_json(capsys, "construct", "--d", "8", "--mode", "implicit")
    assert rc == 0
    # the plan drawn only for the report's counts is timed as sample_plan
    assert set(rep["timings"]) == {"construct", "sample_plan"}
    assert {"gprime", "g", "h", "active_squares", "pairs_drawn", "touched_edges"} <= set(rep)
    assert rep["baseline_only"] is (rep["touched_edges"] == 0)
    # past the explicit cap no plan is drawn, so there are no counts
    monkeypatch.setenv("CUBEFACTORS_MAX_EXPLICIT_D", "7")
    rc, rep = run_json(capsys, "construct", "--d", "8", "--mode", "implicit")
    assert rc == 0
    assert set(rep["timings"]) == {"construct"}
    assert not {"touched_edges", "baseline_only"} & set(rep)


def test_a_bad_explicit_cap_is_named(monkeypatch, capsys):
    monkeypatch.setenv("CUBEFACTORS_MAX_EXPLICIT_D", "abc")
    assert cli.main(["construct", "--d", "8"]) == 2
    err = capsys.readouterr().err
    assert "CUBEFACTORS_MAX_EXPLICIT_D must be an integer, got 'abc'" in err


SWAPPING = ["--pg", "0.005", "--rg", "6", "--rh", "3", "--cube-dim", "4"]


@pytest.mark.parametrize(
    "swap, params",
    [([], ConstructionParams()),
     (SWAPPING, ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4))],
    ids=["zero-swap", "swapping"],
)
def test_reports_say_what_was_built(tmp_path, monkeypatch, capsys, swap, params):
    touched = touched_edge_count(build_explicit(build_context(10), params, RandomTape(1)))
    assert (touched > 0) == bool(swap)
    built = {"touched_edges": touched, "baseline_only": touched == 0}

    fac_file = tmp_path / "fac.jsonl"
    rc, rep = run_json(capsys, "construct", "--d", "10", "--seed", "1", *swap,
                       "--out", str(fac_file))
    assert rc == 0
    assert (rep["touched_edges"], rep["baseline_only"]) == (touched, touched == 0)
    out = tmp_path / "verify.json"
    rc, rep = run_json(capsys, "verify", "--in", str(fac_file), "--out", str(out))
    assert rc == 0
    assert {k: rep[k] for k in built} == {k: json.loads(out.read_text())[k] for k in built} == built
    source = ["--d", "10", "--kind", "construction", "--seed", "1", *swap]
    for argv in (["analyze", *source, "--op", "components"], ["rmin", *source]):
        out = tmp_path / "report.json"
        rc, rep = run_json(capsys, *argv, "--out", str(out))
        assert rc == 0
        stored = json.loads(out.read_text())
        assert {k: rep[k] for k in built} == {k: stored[k] for k in built} == built

    out = tmp_path / "exp.json"
    rc, rep = run_json(
        capsys, "experiment", "--d", "10", "--seeds", "2", "--samples", "5", *swap,
        "--out", str(out),
    )
    assert rc == 0
    for entry in json.loads(out.read_text())["results"]["per_seed"]:
        fac = build_explicit(build_context(10), params, RandomTape(entry["seed"]))
        n = touched_edge_count(fac)
        assert (entry["touched_edges"], entry["baseline_only"]) == (n, n == 0)
        assert (n > 0) == bool(swap)

    # an implicit file is counted through its explicit twin, up to the cap
    stub = tmp_path / "stub.jsonl"
    assert cli.main(["construct", "--d", "10", "--seed", "1", "--mode", "implicit",
                     *swap, "--out", str(stub)]) == 0
    capsys.readouterr()
    rc, rep = run_json(capsys, "analyze", "--in", str(stub), "--op", "components")
    assert rc == 0 and {k: rep[k] for k in built} == built
    monkeypatch.setenv("CUBEFACTORS_MAX_EXPLICIT_D", "9")
    rc, rep = run_json(capsys, "analyze", "--in", str(stub), "--op", "decomposition")
    assert rc == 0
    assert rep["touched_edges"] is None and rep["baseline_only"] is None


@pytest.mark.parametrize(
    "argv",
    [["rmin"], ["analyze", "--op", "components"], ["export"], ["verify"]],
    ids=["rmin", "analyze", "export", "verify"],
)
def test_implicit_stub_is_built_once_and_refused_past_the_cap(
    tmp_path, monkeypatch, capsys, argv
):
    calls = []
    real = construct_mod.build_explicit

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct_mod, "build_explicit", counted)
    # The same seed saved in both modes, under one name, so that verify's
    # report, which names its input file, can match too.
    builds, written = {}, {}
    for mode in ("explicit", "implicit"):
        (tmp_path / mode).mkdir()
        monkeypatch.chdir(tmp_path / mode)
        assert cli.main(["construct", "--d", "8", "--seed", "4", *SWAPPING,
                         "--mode", mode, "--out", "fac.jsonl"]) == 0
        calls.clear()
        assert cli.main([*argv, "--in", "fac.jsonl", "--out", "out.txt"]) == 0
        builds[mode] = len(calls)
        written[mode] = (tmp_path / mode / "out.txt").read_bytes()
    capsys.readouterr()
    assert builds == {"explicit": 0, "implicit": 1}
    assert written["implicit"] == written["explicit"]

    monkeypatch.setenv("CUBEFACTORS_MAX_EXPLICIT_D", "7")
    assert cli.main([*argv, "--in", "fac.jsonl"]) == 2
    assert "explicit-mode cap 7" in capsys.readouterr().err


# -- verify ------------------------------------------------------------------------


def test_verify_accepts_good_file(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", "--d", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    rc, rep = run_json(capsys, "verify", "--in", str(path), "--out", str(out))
    assert rc == 0
    assert rep["ok"] is True
    assert "violation" not in rep
    assert set(rep["timings"]) == {"load", "validate"}
    assert json.loads(out.read_text()) == {
        "operation": "verify", "in": str(path), "ok": True,
        "touched_edges": 0, "baseline_only": True,
    }


def _greedy_file(path):
    """A d = 7 greedy factorisation as the writer saves it: nearly every edge
    is off its own axis, so the line of factor 1 lists edges."""
    fac = random_greedy_factorisation(build_context(7), RandomTape(0))
    construct_mod.save_factorisation(fac, str(path))
    assert json.loads(path.read_text().splitlines()[1])["edges"][0] == ["0000000", 7]


def test_verify_flags_corrupted_file(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", *README_D10, "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["edges"] = obj["edges"][1:]
    lines[1] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    rc, rep = run_json(capsys, "verify", "--in", str(path))
    assert rc == 1
    assert rep["ok"] is False
    # The dropped edge's end 74 is back on factor 1's own axis, whose
    # partner there still matches elsewhere.
    assert rep["violation"]["message"] == "factor is not an involution"
    assert rep["violation"]["vertex_text"] == vertex_text(build_context(10).space, 74)
    # A faulty file says nothing of what was built.
    assert "touched_edges" not in rep and "baseline_only" not in rep


def test_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    path.write_text('{"type": "factorisation"}\nnot json\n')
    rc = cli.main(["verify", "--in", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "parse error at line 1" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("type", "report", "type 'report' is not 'factorisation'"),
        ("version", 7, "unsupported version 7"),
        ("mode", "banana", "unknown mode 'banana'"),
        # true and 2.0 equal an int version as numbers, but only the int 2 is read.
        ("version", True, "version must be an integer, got True"),
        ("version", 2.0, "version must be an integer, got 2.0"),
        ("version", "2", "version must be an integer, got '2'"),
        ("version", 1, "version 1 is no longer read; rebuild the file from its header's "
         "kind, seed and params with build_factorisation and save_factorisation"),
        ("version", 3, "unsupported version 3"),
    ],
    ids=["type-report", "version-7", "mode-banana", "version-true", "version-2.0",
         "version-string", "version-1", "version-3"],
)
def test_verify_refuses_a_bad_header_field(tmp_path, capsys, field, value, message):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", *README_D10, "--out", str(path)]) == 0
    capsys.readouterr()
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[field] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    with pytest.raises(ValueError, match="^parse error at line 1: "):
        load_factorisation(str(path))
    rc = cli.main(["verify", "--in", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: parse error at line 1: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"factor":1.0,"edges":[["0000010",true]]}', "unknown factor 1.0"),
        ('{"factor":true,"edges":[]}', "unknown factor True"),
        ('{"factor":1,"edges":[["0000010",true]]}', "direction True not in X"),
        ('{"factor":1,"edges":[["0000001",2.0]]}', "direction 2.0 not in X"),
    ],
    ids=["float-factor", "bool-factor", "bool-direction", "float-direction"],
)
def test_verify_refuses_labels_that_are_not_integers(tmp_path, capsys, line, message):
    # 1.0 and true equal the label 1 as dict keys, but are no JSON integers.
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", "--d", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[1] == '{"factor":1,"edges":[]}'
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^parse error at line 2: {message}$"):
        load_factorisation(str(path))
    assert cli.main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: parse error at line 2: {message}\n"


def _no_context(d):
    raise AssertionError(f"a context was built for d={d}")


@pytest.mark.parametrize(
    "mode, edits, message",
    [
        ("explicit", {"d": 8.0}, "d must be an integer, got 8.0"),
        ("explicit", {"d": True}, "d must be an integer, got True"),
        ("implicit", {"d": "8"}, "d must be an integer, got '8'"),
        ("explicit", {"d": 1 << 40}, "d=1099511627776 exceeds the explicit-mode cap"),
        ("implicit", {"d": 40}, "d=40 would enumerate Hamming balls of radius 14 (rg)"),
        ("implicit", {"d": 1 << 40}, "d=1099511627776 would enumerate Hamming balls of radius 14"),
        ("implicit", {"d": 1 << 40, "params": {"rg": 10**12}},
         "d=1099511627776 would enumerate Hamming balls of radius 1000000000000 (rg)"),
        ("implicit", {"d": 10**6, "params": {"rg": 1, "rh": 0, "cube_dim": 1}},
         "d=1000000 would enumerate Hamming balls of radius 2 (squares)"),
    ],
    ids=["float", "bool", "string", "explicit-huge", "implicit-40", "implicit-huge",
         "implicit-huge-radius", "implicit-squares"],
)
def test_load_refuses_a_header_d_before_building_its_context(
    tmp_path, monkeypatch, capsys, mode, edits, message
):
    # The context's tables grow with d: a d the file's mode cannot answer
    # at is refused from the header, and no context is built for it.
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", "--d", "8", "--mode", mode, "--out", str(path)]) == 0
    capsys.readouterr()
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header.update(edits, params={**header["params"], **edits.get("params", {})})
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    monkeypatch.setattr(code_mod, "build_context", _no_context)
    assert cli.main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at line 1: ") and message in err


def test_verify_refuses_header_params_of_the_wrong_type(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", *README_D10, "--out", str(path)]) == 0
    capsys.readouterr()
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["params"]["cube_dim"] = 2.5
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
    assert cli.main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: parse error at line 1: cube_dim must be an integer, got 2.5\n"


def _set_first_edge(value):
    def mutate(obj):
        obj["edges"][0] = value(obj["edges"][0])
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_first_edge(lambda e: 5), "pair"),
        (_set_first_edge(lambda e: [5, e[1]]), "binary string, got 5"),
        (_set_first_edge(lambda e: [e[0], 99]), "direction 99 not in X"),
        (_set_first_edge(lambda e: [e[0], e[1], 1]), "pair"),
        (_set_first_edge(lambda e: ["000000", e[1]]), "binary string"),
        (_set_first_edge(lambda e: ["0000002", e[1]]), "binary string"),
        (lambda obj: obj.update(edges=7), "edges must be a list"),
        (lambda obj: obj.update(factor=[1]), "unhashable"),
        (lambda obj: obj.pop("edges"), "missing key 'edges'"),
    ],
    ids=["int-edge", "int-text", "unknown-direction", "triple", "short-text",
         "bad-digit", "edges-int", "factor-list", "no-edges"],
)
def test_verify_reports_malformed_factor_lines(tmp_path, capsys, mutate, message):
    path = tmp_path / "fac.jsonl"
    _greedy_file(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    mutate(obj)
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="parse error at line 2: "):
        load_factorisation(str(path))
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error at line 2: " in err and message in err


def test_verify_rejects_edges_sharing_a_vertex(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    _greedy_file(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    # lo = 0000000 across direction 2 meets the listed edge at 0000000 across 7
    obj["edges"].append(["0000000", 2])
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error at line 2: factor 1 lists two edges at vertex 000000" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:3] + lines[4:],
         "parse error at line 11: the file ends with no line for factor 3"),
        (lambda lines: lines[:-1],
         "parse error at line 11: the file ends with no line for factor 14"),
        (lambda lines: lines + [lines[2]],
         "parse error at line 12: factor 2 is listed again (first at line 3)"),
        (lambda lines: lines[:5] + [lines[2]] + lines[5:],
         "parse error at line 6: factor 2 is listed again (first at line 3)"),
    ],
    ids=["missing-middle", "missing-last", "repeated-at-end", "repeated-inside"],
)
def test_verify_needs_one_line_per_factor_in_version_2(tmp_path, capsys, edit, message):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", *README_D10, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_verify_flags_a_dropped_edge_in_version_2(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", *README_D10, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    assert obj["edges"]
    obj["edges"] = obj["edges"][1:]
    lines[1] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc, rep = run_json(capsys, "verify", "--in", str(path))
    assert rc == 1 and rep["ok"] is False
    parse_vertex(build_context(10).space, rep["violation"]["vertex_text"])


def test_verify_requires_infile(capsys):
    rc = cli.main(["verify"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--in is required" in err


# -- analyze ------------------------------------------------------------------------


def test_analyze_components_directional(capsys):
    rc, rep = run_json(
        capsys, "analyze", "--d", "7", "--op", "components", "--factors", "1,2,3"
    )
    assert rc == 0
    assert rep["results"]["component_count"] == 16
    assert rep["results"]["size_histogram"] == [[8, 16]]
    assert rep["factors"] == [1, 2, 3]


def test_analyze_small_cubes(capsys):
    rc, rep = run_json(
        capsys, "analyze", "--d", "7", "--op", "small-cubes", "--factors", "1,2,3"
    )
    assert rc == 0
    assert rep["results"] == {"cubes": 16, "connected": 16, "fraction": 1.0}


def test_analyze_tf(capsys):
    rc, rep = run_json(
        capsys, "analyze", "--d", "7", "--op", "tf", "--factors", "1,2,3"
    )
    assert rc == 0
    res = rep["results"]
    assert res["ell"] == 2
    assert res["class_count"] == 2
    assert res["class_size_histogram"] == [[64, 2]]
    assert res["all_classes_connected"] is False


def test_analyze_code_cubes(capsys):
    rc, rep = run_json(
        capsys, "analyze", "--d", "7", "--op", "code-cubes", "--factors", "1,2,4"
    )
    assert rc == 0
    res = rep["results"]
    assert res["cubes"] == 16 and res["nonzero"] == 16
    assert res["value_histogram"] == [[1, 16]]
    assert res["psi_agreement"] is True


def test_analyze_paths(capsys):
    rc, rep = run_json(capsys, "analyze", "--d", "7", "--op", "paths")
    assert rc == 0
    assert rep["results"] == {"disturbed_histogram": [[0, 112]], "max_disturbed": 0}


def test_analyze_paths_on_an_implicit_stub_past_the_cap(tmp_path, monkeypatch, capsys):
    # The count reads the axis array, so past the cap a stub is refused at
    # once, with the cap named, like every other analysis of the factors.
    stub = tmp_path / "stub.jsonl"
    assert cli.main(["construct", "--d", "8", "--seed", "4", *SWAPPING,
                     "--mode", "implicit", "--out", str(stub)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CUBEFACTORS_MAX_EXPLICIT_D", "7")
    assert cli.main(["analyze", "--in", str(stub), "--op", "paths"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "materialize() first" in err and "explicit-mode cap 7" in err


def test_analyze_decomposition(capsys):
    rc, rep = run_json(
        capsys, "analyze", "--d", "7", "--op", "decomposition", "--factors", "1,2,3"
    )
    assert rc == 0
    res = rep["results"]
    assert res["ell"] == 2 and res["coset_label_count"] == 2
    assert set(res["basis"]) <= {1, 2, 3}


def test_analyze_reads_stored_factorisation(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", "--d", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    rc, rep = run_json(capsys, "analyze", "--in", str(path), "--op", "components")
    assert rc == 0
    assert rep["results"]["component_count"] == 1
    assert rep["kind"] == "construction"


def test_analyze_random_subset_is_seeded(capsys):
    rc1, rep1 = run_json(
        capsys, "analyze", "--d", "7", "--r", "3", "--seed", "5", "--op", "components"
    )
    rc2, rep2 = run_json(
        capsys, "analyze", "--d", "7", "--r", "3", "--seed", "5", "--op", "components"
    )
    assert rc1 == rc2 == 0
    assert rep1["factors"] == rep2["factors"]
    assert len(rep1["factors"]) == 3
    assert rep1["results"]["component_count"] == 16


def test_analyze_subset_flag_conflicts(capsys):
    rc = cli.main(["analyze", "--d", "7", "--factors", "1,2", "--r", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "mutually exclusive" in err
    rc = cli.main(["analyze", "--d", "7", "--factors", "1,banana"])
    assert cli.main(["analyze", "--d", "7", "--r", "9"]) == 2
    assert rc == 2


def test_analyze_out_file_has_no_timings(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, shown = run_json(
        capsys, "analyze", "--d", "7", "--op", "components", "--out", str(path)
    )
    assert rc == 0
    stored = json.loads(path.read_text())
    assert "timings" in shown and "timings" not in stored
    shown.pop("timings")
    assert shown == stored


def test_analyze_unknown_op_is_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--d", "7", "--op", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


# sha256 of these analyze --out files as the two-elimination decompose wrote
# them: tf and code-cubes read every coset label, so a change to the
# direction-subset algebra that moved one label would change these bytes.
GOLDEN_ANALYZE = {
    "directional-d9": (
        ["--d", "9", "--factors", "8,13,14"],
        {
            "tf": "5b421bbb6b0308313cdc8c11d5614b598316462470cde8093f69fcf29ec865f8",
            "code-cubes": "d5f5c86cc235e3376d16c4356812b03e651c54ff5c46a77557549c9705543639",
            "decomposition": "fac9cac1a5c13572e6492fc5afb4ea93dc1ac2247300a67a14c20f14c5d579e0",
        },
    ),
    "directional-d10": (
        ["--d", "10", "--factors", "3,5,13"],
        {
            "tf": "513a8645a65aabad5cfb4e2d88cf2edbb653a586b37a4e508dad6da4d691100a",
            "code-cubes": "09a1586bc43b1dd43050e08788acac009d8a7864b8bf4aa6d29847c317b835d3",
            "decomposition": "54254dbae2eee280003ca83b3cd3184804f7e5402172774bdf4aeaf1244461e1",
        },
    ),
    "directional-d12": (
        ["--d", "12", "--factors", "6,9"],
        {
            "tf": "e6193cd7b58ee969a01914c1b2f54d26e7811076f56dfb7eef58715d7c1bd105",
            "code-cubes": "e224453eccea5c6c62381c1b1cba231d98bce9851ce35d5ec3b03bc1aef6bf1e",
            "decomposition": "813172ebe0f926c3fcc90d26ef6bfb3c9bcd6af484afda1952124e452b993c47",
        },
    ),
    "swapping-d10": (
        ["--kind", "construction", "--d", "10", "--seed", "13", "--pg", "0.05", "--rg", "6",
         "--rh", "4", "--cube-dim", "6", "--factors", "2,5,7"],
        {
            "tf": "bfe5f62fde941958dc6acc479ec6d02b5bcc2a085fd10a2c874d492b850d7a09",
            "code-cubes": "ce809c8299230720bdf321d84662841c7dc3896586749a7a3530f32e048c345f",
            "decomposition": "28c9b1aede1325ce189099ce3a77d07ac8460731c9d47eadaed317263a30009f",
        },
    ),
    "swapping-d10-wide": (
        ["--kind", "construction", "--d", "10", "--seed", "13", "--pg", "0.05", "--rg", "6",
         "--rh", "4", "--cube-dim", "6", "--factors", "1,2,3,4,5,7"],
        {
            "tf": "b2ea63374fca0f288585ee3e2469931b9263833890bea2e4ff1b80ccfd42d174",
            "code-cubes": "37647d82759995c3881519326bcec899d536d3ea9b38ee6436f9b4396f05394f",
            "decomposition": "3b2e9ecd1bf80f7addd82847a796ea8c7bf5ab2a75c46fc33620c0fb82f01c2e",
        },
    ),
}


@pytest.mark.parametrize(
    "name, op", [(name, op) for name, (_, ops) in GOLDEN_ANALYZE.items() for op in ops]
)
def test_analyze_out_bytes_are_pinned(tmp_path, capsys, name, op):
    args, digests = GOLDEN_ANALYZE[name]
    path = tmp_path / "report.json"
    assert cli.main(["analyze", *args, "--op", op, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[op]


def test_analyze_several_ops_report_what_each_alone_reports(tmp_path, capsys, monkeypatch):
    args, _ = GOLDEN_ANALYZE["swapping-d10-wide"]
    ops = ["components", "small-cubes", "tf", "decomposition"]
    alone = []
    for op in ops:
        path = tmp_path / f"{op}.json"
        assert cli.main(["analyze", *args, "--op", op, "--out", str(path)]) == 0
        alone.append(json.loads(path.read_text()))
    capsys.readouterr()
    labellings = count_label_misses(monkeypatch)
    path = tmp_path / "all.json"
    argv = ["analyze", *args, *(x for op in ops for x in ("--op", op)), "--out", str(path)]
    rc, shown = run_json(capsys, *argv)
    assert rc == 0
    assert json.loads(path.read_text()) == alone
    for rep in shown:
        assert set(rep.pop("timings")) == {rep["operation"]}
    assert shown == alone
    # components, small-cubes and tf label the subset once between them.
    assert len(labellings) == 1


def test_analyze_closed_cosets(capsys):
    rc, rep = run_json(capsys, "analyze", "--d", "8", "--factors", "1,2,4", "--op", "closed-cosets")
    assert rc == 0
    assert rep["results"] == {"closed": 32, "cosets": 32, "vertex": 0}
    args, _ = GOLDEN_ANALYZE["swapping-d10-wide"]
    rc, rep = run_json(capsys, "analyze", *args, "--op", "closed-cosets")
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    closed, cosets, vertex = analyze_mod.closed_cosets(fac, [1, 2, 3, 4, 5, 7])
    assert rep["results"] == {"closed": closed, "cosets": cosets, "vertex": vertex}
    assert cosets == 16 and 0 < closed < cosets


def test_analyze_rejects_an_op_given_twice(capsys):
    rc = cli.main(["analyze", "--d", "7", "--op", "tf", "--op", "components", "--op", "tf"])
    assert rc == 2
    assert "more than once" in capsys.readouterr().err


# -- rmin ---------------------------------------------------------------------------


def test_rmin_directional(capsys):
    rc, rep = run_json(capsys, "rmin", "--d", "3")
    assert rc == 0
    assert rep["r"] == 3
    # Every coset of the directional baseline is closed.
    assert rep["witness"] == {"factors": [1, 2], "vertex": 4, "closed_coset": True}
    assert rep["subsets_checked"] == 3
    # The two smaller sets hold closed cosets; the full set is one coset.
    timings = rep["timings"]
    assert set(timings) == {"build", "search", "subsets_closed", "subsets_certified", "subsets_fold"}
    assert (timings["subsets_closed"], timings["subsets_certified"], timings["subsets_fold"]) == (2, 1, 0)


def test_rmin_out_is_the_same_twice_and_reports_the_witness(tmp_path, capsys):
    source = ["--d", "12", "--kind", "construction", *SWAPPING]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        rc, shown = run_json(capsys, "rmin", *source, "--out", str(path))
        assert rc == 0
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    rep = json.loads(paths[0].read_text())
    assert rep == {k: v for k, v in shown.items() if k != "timings"}
    params = ConstructionParams(pg=0.005, rg=6, rh=3, cube_dim=4)
    fac = build_explicit(build_context(12), params, RandomTape(0))
    res = rmin(fac)
    assert (rep["r"], rep["subsets_checked"]) == (res.r, res.subsets_checked)
    closed = analyze_mod.in_closed_coset(fac, res.witness, res.vertex)
    assert rep["witness"] == {"factors": list(res.witness), "vertex": res.vertex, "closed_coset": closed}


def test_rmin_guard(capsys):
    rc = cli.main(["rmin", "--d", "19"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "guarded to d <= 18" in err


# -- experiment ------------------------------------------------------------------------


def test_experiment_fractions_are_monotone(tmp_path, capsys):
    path = tmp_path / "exp.json"
    rc, rep = run_json(
        capsys, "experiment", "--d", "7", "--kind", "greedy",
        "--seeds", "2", "--samples", "20", "--out", str(path)
    )
    assert rc == 0
    assert rep["seeds"] == 2 and rep["samples"] == 20
    for entry in rep["results"]["per_seed"]:
        fr = entry["fractions"]
        assert len(fr) == 7
        assert all(a <= b for a, b in zip(fr, fr[1:]))
        assert fr[-1] == 1.0
    agg = rep["results"]["aggregate"]
    assert len(agg) == 7 and agg[-1] == 1.0
    p2 = tmp_path / "exp2.json"
    args = ["experiment", "--d", "7", "--kind", "greedy",
            "--seeds", "2", "--samples", "20", "--out", str(p2)]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert filecmp.cmp(str(path), str(p2), shallow=False)


def test_experiment_shows_how_each_prefix_was_settled_on_stdout_only(tmp_path, capsys):
    path = tmp_path / "exp.json"
    rc, rep = run_json(
        capsys, "experiment", "--d", "10", "--seeds", "2", "--samples", "5", *SWAPPING,
        "--out", str(path),
    )
    assert rc == 0
    timings = rep.pop("timings")
    assert json.loads(path.read_text()) == rep
    prefixes = {k: v for k, v in timings.items() if k.startswith("prefixes_")}
    assert set(prefixes) == {"prefixes_closed", "prefixes_certified", "prefixes_fold"}
    # One settled prefix per prefix walked: each chain walks r of them.
    walked = sum(
        round(sum(1 - f for f in entry["fractions"]) * 5) + 5
        for entry in rep["results"]["per_seed"]
    )
    assert sum(prefixes.values()) == walked
    assert prefixes["prefixes_closed"] > 0 and prefixes["prefixes_certified"] > 0


SWAPPING_SWEEP = ["experiment", "--d", "10", "--seeds", "20", *SWAPPING, "--samples", "20"]


def test_experiment_replaces_refused_seeds(tmp_path, capsys):
    path = tmp_path / "exp.json"
    rc, rep = run_json(capsys, *SWAPPING_SWEEP, "--out", str(path))
    assert rc == 0
    results = rep["results"]
    assert [e["index"] for e in results["per_seed"]] == list(range(20))
    refused = results["refused"]
    assert refused
    master = RandomTape(0)
    for entry in results["per_seed"]:
        i = entry["index"]
        draws = [master.derive_seed(f"fac:{i}")]
        draws += [
            master.derive_seed(f"fac:{i}:{k}") for k in range(1, cli.EXPERIMENT_DRAWS)
        ]
        mine = [e["seed"] for e in refused if e["index"] == i]
        # Refused draws come first, in order; the next draw is the one kept.
        assert draws[: len(mine) + 1] == mine + [entry["seed"]]
    for e in refused:
        with pytest.raises(OverlapError):
            build_explicit(build_context(10), ConstructionParams(
                pg=0.005, rg=6, rh=3, cube_dim=4), RandomTape(e["seed"]))
    assert json.loads(path.read_text())["results"]["refused"] == refused


def test_experiment_gives_up_after_every_draw_is_refused(monkeypatch, capsys):
    def refuse(ctx, params, tape):
        raise OverlapError("overlapping swap regions")

    monkeypatch.setattr(construct_mod, "build_explicit", refuse)
    rc = cli.main(["experiment", "--d", "7", "--seeds", "2", "--samples", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    master = RandomTape(0)
    assert "seed index 0" in err
    assert str(master.derive_seed("fac:0")) in err
    assert str(master.derive_seed(f"fac:0:{cli.EXPERIMENT_DRAWS - 1}")) in err


def test_experiment_validates_counts(capsys):
    rc = cli.main(["experiment", "--d", "7", "--seeds", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "must be positive" in err


# -- export -------------------------------------------------------------------------


def test_export_edge_list_round_trip(tmp_path, capsys):
    rc, out = run(capsys, "export", "--d", "3", "--factors", "1,2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 8
    ctx = build_context(3)
    seen = set()
    for line in lines:
        a, b, x = line.split()
        u = parse_vertex(ctx.space, a)
        v = parse_vertex(ctx.space, b)
        assert u ^ v == ctx.space.bit_of(int(x))
        seen.add((u, v, int(x)))
    assert len(seen) == 8
    from cubefactors.construct import directional

    rep = union_components(directional(ctx), [1, 2])
    assert rep.count == 2


def test_export_dot_format(tmp_path, capsys):
    path = tmp_path / "graph.dot"
    rc, _ = run(
        capsys, "export", "--d", "3", "--factors", "1,2", "--format", "dot",
        "--out", str(path)
    )
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "graph factors {"
    assert lines[-1] == "}"
    assert len(lines) == 10
    assert all('--' in ln and 'label=' in ln for ln in lines[1:-1])


SWAP_FLAGS = ["--kind", "construction", "--d", "10", "--seed", "13",
              "--pg", "0.05", "--rg", "6", "--rh", "4", "--cube-dim", "6"]


def _expected_export(fac, dirs, fmt):
    space = fac.ctx.space
    lines = ["graph factors {"] if fmt == "dot" else []
    for x in dirs:
        pt = fac.table(x)
        for u in range(1 << fac.d):
            v = int(pt[u])
            if u < v:
                a, b = vertex_text(space, u), vertex_text(space, v)
                if fmt == "dot":
                    lines.append(f'  "{a}" -- "{b}" [label="{x}"];')
                else:
                    lines.append(f"{a} {b} {x}")
    if fmt == "dot":
        lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["edge-list", "dot"])
def test_export_swapping_d10_matches_vertex_text(tmp_path, fmt):
    fac = build_explicit(build_context(10), SCALED, RandomTape(13))
    assert touched_edge_count(fac) > 0
    for dirs in (fac.directions, (1, 2, 11)):
        path = tmp_path / f"{fmt}.txt"
        argv = ["export", *SWAP_FLAGS, "--format", fmt, "--out", str(path)]
        argv += ["--factors", ",".join(map(str, dirs))]
        assert cli.main(argv) == 0
        got = path.read_text().splitlines(keepends=True)
        want = _expected_export(fac, dirs, fmt).splitlines(keepends=True)
        # line by line: pytest's diff of two long strings takes minutes
        assert len(got) == len(want)
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None


# sha256 of export's output for SWAP_FLAGS over every factor, which a faster
# row writer must keep.
GOLDEN_EXPORT = {
    "edge-list": "7a8b715af42001322c3e752d11a777d0ccb63ab697d9811a7bf44ede4fdba0ff",
    "dot": "6d826c616e7de4870a4d34f9737d17d3dbbf92384538eb8e8ac485929b5956e3",
}


@pytest.mark.parametrize("fmt", list(GOLDEN_EXPORT))
def test_export_bytes_are_pinned(tmp_path, fmt):
    path = tmp_path / f"{fmt}.txt"
    assert cli.main(["export", *SWAP_FLAGS, "--format", fmt, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_EXPORT[fmt]


def test_export_dot_guard(capsys):
    rc = cli.main(["export", "--d", "11", "--format", "dot"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "guarded to d <= 10" in err


# -- config files -------------------------------------------------------------------


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "op": "components", "factors": "1,2"}))
    rc, rep = run_json(capsys, "analyze", "--config", str(cfg))
    assert rc == 0
    assert rep["d"] == 3 and rep["results"]["component_count"] == 2
    rc, rep = run_json(capsys, "analyze", "--config", str(cfg), "--d", "4")
    assert rc == 0
    assert rep["d"] == 4 and rep["results"]["component_count"] == 4


def test_config_maps_in_key(tmp_path, capsys):
    path = tmp_path / "fac.jsonl"
    assert cli.main(["construct", "--d", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"in": str(path)}))
    rc, rep = run_json(capsys, "verify", "--config", str(cfg))
    assert rc == 0 and rep["ok"] is True


def test_config_params_of_the_wrong_type_are_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cube_dim": 2.5, "pg": 0.05, "rg": 6, "rh": 4}))
    rc = cli.main(["construct", "--d", "10", "--seed", "13", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "error: cube_dim must be an integer, got 2.5\n"


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert cli.main(["analyze", "--config", str(missing), "--d", "3"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert cli.main(["analyze", "--config", str(bad), "--d", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "rmin", "export", "experiment"])
def test_unknown_kind_from_a_config_file(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 7, "kind": "banana"}))
    rc = cli.main([command, "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown kind: banana\n"


def test_missing_d_is_usage_error(capsys):
    rc = cli.main(["analyze", "--op", "components"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--d is required" in err
