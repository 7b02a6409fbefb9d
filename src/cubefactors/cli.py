"""Command-line front end.

Subcommands: construct, verify, analyze, rmin, experiment, export.  All
randomness flows from --seed through keyed PRF draws, so identical flags
produce byte-identical output files.  Reports written with --out carry no
timing data for the same reason; timings appear on stdout only.

Exit codes: 0 success, 1 verification or construction failure, 2 usage or
guard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from . import analyze as an
from .code import build_context
from .construct import (
    KINDS,
    ConstructionParams,
    Factorisation,
    OverlapError,
    RandomTape,
    apply_explicit,
    build_factorisation,
    implicit_factorisation,
    load_factorisation,
    plan_summary,
    sample_plan,
    save_factorisation,
    touched_edge_count,
)
from .cube import _text_rows, explicit_cap, vertex_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DOT_MAX_D = 10
# Derived seeds one experiment index may draw before the sweep gives up.
EXPERIMENT_DRAWS = 10

ANALYZE_OPS = (
    "components",
    "small-cubes",
    "tf",
    "code-cubes",
    "paths",
    "decomposition",
    "closed-cosets",
)


class UsageError(Exception):
    pass


# -- config handling ----------------------------------------------------------


def _apply_config(ns: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON file; flags win over the file."""
    path = getattr(ns, "config", None)
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in cfg.items():
        dest = "infile" if key == "in" else key.replace("-", "_")
        if hasattr(ns, dest) and getattr(ns, dest) is None:
            setattr(ns, dest, value)


def _params_from(ns: argparse.Namespace) -> ConstructionParams:
    kwargs = {}
    for key in ("pg", "rg", "rh", "cube_dim"):
        value = getattr(ns, key, None)
        if value is not None:
            kwargs[key] = value
    try:
        return ConstructionParams(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _require_d(ns: argparse.Namespace) -> int:
    if ns.d is None:
        raise UsageError("--d is required (flag or config file)")
    return int(ns.d)


def _seed(ns: argparse.Namespace) -> int:
    return 0 if ns.seed is None else int(ns.seed)


def _load(path: str) -> Factorisation:
    """The factorisation stored at path.  An implicit stub within the explicit
    cap is returned as its explicit twin, built once here for every analysis
    the command runs; past the cap it stays implicit."""
    fac = load_factorisation(path)
    if fac.mode == "implicit" and fac.d <= explicit_cap():
        fac = fac.materialize()
    return fac


def _fac_from_args(ns: argparse.Namespace) -> Factorisation:
    if getattr(ns, "infile", None):
        return _load(ns.infile)
    d = _require_d(ns)
    ctx = build_context(d)
    kind = getattr(ns, "kind", None) or "directional"
    return build_factorisation(ctx, kind, _params_from(ns), RandomTape(_seed(ns)))


def _subset(ns: argparse.Namespace, fac: Factorisation) -> tuple[int, ...]:
    """Resolve --factors / --r to a direction subset; defaults to all of X."""
    factors = getattr(ns, "factors", None)
    r = getattr(ns, "r", None)
    if factors is not None and r is not None:
        raise UsageError("--factors and --r are mutually exclusive")
    if factors is not None:
        if isinstance(factors, str):
            try:
                values = [int(tok) for tok in factors.split(",") if tok.strip()]
            except ValueError:
                raise UsageError(f"cannot parse --factors value: {factors!r}")
        else:
            values = [int(v) for v in factors]
        try:
            return an._dirs(fac.ctx, values)
        except ValueError as exc:
            raise UsageError(str(exc))
    if r is not None:
        r = int(r)
        if not 1 <= r <= fac.d:
            raise UsageError(f"--r must be in 1..{fac.d}")
        rng = random.Random(RandomTape(_seed(ns)).derive_seed("subset"))
        return tuple(sorted(rng.sample(fac.directions, r)))
    return fac.directions


def _built(fac: Factorisation) -> dict:
    """How far fac is from the directional baseline; unknown (None) for an
    implicit factorisation, which ``_load`` leaves only past the explicit cap."""
    if fac.mode != "explicit":
        return {"touched_edges": None, "baseline_only": None}
    touched = touched_edge_count(fac)
    return {"touched_edges": touched, "baseline_only": touched == 0}


def _emit(ns: argparse.Namespace, report: dict | list[dict], timings: dict[str, float]) -> None:
    """Write the timing-free report to --out, echo it with timings to stdout.
    A list of reports (``analyze`` with several --op) is written as a JSON
    list."""
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2))
            fh.write("\n")
    _show(report, timings)


def _show(report: dict | list[dict], timings: dict[str, float]) -> None:
    """Print the report to stdout with its timings, rounded to microseconds;
    each report of a list gets the timing of its own operation."""
    if isinstance(report, list):
        shown = [_show_timed(r, {r["operation"]: timings[r["operation"]]}) for r in report]
    else:
        shown = _show_timed(report, timings)
    print(json.dumps(shown, sort_keys=True, indent=2))


def _show_timed(report: dict, timings: dict[str, float]) -> dict:
    return {**report, "timings": {k: round(v, 6) for k, v in timings.items()}}


# -- subcommands ----------------------------------------------------------------


def cmd_construct(ns: argparse.Namespace) -> int:
    d = _require_d(ns)
    seed = _seed(ns)
    mode = ns.mode or "explicit"
    ctx = build_context(d)
    params = _params_from(ns)
    summary: dict = {
        "operation": "construct",
        "d": d,
        "seed": seed,
        "mode": mode,
        "params": params.as_dict(d),
    }
    t0 = time.perf_counter()
    if mode == "explicit":
        plan = sample_plan(ctx, params, RandomTape(seed))
        t1 = time.perf_counter()
        fac = apply_explicit(ctx, plan)
        timings = {"sample_plan": t1 - t0, "apply": time.perf_counter() - t1}
        summary.update(plan_summary(plan))
    else:
        fac = implicit_factorisation(ctx, params, RandomTape(seed))
        timings = {"construct": time.perf_counter() - t0}
        if d <= explicit_cap():
            t0 = time.perf_counter()
            plan = sample_plan(ctx, params, RandomTape(seed))
            timings["sample_plan"] = time.perf_counter() - t0
            summary.update(plan_summary(plan))
    if "touched_edges" in summary:
        summary["baseline_only"] = summary["touched_edges"] == 0
    if ns.out:
        t0 = time.perf_counter()
        save_factorisation(fac, ns.out)
        timings["save"] = time.perf_counter() - t0
        summary["out"] = ns.out
    _show(summary, timings)
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    if not getattr(ns, "infile", None):
        raise UsageError("--in is required")
    t0 = time.perf_counter()
    fac = _load(ns.infile)
    t1 = time.perf_counter()
    rep = an.validate(fac)
    timings = {"load": t1 - t0, "validate": time.perf_counter() - t1}
    report: dict = {"operation": "verify", "in": ns.infile, "ok": rep.ok}
    if rep.ok:
        report.update(_built(fac))
    else:
        report["violation"] = {
            "vertex": rep.vertex,
            "vertex_text": vertex_text(fac.ctx.space, rep.vertex),
            "factor": rep.factor,
            "message": rep.message,
        }
    _emit(ns, report, timings)
    return EXIT_OK if rep.ok else EXIT_FAIL


def _pairs(counter: Counter) -> list[list[int]]:
    return [[int(k), int(v)] for k, v in sorted(counter.items())]


def _analysis(fac: Factorisation, dirs: tuple[int, ...], op: str) -> dict:
    """The results of one ``analyze`` operation on the subset dirs."""
    ctx = fac.ctx
    if op == "components":
        rep = an.union_components(fac, dirs)
        return {
            "component_count": rep.count,
            "size_histogram": _pairs(Counter(rep.sizes)),
        }
    elif op == "small-cubes":
        cubes = an.small_cube_connectivity(fac, dirs)
        return {
            "cubes": len(cubes),
            "connected": sum(cubes.values()),
            "fraction": sum(cubes.values()) / len(cubes),
        }
    elif op == "tf":
        tfc = an.tf_context(ctx, dirs)
        sizes = an.tf_class_sizes(tfc)
        conn = an.tf_connectivity(fac, dirs)
        return {
            "ell": tfc.dec.ell,
            "class_count": len(sizes),
            "class_size_histogram": _pairs(Counter(sizes.values())),
            "classes_in_single_component": sum(conn.values()),
            "all_classes_connected": all(conn.values()),
        }
    elif op == "code-cubes":
        inter = an.code_intersections(ctx, dirs)
        tfc = an.tf_context(ctx, dirs)
        agree = all(
            (count > 0) == (an.tf_label(tfc, cube_id).psi == 0)
            for cube_id, count in inter.items()
        )
        return {
            "cubes": len(inter),
            "nonzero": sum(1 for v in inter.values() if v),
            "value_histogram": _pairs(Counter(inter.values())),
            "psi_agreement": agree,
        }
    elif op == "paths":
        hist = an.untouched_path_histogram(fac)
        return {
            "disturbed_histogram": _pairs(Counter(hist)),
            "max_disturbed": max(hist),
        }
    elif op == "decomposition":
        dec = an.decomposition_of(ctx, dirs)
        return {
            "ell": dec.ell,
            "basis": sorted(dec.subspace.spanning_input),
            "coset_label_count": 1 << dec.label_width,
        }
    elif op == "closed-cosets":
        closed, cosets, vertex = an.closed_cosets(fac, dirs)
        return {"closed": closed, "cosets": cosets, "vertex": vertex}
    raise UsageError(f"unknown analysis name: {op}")


def cmd_analyze(ns: argparse.Namespace) -> int:
    fac = _fac_from_args(ns)
    dirs = _subset(ns, fac)
    ops = ns.op or ["components"]
    if isinstance(ops, str):  # a config file may name a single analysis
        ops = [ops]
    if len(set(ops)) < len(ops):
        raise UsageError("--op names an analysis more than once")
    head = {
        "d": fac.d,
        "kind": fac.kind,
        "seed": fac.seed,
        "params": None if fac.params is None else fac.params.as_dict(fac.d),
        "factors": list(dirs),
        **_built(fac),
    }
    # Every operation reads the same factorisation and subset, so the
    # component analyses among them label the subset once between them.
    reports, timings = [], {}
    for op in ops:
        t0 = time.perf_counter()
        results = _analysis(fac, dirs, op)
        timings[op] = time.perf_counter() - t0
        reports.append({"operation": op, **head, "results": results})
    _emit(ns, reports[0] if len(reports) == 1 else reports, timings)
    return EXIT_OK


def cmd_rmin(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    fac = _fac_from_args(ns)
    t1 = time.perf_counter()
    res = an.rmin(fac)
    timings = {"build": t1 - t0, "search": time.perf_counter() - t1}
    # How many of the subsets checked each rule of the engine settled.
    timings.update({f"subsets_{rule}": n for rule, n in an.settled_prefixes(fac).items()})
    witness = None
    if res.witness is not None:
        witness = {
            "factors": list(res.witness),
            "vertex": res.vertex,
            "closed_coset": an.in_closed_coset(fac, res.witness, res.vertex),
        }
    report = {
        "operation": "rmin",
        "d": fac.d,
        "kind": fac.kind,
        "seed": fac.seed,
        **_built(fac),
        "r": res.r,
        "witness": witness,
        "subsets_checked": res.subsets_checked,
    }
    _emit(ns, report, timings)
    return EXIT_OK


def _experiment_fac(
    ctx, kind: str, params: ConstructionParams, master: RandomTape, i: int, refused: list
) -> tuple[Factorisation, int]:
    """Factorisation of seed index i, drawing a new derived seed on each refusal.

    The first draw is ``fac:{i}`` and the k-th retry ``fac:{i}:{k}``; every
    refused seed is appended to ``refused``.
    """
    for k in range(EXPERIMENT_DRAWS):
        fac_seed = master.derive_seed(f"fac:{i}" if k == 0 else f"fac:{i}:{k}")
        try:
            return build_factorisation(ctx, kind, params, RandomTape(fac_seed)), fac_seed
        except OverlapError:
            refused.append({"index": i, "seed": fac_seed})
    mine = [entry["seed"] for entry in refused if entry["index"] == i]
    raise OverlapError(
        f"seed index {i}: all {EXPERIMENT_DRAWS} derived seeds were refused "
        f"for overlapping swap regions: {mine}"
    )


def cmd_experiment(ns: argparse.Namespace) -> int:
    d = _require_d(ns)
    seed = _seed(ns)
    kind = getattr(ns, "kind", None) or "construction"
    if kind not in KINDS:
        raise UsageError(f"unknown kind: {kind}")
    n_seeds = 5 if ns.seeds is None else int(ns.seeds)
    samples = 200 if ns.samples is None else int(ns.samples)
    if n_seeds < 1 or samples < 1:
        raise UsageError("--seeds and --samples must be positive")
    ctx = build_context(d)
    params = _params_from(ns)
    master = RandomTape(seed)
    t0 = time.perf_counter()
    per_seed = []
    refused: list[dict] = []
    settled: Counter[str] = Counter()
    for i in range(n_seeds):
        fac, fac_seed = _experiment_fac(ctx, kind, params, master, i, refused)
        rng = random.Random(master.derive_seed(f"chains:{i}"))
        profile = an.connectivity_profile(fac, samples, rng)
        settled.update(an.settled_prefixes(fac))
        fractions = [
            sum(1 for v in profile if v <= r) / samples for r in range(1, d + 1)
        ]
        per_seed.append(
            {"index": i, "seed": fac_seed, **_built(fac), "fractions": fractions}
        )
    aggregate = [
        sum(entry["fractions"][j] for entry in per_seed) / n_seeds
        for j in range(d)
    ]
    elapsed = time.perf_counter() - t0
    report = {
        "operation": "experiment",
        "d": d,
        "kind": kind,
        "seed": seed,
        "seeds": n_seeds,
        "samples": samples,
        "params": params.as_dict(d) if kind == "construction" else None,
        "results": {"per_seed": per_seed, "aggregate": aggregate, "refused": refused},
    }
    # How many chain prefixes each rule of min_connecting_prefix settled.
    prefixes = {f"prefixes_{rule}": settled[rule] for rule in ("closed", "certified", "fold")}
    _emit(ns, report, {"experiment": elapsed, **prefixes})
    return EXIT_OK


def cmd_export(ns: argparse.Namespace) -> int:
    fac = _fac_from_args(ns)
    dirs = _subset(ns, fac)
    fmt = ns.format or "edge-list"
    if fmt == "dot" and fac.d > DOT_MAX_D:
        raise UsageError(f"dot export is guarded to d <= {DOT_MAX_D}")
    blocks = ["graph factors {\n"] if fmt == "dot" else []
    for x in dirs:
        pt = fac.table(x)
        us = np.flatnonzero(fac.ctx._vertex_array < pt)
        if fmt == "dot":
            parts = [b'  "', us, b'" -- "', pt[us], b'" [label="%d"];\n' % x]
        else:
            parts = [us, b" ", pt[us], b" %d\n" % x]
        blocks.append(_text_rows(fac.d, parts).tobytes().decode("ascii"))
    if fmt == "dot":
        blocks.append("}\n")
    text = "".join(blocks) or "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, params: bool = False) -> None:
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--d", type=int, help="cube dimension")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--out", help="output file path")
    if params:
        p.add_argument("--pg", type=float, help="G' sampling probability")
        p.add_argument("--rg", type=int, help="G exclusion radius")
        p.add_argument("--rh", type=int, help="H exclusion radius")
        p.add_argument("--cube-dim", type=int, dest="cube_dim", help="big-swap cube dimension")


def _add_fac_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", help="read factorisation from file")
    p.add_argument(
        "--kind",
        choices=KINDS,
        help="factorisation kind when building from --d (default directional)",
    )


def _add_subset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--factors", help="comma list of directions (k-bit integers)")
    p.add_argument("--r", type=int, help="random direction subset of this size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefactors",
        description="randomised hypercube 1-factorisations and their analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="sample and store a factorisation")
    _add_common(p, params=True)
    p.add_argument("--mode", choices=("explicit", "implicit"), help="storage mode")

    p = sub.add_parser("verify", help="validate a stored factorisation")
    _add_common(p)
    p.add_argument("--in", dest="infile", help="factorisation file")

    p = sub.add_parser("analyze", help="run an analysis over a factorisation")
    _add_common(p, params=True)
    _add_fac_source(p)
    _add_subset(p)
    p.add_argument(
        "--op",
        choices=ANALYZE_OPS,
        action="append",
        help="analysis to run (default components); repeat it to run several "
        "on one factorisation and subset, reported as a JSON list",
    )

    p = sub.add_parser("rmin", help="minimal r with every r-factor union connected")
    _add_common(p, params=True)
    _add_fac_source(p)

    p = sub.add_parser("experiment", help="connectivity fraction sweep over r")
    _add_common(p, params=True)
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--seeds", type=int, help="number of factorisations (default 5)")
    p.add_argument("--samples", type=int, help="subset chains per seed (default 200)")

    p = sub.add_parser("export", help="write the union graph of chosen factors")
    _add_common(p, params=True)
    _add_fac_source(p)
    _add_subset(p)
    p.add_argument("--format", choices=("edge-list", "dot"), help="output format")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call in the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        _apply_config(ns)
        # Looked up by name on each call, so that the command functions are
        # not frozen into the parser.
        return globals()[f"cmd_{ns.command}"](ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
