#!/usr/bin/env python3
"""Survey of r(M), the minimal connecting subset size.

For each dimension and seed, builds a factorisation of the chosen kind and
finds r, the least r such that every union of r factors is connected, with
``rmin``.  Each line gives r, a largest disconnected factor set (the witness),
the smallest vertex outside vertex 0's component in its union, and how many
unions the search checked.  ``rmin`` is guarded to d <= 18.  At d = 18 one
search of the construction with pg = 0.005, rg = 6, rh = 3 and cube_dim = 4
(``cubefactors rmin`` sets all four) took 13-23 s for seeds 0-2 on a 2-core
x86-64 machine.
"""

import argparse
import sys
import time

from cubefactors.analyze import rmin
from cubefactors.code import build_context
from cubefactors.construct import (
    KINDS,
    ConstructionParams,
    OverlapError,
    RandomTape,
    build_factorisation,
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="3,4,5,6", help="comma list of d values")
    ap.add_argument("--kind", default="greedy", choices=KINDS)
    ap.add_argument("--seeds", type=int, default=5, help="seeds per dimension")
    ap.add_argument("--pg", type=float, help="G' sampling probability")
    return ap.parse_args(argv)


def main(argv=None):
    """Run the survey; like the CLI, exit 2 on a ValueError and 1 on an
    OverlapError, with the message on stderr."""
    ns = parse_args(argv)
    try:
        return survey(ns)
    except OverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def survey(ns):
    dims = [int(tok) for tok in ns.dims.split(",") if tok.strip()]
    params = ConstructionParams(pg=ns.pg) if ns.pg is not None else ConstructionParams()
    print(
        f"{'kind':<13} {'d':>3} {'seed':>5} {'r':>3} {'seconds':>9} "
        f"{'subsets':>8} {'vertex':>7}  witness"
    )
    for d in dims:
        seeds = range(ns.seeds) if ns.kind != "directional" else [0]
        for seed in seeds:
            fac = build_factorisation(build_context(d), ns.kind, params, RandomTape(seed))
            t0 = time.perf_counter()
            res = rmin(fac)
            elapsed = time.perf_counter() - t0
            witness = ",".join(map(str, res.witness or ())) or "-"
            print(
                f"{ns.kind:<13} {d:>3} {seed:>5} {res.r:>3} {elapsed:>9.3f} "
                f"{res.subsets_checked:>8} {str(res.vertex):>7}  {witness}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
