#!/usr/bin/env python3
"""Connectivity sweep driver.

Runs the experiment subcommand for several cube dimensions and prints the
aggregate connectivity fraction per subset size r, one row per dimension.
Reports land in --outdir as timing-free JSON, so re-runs with the same flags
reproduce them byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

from cubefactors.cli import main as cli_main
from cubefactors.construct import KINDS


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="10,12,14", help="comma list of d values")
    ap.add_argument("--kind", default="construction", choices=KINDS)
    ap.add_argument("--seeds", type=int, default=5, help="factorisations per d")
    ap.add_argument("--samples", type=int, default=200, help="chains per seed")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--pg", type=float, help="G' sampling probability")
    ap.add_argument("--rg", type=int, help="G exclusion radius")
    ap.add_argument("--rh", type=int, help="H exclusion radius")
    ap.add_argument("--cube-dim", type=int, help="big-swap cube dimension")
    ap.add_argument("--outdir", default="experiments", help="report directory")
    return ap.parse_args(argv)


def main(argv=None):
    ns = parse_args(argv)
    dims = [int(tok) for tok in ns.dims.split(",") if tok.strip()]
    outdir = Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for d in dims:
        out = outdir / f"experiment_d{d}_{ns.kind}_seed{ns.seed}.json"
        argv_d = [
            "experiment", "--d", str(d), "--kind", ns.kind,
            "--seeds", str(ns.seeds), "--samples", str(ns.samples),
            "--seed", str(ns.seed), "--out", str(out),
        ]
        for flag in ("pg", "rg", "rh", "cube_dim"):
            value = getattr(ns, flag)
            if value is not None:
                argv_d += ["--" + flag.replace("_", "-"), str(value)]
        rc = cli_main(argv_d)
        if rc != 0:
            print(f"experiment failed for d={d} (exit {rc})", file=sys.stderr)
            return rc
        rows.append((d, json.loads(out.read_text())["results"]["aggregate"]))

    width = max(d for d, _ in rows)
    print()
    print("aggregate connected fraction by subset size r")
    print("d    " + " ".join(f"r={r:<4d}" for r in range(1, width + 1)))
    for d, agg in rows:
        cells = " ".join(f"{f:<6.3f}" for f in agg)
        print(f"{d:<4d} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
