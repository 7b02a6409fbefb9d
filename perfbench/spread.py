#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep-d16,store-d16 --seeds 1-10 --seconds 15
    python3 perfbench/spread.py --probe --seeds 1-10 --seconds 15

Runs are sequential, one process each, from the current directory (the
repository root).  For every metric it prints the median over runs, the
quartiles and the spread, (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  For ``--trace 0`` runs it
also prints, from the raw samples in ``.perfbench_out/``, the spread of the
reference kernel's per-run median and of ``op_rel`` recomputed against each
part of the kernel, which is how the kernel part of each workload was chosen.
With ``--probe`` it runs the reference kernel alone instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
OUT_DIR = ".perfbench_out"


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread}


def run_one(args):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=600, check=False
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def rel_against(record, part):
    rel = [
        s["op"] / ((s["before"][part] + s["after"][part]) / 2) for s in record["samples"]
    ]
    return statistics.median(rel)


def workload_spread(name, seeds, seconds, trace):
    per_metric: dict[str, list[float]] = {}
    extra: dict[str, list[float]] = {}
    shares = []
    for seed in seeds:
        res = run_one(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace)])
        if not res["correct"] or res["failed"]:
            raise SystemExit(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}")
        shares.append(res["failed"] / res["attempted"])
        for key, m in res["metrics"].items():
            per_metric.setdefault(key, []).append(m["value"])
        with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")) as fh:
            record = json.load(fh)
        for part in record["samples"][0]["before"]:
            refs = [s[k][part] for s in record["samples"] for k in ("before", "after")]
            extra.setdefault(f"ref_{part}_s", []).append(statistics.median(refs))
            extra.setdefault(f"rel_{part}", []).append(rel_against(record, part))
        print(f"  {name} seed {seed}: wall {res['wall_s']:.1f} s attempted {res['attempted']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()
                         if not k.startswith(("analyze.", "construct.", "code.", "cli."))),
              file=sys.stderr)
    out = {k: summary(v) for k, v in per_metric.items() if len(v) > 1}
    if trace == 0:
        out.update({k: summary(v) for k, v in extra.items()})
    out["failed_share"] = sorted(set(shares))
    return out


def probe_spread(seeds, seconds):
    per_key: dict[str, list[float]] = {}
    for seed in seeds:
        res = run_one(["--probe", "--seed", str(seed), "--seconds", str(seconds)])
        for part, stats in res["probe"].items():
            for key, value in stats.items():
                per_key.setdefault(f"{part}.{key}", []).append(value)
    return {k: summary(v) for k, v in per_key.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="sweep-d16,analyze-d18,store-d16,implicit-d18")
    ap.add_argument("--seeds", default="1-10", help="range lo-hi or comma list")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ns = ap.parse_args(argv)
    seeds = seed_list(ns.seeds)
    os.makedirs(OUT_DIR, exist_ok=True)
    if ns.probe:
        result = {"probe": probe_spread(seeds, ns.seconds)}
    else:
        result = {
            name: workload_spread(name, seeds, ns.seconds, ns.trace)
            for name in ns.workloads.split(",")
        }
    for name, metrics in result.items():
        print(name)
        for key, s in metrics.items():
            if isinstance(s, dict):
                print(f"  {key:32s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                      f"q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
            else:
                print(f"  {key:32s} {s}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
