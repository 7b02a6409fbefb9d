#!/usr/bin/env python3
"""Benchmark of ``cubefactors``: one workload per process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-d16 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --probe --seed 1 --seconds 15

A run sets the workload up ``SETUP_REPS`` times (fresh import of the package,
contexts, explicit twins, one checked warm-up operation) and reports the
median as ``setup_s``.  It then repeats the workload's operation until
``--seconds`` have passed, always finishing the operation in hand.  Each
operation is bracketed by the reference kernel of ``refkernel.py`` and
checked by ``checks.py`` outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from spans recorded by
``spans.py``) with ``--trace 1``.  Raw per-operation samples, and with
``--trace 1`` the spans, go to ``.perfbench_out/`` in the working directory.

``--probe`` runs the reference kernel alone, in the same bracketed pattern,
and reports its spread: the drift the machine shows with no program work.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import CheckError  # noqa: E402
from refkernel import RefKernel  # noqa: E402

SETUP_REPS = 3
OUT_DIR = ".perfbench_out"
PROBE_BLOCK = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="run the reference kernel alone")
    ns = ap.parse_args(argv)
    if not ns.probe and not ns.workload:
        ap.error("--workload is required unless --probe is given")
    return ns


def fresh_import():
    """Import ``cubefactors`` anew, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "cubefactors" or m.startswith("cubefactors.")]:
        del sys.modules[name]
    return importlib.import_module("cubefactors")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(ns, workload_cls, tmpdir):
    kernel = RefKernel()
    setup_times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        cf = fresh_import()
        wl = workload_cls(cf, ns.seed, tmpdir)
        warm_in = wl.inputs(f"warm{rep}")
        warm_out = wl.op(warm_in)
        setup_times.append(time.perf_counter() - t0)
        wl.check(warm_in, warm_out)
        del warm_in, warm_out
    wl.reset_counts()

    tracer = None
    if ns.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    samples = []
    failed = 0
    correct = True
    start = time.perf_counter()
    i = 0
    while True:
        inp = wl.inputs(i)
        before = kernel.run()
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception:
            out = None
            failed += 1
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if tracer:
            tracer.active = False
        after = kernel.run()
        if out is not None:
            t2 = time.perf_counter()
            try:
                wl.check(inp, out)
            except CheckError as exc:
                correct = False
                print(f"check failed on operation {i}: {exc}", file=sys.stderr)
            check_s = time.perf_counter() - t2
            samples.append({"op": t1 - t0, "before": before, "after": after, "check": check_s})
        del inp, out
        i += 1
        if time.perf_counter() - start >= ns.seconds:
            break

    weights = wl.ref_weights

    def ref(bracket):
        return sum(w * bracket[part] for part, w in weights.items())

    op_s = [s["op"] for s in samples]
    op_rel = [s["op"] / ((ref(s["before"]) + ref(s["after"])) / 2) for s in samples]
    ref_s = [ref(s[k]) for s in samples for k in ("before", "after")]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "op_s": metric(median(op_s), "s"),
            "op_rel": metric(median(op_rel), "x"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, wl, len(samples), op_s, op_rel, ref_s)

    record = {
        "workload": wl.name,
        "seed": ns.seed,
        "trace": ns.trace,
        "ref_weights": weights,
        "setup_s": setup_times,
        "samples": samples,
        "refusals": wl.refusals,
        "out_bytes": wl.out_bytes,
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = tracer.dump()
    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{ns.seed}-trace{ns.trace}.json"), "w") as fh:
        json.dump(record, fh)
    return {"correct": correct, "attempted": i, "failed": failed, "metrics": metrics}


def layer_metrics(tracer, wl, n_ops, op_s, op_rel, ref_s):
    def per_call(name):
        return metric(median(tracer.durations(name)), "s")

    queries = tracer.count("construct.partner")

    def per_query(n):
        return n / queries if queries else 0.0
    return {
        "analyze.prefix_chain_s": per_call("analyze.min_connecting_prefix"),
        "analyze.prefix_stages": metric(wl.prefix_stages / n_ops, "count"),
        "construct.sample_plan_s": per_call("construct.sample_plan"),
        "construct.apply_explicit_s": per_call("construct.apply_explicit"),
        "construct.touched_edges": metric(median(tracer.touched_edges), "count"),
        "construct.overlap_refusals": metric(wl.refusals / n_ops, "count"),
        "analyze.validate_s": per_call("analyze.validate"),
        "analyze.union_components_s": per_call("analyze.union_components"),
        "analyze.small_cube_s": per_call("analyze.small_cube_connectivity"),
        "analyze.tf_connectivity_s": per_call("analyze.tf_connectivity"),
        "analyze.is_connected_s": per_call("analyze.is_connected"),
        "construct.save_s": per_call("construct.save_factorisation"),
        "construct.load_s": per_call("construct.load_factorisation"),
        "cli.construct_s": per_call("cli.cmd_construct"),
        "cli.verify_s": per_call("cli.cmd_verify"),
        "cli.out_mb": metric(median(wl.out_bytes) / 1e6, "MB"),
        "construct.partner_s": metric(
            per_query(sum(tracer.durations("construct.partner"))), "s"
        ),
        "construct.coin_calls": metric(per_query(tracer.coin_calls), "count"),
        "code.codewords_near_calls": metric(per_query(tracer.count("code.codewords_near")), "count"),
        "bench.ref_s": metric(median(ref_s), "s"),
        "bench.op_s": metric(median(op_s), "s"),
        "bench.op_rel": metric(median(op_rel), "x"),
    }


def run_probe(ns):
    """Reference kernel alone: blocks of PROBE_BLOCK kernels stand in for an
    operation and are bracketed like one."""
    kernel = RefKernel()
    kernel.run()
    rows = []
    start = time.perf_counter()
    while time.perf_counter() - start < ns.seconds:
        before = kernel.run()
        block = [kernel.run() for _ in range(PROBE_BLOCK)]
        after = kernel.run()
        rows.append((before, block, after))
    result = {}
    for part in rows[0][0]:
        single = [b[part] for _, block, _ in rows for b in block]
        blocks = [sum(b[part] for b in block) for _, block, _ in rows]
        rel = [
            sum(b[part] for b in block) / ((before[part] + after[part]) / 2)
            for before, block, after in rows
        ]
        result[part] = {
            "kernel_median_s": median(single),
            "kernel_min_s": min(single),
            "kernel_max_s": max(single),
            "block_spread": spread(blocks),
            "block_rel_spread": spread(rel),
        }
    return result


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    ns = parse_args(argv)
    if ns.probe:
        print(json.dumps({"probe": run_probe(ns), "seed": ns.seed}))
        return 0

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cubefactors", "__init__.py")):
        print("error: no src/cubefactors here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if ns.workload not in WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        result = run_workload(ns, WORKLOADS[ns.workload], tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
