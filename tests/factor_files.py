"""Test helpers: a factorisation's partner rows, a per-edge writer of
factorisation files kept as an oracle, the pair draws of hand-built swap
plans, and a count of the subset labellings the analyses make."""

import json

import numpy as np

import cubefactors.analyze as analyze_mod
from cubefactors.cube import vertex_text


def partner_rows(fac):
    """The (d, 2^d) partners of an explicit factorisation, one row per factor."""
    return np.stack([fac.table(x) for x in fac.directions])


def hand_pairs(ctx, pq):
    """The ``SwapPlan.pairs`` in which each codeword u of ``pq`` draws the
    direction labels ``pq[u]`` and every other codeword the first two
    directions."""
    cw = ctx._codeword_array
    pairs = np.tile(np.array([0, 1]), (len(cw), 1))
    for u, (p, q) in pq.items():
        at = int(np.searchsorted(cw, u))
        assert cw[at] == u, f"{u} is not a codeword"
        pairs[at] = ctx.space.index[p], ctx.space.index[q]
    return pairs


def _per_edge_save(fac, path):
    """Write fac edge by edge, listing the edges off each factor's own axis."""
    ctx = fac.ctx
    header = {
        "type": "factorisation",
        "version": 2,
        "d": ctx.d,
        "k": ctx.k,
        "X": list(ctx.space.directions),
        "kind": fac.kind,
        "mode": fac.mode,
        "seed": fac.seed,
        "params": fac.params.as_dict(ctx.d) if fac.params is not None else None,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        if fac.mode != "explicit":
            return
        idx = np.arange(1 << ctx.d, dtype=np.uint32)
        for x in ctx.space.directions:
            pt = fac.table(x)
            los = np.nonzero(idx < pt)[0]
            diffs = idx[los] ^ pt[los]
            edges = []
            for lo, diff in zip(los.tolist(), diffs.tolist()):
                direction = ctx.space.directions[int(diff).bit_length() - 1]
                if direction != x:
                    edges.append([vertex_text(ctx.space, int(lo)), direction])
            fh.write(
                json.dumps({"factor": x, "edges": edges}, separators=(",", ":")) + "\n"
            )


def count_label_misses(monkeypatch):
    """The keys of the subsets labelled from scratch, from the cosets or the
    fold: every miss of the label memos made from now on, as it takes in
    the labels."""
    calls = []

    class Counted(dict):
        def __setitem__(self, key, labels):
            calls.append(key)
            super().__setitem__(key, labels)

    monkeypatch.setattr(analyze_mod, "_label_memo", lambda fac: Counted())
    return calls
