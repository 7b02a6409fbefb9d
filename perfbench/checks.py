"""Output checks that share no code with ``cubefactors``.

Everything here works on plain numpy arrays and Python ints, and components
come from ``scipy.sparse.csgraph``, so a fault in the package cannot hide by
being repeated in its own check.  Each function raises ``CheckError`` with a
message naming what is wrong.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class CheckError(AssertionError):
    """A workload output disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def partner_stack(fac) -> np.ndarray:
    """(d, 2^d) partner array of an explicit factorisation, one row per factor."""
    return np.stack([np.asarray(fac.table(x), dtype=np.uint32) for x in fac.directions])


def directional_stack(d: int) -> np.ndarray:
    """Partner array of the directional factorisation: row i flips bit i."""
    idx = np.arange(1 << d, dtype=np.uint32)
    return idx ^ (np.uint32(1) << np.arange(d, dtype=np.uint32))[:, None]


def check_factorisation(tables: np.ndarray, d: int) -> None:
    """Each row is a fixed-point-free involution onto neighbours, and every
    edge lies in exactly one factor."""
    n = 1 << d
    require(tables.shape == (d, n), f"partner array has shape {tables.shape}, want {(d, n)}")
    idx = np.arange(n, dtype=np.uint32)
    diff = tables ^ idx
    require(not (diff == 0).any(), "a factor has a fixed point")
    require(not (diff & (diff - np.uint32(1))).any(), "a partner is not a neighbour")
    for i in range(d):
        require(np.array_equal(tables[i][tables[i]], idx), f"factor row {i} is not an involution")
    # d single-bit differences per vertex cover all d bits exactly when they
    # are distinct, i.e. when every edge at the vertex sits in one factor.
    covered = np.bitwise_or.reduce(diff, axis=0)
    require(bool((covered == np.uint32(n - 1)).all()), "an edge lies in no factor or in two")


def components(tables: np.ndarray, rows) -> tuple[int, np.ndarray]:
    """Component count and per-vertex labels of the union of the given rows."""
    n = tables.shape[1]
    src = np.tile(np.arange(n, dtype=np.int64), len(rows))
    dst = np.concatenate([tables[i].astype(np.int64) for i in rows])
    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)).tocsr()
    return connected_components(graph, directed=False)


def component_sizes(labels: np.ndarray) -> tuple[int, ...]:
    return tuple(sorted(np.bincount(labels).tolist()))


def small_cube_map(labels: np.ndarray, d: int, subset_bits: int) -> dict[int, bool]:
    """Small cube id (vertex with the subset's coordinates cleared) -> one component?"""
    n = 1 << d
    ids = np.arange(n, dtype=np.int64) & ((n - 1) & ~subset_bits)
    order = np.lexsort((labels, ids))
    ids_s, lab_s = ids[order], labels[order]
    first = np.ones(n, dtype=bool)
    first[1:] = ids_s[1:] != ids_s[:-1]
    new_label = np.ones(n, dtype=bool)
    new_label[1:] = (ids_s[1:] != ids_s[:-1]) | (lab_s[1:] != lab_s[:-1])
    cube_ids = ids_s[first]
    per_cube = np.add.reduceat(new_label.astype(np.int64), np.nonzero(first)[0])
    return {int(c): bool(k == 1) for c, k in zip(cube_ids, per_cube)}


def parity_classes(d: int, labels_of_dirs, subset_labels) -> np.ndarray:
    """Per-vertex class key: parities of the coordinates in each coset of the
    span of the subset's labels (the span's own coset is left out)."""
    span = {0}
    for x in subset_labels:
        span |= {s ^ x for s in span}
    groups: dict[int, int] = {}
    for pos, x in enumerate(labels_of_dirs):
        rep = min(x ^ s for s in span)
        if rep:
            groups[rep] = groups.get(rep, 0) | (1 << pos)
    idx = np.arange(1 << d, dtype=np.uint32)
    key = np.zeros(1 << d, dtype=np.int64)
    for j, mask in enumerate(sorted(groups.values())):
        parity = np.bitwise_count(idx & np.uint32(mask)) & 1
        key |= parity.astype(np.int64) << j
    return key


def class_connectivity(keys: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
    """(number of classes, number whose vertices share one component)."""
    pairs = np.unique(keys * (1 << 32) + labels)
    per_class = np.unique(pairs >> 32, return_counts=True)[1]
    return len(per_class), int((per_class == 1).sum())


def parse_factorisation_file(path: str) -> tuple[dict, np.ndarray]:
    """Read a factorisation JSON-lines file into (header, partner array).

    Factors start from the directional baseline; every listed edge then sets
    the partners of both its ends, so both files that list every edge and
    files that list only non-directional edges are read correctly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        d = header["d"]
        dirs = list(header["X"])
        pos = {x: i for i, x in enumerate(dirs)}
        tables = directional_stack(d)
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            row = tables[pos[obj["factor"]]]
            edges = obj["edges"]
            if not edges:
                continue
            lo = np.array([int(text, 2) for text, _ in edges], dtype=np.uint32)
            bit = np.array([1 << pos[x] for _, x in edges], dtype=np.uint32)
            require(not (lo & bit).any(), f"factor {obj['factor']}: an edge's low end has its bit set")
            row[lo] = lo ^ bit
            row[lo ^ bit] = lo
    return header, tables
