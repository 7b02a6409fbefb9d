"""Fixed reference kernel used to bracket every timed operation.

The kernel never calls into ``cubefactors``; it only gives a yardstick for how
fast the machine runs at the moment.  It has three parts, timed separately:

* ``py``: pure-Python union-find with path halving over pseudo-random pairs
  drawn from a fixed linear congruential generator (list indexing, integer
  arithmetic and loop overhead, like the package's ``_DisjointSet``, its
  PRF loops and its JSON/text handling);
* ``np``: a chain of ``np.minimum(a, a[perm])`` gathers over a fixed random
  permutation, like the package's min-label propagation.

One bracket runs the three parts ``REPS`` times, interleaved, and takes each
part's median, so that one short stall does not set the bracket.  Each
workload divides its operation time by a fixed weighting of the parts
that matches the work that dominates it (``Workload.ref_weights``; the
README gives the spreads behind the choice).
"""

from __future__ import annotations

import statistics
import time
from hashlib import blake2b

import numpy as np

PY_N = 1 << 13
PY_UNIONS = 4 * PY_N
NP_N = 1 << 17
NP_STEPS = 36
SCAN_N = 1 << 13
SCAN_ROUNDS = 8
SCAN_RADIUS = 6
REPS = 3
PARTS = ("py", "np", "scan")


class RefKernel:
    """Owns the kernel's fixed inputs so that only the work is timed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250821)
        self._perm = rng.permutation(NP_N).astype(np.uint32)
        self._start = rng.permutation(NP_N).astype(np.uint32)
        self._words = rng.integers(0, 1 << 18, SCAN_N).tolist()
        self._expect = {p: getattr(self, p + "_part")() for p in PARTS}

    def py_part(self) -> int:
        parent = list(range(PY_N))
        x = 12345
        for _ in range(PY_UNIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            a = x % PY_N
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            b = x % PY_N
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
        return sum(1 for i in range(PY_N) if parent[i] == i)

    def np_part(self) -> int:
        a = self._start.copy()
        perm = self._perm
        for _ in range(NP_STEPS):
            np.minimum(a, a[perm], out=a)
        return int(a[0])

    def scan_part(self) -> int:
        words = self._words
        key = b"perfbench"
        hits = 0
        for r in range(SCAN_ROUNDS):
            u = words[r]
            for w in [w for w in words if (w ^ u).bit_count() <= SCAN_RADIUS]:
                digest = blake2b(w.to_bytes(3, "big"), key=key, digest_size=8).digest()
                hits += digest[0] & 1
        return hits

    def run(self) -> dict[str, float]:
        """One bracket: each part's median time over REPS interleaved runs.

        Each run must reproduce the part's first result."""
        times: dict[str, list[float]] = {p: [] for p in PARTS}
        for _ in range(REPS):
            for p in PARTS:
                t0 = time.perf_counter()
                result = getattr(self, p + "_part")()
                times[p].append(time.perf_counter() - t0)
                if result != self._expect[p]:
                    raise RuntimeError(f"reference kernel part {p} changed its result")
        return {p: statistics.median(ts) for p, ts in times.items()}
