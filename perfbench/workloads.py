"""The four benchmark workloads.

A workload is built once per set-up repetition from the freshly imported
package.  ``inputs(i)`` draws the inputs of operation ``i`` from the run's
seed (untimed), ``op`` is the timed call into ``cubefactors``, and ``check``
compares the output with the independent computations in ``checks``.

"Swapping" parameters (``SWAP``) are pg=0.005 rg=6 rh=3 cube_dim=4: at
d = 16..18 they give thousands of active squares per factorisation, where the
default parameters give none.  With these radii about 1 seed in 11 at d = 16
(1 in 25 at d = 18) draws overlapping swap regions, which the construction
refuses with ``OverlapError``; as the README advises, a refused seed is
replaced by the next one and the refusal is counted.  The retry is inside
the timed operation, except for the implicit workload's twins, which are
built before it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np

from checks import (
    check_factorisation,
    class_connectivity,
    component_sizes,
    components,
    directional_stack,
    parity_classes,
    parse_factorisation_file,
    partner_stack,
    require,
    small_cube_map,
)

SWAP = dict(pg=0.005, rg=6, rh=3, cube_dim=4)


class RecordingRandom(random.Random):
    """A seeded RNG that remembers the direction orders it hands out."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.orders: list[list[int]] = []

    def sample(self, population, k, **kwargs):
        out = super().sample(population, k, **kwargs)
        self.orders.append(list(out))
        return out

    def shuffle(self, x):
        super().shuffle(x)
        self.orders.append(list(x))


class Workload:
    name = ""
    d = 0
    # Weights of the reference kernel's parts in op_rel's denominator.  The
    # mixed workloads (Python loops, numpy passes, hashing) use all three
    # parts equally; see the README for the spreads behind the choice.
    ref_weights = {"py": 1 / 3, "np": 1 / 3, "scan": 1 / 3}

    def __init__(self, cf, seed: int, tmpdir: str):
        self.cf = cf
        self.seed = seed
        self.tmpdir = tmpdir
        self.ctx = cf.build_context(self.d)
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the counts that the traced run reports per operation."""
        self.refusals = 0
        self.prefix_stages = 0
        self.out_bytes: list[int] = []

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def build_swapping(self, rng: random.Random):
        """Explicit build with SWAP parameters; refused seeds are replaced."""
        cf = self.cf
        params = cf.ConstructionParams(**SWAP)
        while True:
            try:
                return cf.build_explicit(self.ctx, params, cf.RandomTape(rng.getrandbits(63)))
            except cf.OverlapError:
                self.refusals += 1

    def check_swapping(self, fac) -> np.ndarray:
        tables = partner_stack(fac)
        check_factorisation(tables, self.d)
        require(self.cf.plan_summary(fac.plan)["active_squares"] > 0, "swapping input has no active square")
        require(bool((tables != directional_stack(self.d)).any()), "swapping input equals the directional baseline")
        return tables


class Sweep(Workload):
    """One seed of ``experiment``: build, then random chains through
    ``connectivity_profile``."""

    name = "sweep-d16"
    d = 16
    ref_weights = {"py": 0.0, "np": 1.0, "scan": 0.0}
    chains = 8

    def inputs(self, i):
        return self.rng(i)

    def op(self, rng):
        fac = self.build_swapping(rng)
        chain_rng = RecordingRandom(rng.getrandbits(63))
        rs = self.cf.connectivity_profile(fac, self.chains, chain_rng)
        return fac, chain_rng.orders, rs

    def check(self, rng, out):
        fac, orders, rs = out
        tables = self.check_swapping(fac)
        require(len(rs) == self.chains == len(orders), "chain count mismatch")
        self.prefix_stages += sum(rs)
        pos = {x: i for i, x in enumerate(fac.directions)}
        for order, r in zip(orders, rs):
            require(sorted(order) == sorted(fac.directions), "a chain is not a permutation")
            rows = [pos[x] for x in order]
            require(components(tables, rows[:r])[0] == 1, f"prefix of length {r} is not connected")
            if r > 1:
                require(components(tables, rows[: r - 1])[0] > 1, f"prefix of length {r - 1} is connected")


class Analyze(Workload):
    """Build, validate, then the component analyses on d/2 random directions."""

    name = "analyze-d18"
    d = 18

    def inputs(self, i):
        return self.rng(i)

    def op(self, rng):
        an = self.cf
        fac = self.build_swapping(rng)
        rep = an.validate(fac)
        subset = sorted(rng.sample(fac.directions, self.d // 2))
        comps = an.union_components(fac, subset)
        cubes = an.small_cube_connectivity(fac, subset)
        classes = an.tf_connectivity(fac, subset)
        conn = an.is_connected(fac, subset)
        return fac, rep, subset, comps, cubes, classes, conn

    def check(self, rng, out):
        fac, rep, subset, comps, cubes, classes, conn = out
        tables = self.check_swapping(fac)
        require(rep.ok, f"validate rejected a valid factorisation: {rep.message}")
        pos = {x: i for i, x in enumerate(fac.directions)}
        rows = [pos[x] for x in subset]
        count, labels = components(tables, rows)
        require(comps.count == count, f"component count {comps.count}, scipy says {count}")
        require(tuple(comps.sizes) == component_sizes(labels), "component sizes differ from scipy")
        bits = sum(1 << i for i in rows)
        require(cubes == small_cube_map(labels, self.d, bits), "small-cube connectivity differs")
        keys = parity_classes(self.d, fac.directions, subset)
        n_classes, n_connected = class_connectivity(keys, labels)
        require(len(classes) == n_classes, f"{len(classes)} parity classes, expected {n_classes}")
        require(sum(classes.values()) == n_connected, "connected parity class count differs")
        require(conn == (count == 1), "is_connected disagrees with scipy")


class Store(Workload):
    """``construct --out`` then ``verify --in`` through ``cli.main``, default
    parameters; a second ``construct`` must write identical bytes."""

    name = "store-d16"
    d = 16

    def __init__(self, cf, seed, tmpdir):
        super().__init__(cf, seed, tmpdir)
        import cubefactors.cli as cli

        self.cli = cli

    def inputs(self, i):
        s = self.rng(i).getrandbits(31)
        return s, os.path.join(self.tmpdir, f"fac-{s}.jsonl")

    def _construct(self, seed, path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["construct", "--d", str(self.d), "--seed", str(seed), "--out", path])
        require(rc == 0, f"construct exited {rc}")

    def op(self, inp):
        seed, path = inp
        self._construct(seed, path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["verify", "--in", path])
        return rc, buf.getvalue()

    def check(self, inp, out):
        seed, path = inp
        rc, text = out
        again = path + ".again"
        try:
            require(rc == 0, f"verify exited {rc}")
            require(json.loads(text)["ok"] is True, "verify did not report ok")
            self._construct(seed, again)
            with open(path, "rb") as a, open(again, "rb") as b:
                require(a.read() == b.read(), "two constructs with the same flags wrote different bytes")
            header, tables = parse_factorisation_file(path)
            require(header["d"] == self.d and header["seed"] == seed, "file header names another input")
            check_factorisation(tables, self.d)
            self.out_bytes.append(os.path.getsize(path))
        finally:
            for p in (path, again):
                if os.path.exists(p):
                    os.remove(p)


class Implicit(Workload):
    """Fresh implicit factorisations answering a batch of ``partner`` queries,
    each compared with an explicit twin built untimed from the same seed."""

    name = "implicit-d18"
    d = 18
    default_queries = 2
    swap_queries = 40

    def __init__(self, cf, seed, tmpdir):
        super().__init__(cf, seed, tmpdir)
        self.params = {"default": cf.ConstructionParams(), "swap": cf.ConstructionParams(**SWAP)}
        self.pos = {x: i for i, x in enumerate(self.ctx.space.directions)}

    def inputs(self, i):
        cf = self.cf
        rng = self.rng(i)
        default = cf.build_explicit(self.ctx, self.params["default"], cf.RandomTape(rng.getrandbits(63)))
        swap = self.build_swapping(rng)
        twins = {"default": default, "swap": swap}
        touched = np.nonzero(partner_stack(swap) != directional_stack(self.d))
        dirs = self.ctx.space.directions
        n = 1 << self.d
        queries = [("default", rng.randrange(n), rng.choice(dirs)) for _ in range(self.default_queries)]
        half = self.swap_queries // 2
        for _ in range(half):
            j = rng.randrange(len(touched[0]))
            queries.append(("swap", int(touched[1][j]), dirs[int(touched[0][j])]))
        queries += [("swap", rng.randrange(n), rng.choice(dirs)) for _ in range(self.swap_queries - half)]
        return twins, queries

    def op(self, inp):
        cf = self.cf
        twins, queries = inp
        facs = {
            k: cf.implicit_factorisation(self.ctx, self.params[k], cf.RandomTape(twins[k].tape.seed))
            for k in ("default", "swap")
        }
        return facs, [facs[k].partner(u, x) for k, u, x in queries]

    def check(self, inp, out):
        twins, queries = inp
        facs, answers = out
        tables = {"default": partner_stack(twins["default"]), "swap": self.check_swapping(twins["swap"])}
        check_factorisation(tables["default"], self.d)
        for (k, u, x), v in zip(queries, answers):
            want = int(tables[k][self.pos[x], u])
            require(v == want, f"implicit partner({u}, {x}) = {v}, explicit twin says {want}")
            require((u ^ v).bit_count() == 1, f"partner({u}, {x}) = {v} is not a neighbour")
            require(facs[k].partner(v, x) == u, f"partner({u}, {x}) = {v} is not an involution")


WORKLOADS = {w.name: w for w in (Sweep, Analyze, Store, Implicit)}
