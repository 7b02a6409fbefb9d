"""Spans and counts around calls into the public functions of ``cubefactors``.

``Tracer.install`` replaces every public function (every function defined
there whose name has no leading underscore) of the modules ``code``,
``construct``, ``analyze`` and ``cli`` (and every other module's reference to
it) with a wrapper that records a span: name, start, end and the index of the
enclosing span.  ``Factorisation.partner`` gets a span too, and
``RandomTape.coin`` a bare call counter, because it runs thousands of times
per implicit query.  Spans are kept in memory and recorded only while
``active`` is set, which the benchmark sets around timed operations.

The program itself is not changed: the wrappers live in the benchmark and are
installed only for ``--trace 1`` runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("code", "construct", "analyze", "cli")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.coin_calls = 0
        self.touched_edges: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            slot = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(slot)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[slot] = (name, t0, t1, parent)

        return traced

    def install(self, package: str = "cubefactors") -> None:
        mods = {m: importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES}
        plan_summary = mods["construct"].plan_summary
        replaced = {}
        for short, mod in mods.items():
            for n, fn in vars(mod).items():
                if (
                    not n.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    replaced[fn] = self._wrap(f"{short}.{n}", fn)
        # Rebind every reference, so that calls between modules are traced too.
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

        construct = mods["construct"]
        fac_cls = construct.Factorisation
        fac_cls.partner = self._wrap("construct.partner", fac_cls.partner)
        tape_cls = construct.RandomTape
        coin = tape_cls.coin
        tracer = self

        def counted_coin(tape, vertex, threshold):
            if tracer.active:
                tracer.coin_calls += 1
            return coin(tape, vertex, threshold)

        tape_cls.coin = counted_coin

        sample_plan = construct.sample_plan

        @functools.wraps(sample_plan)
        def summarised_sample_plan(*args, **kwargs):
            plan = sample_plan(*args, **kwargs)
            if tracer.active:
                tracer.touched_edges.append(plan_summary(plan)["touched_edges"])
            return plan

        for mod in mods.values():
            if getattr(mod, "sample_plan", None) is sample_plan:
                mod.sample_plan = summarised_sample_plan

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p}
            for n, t0, t1, p in self.spans
        ]
