"""Spans around the public functions of agstab, recorded from outside.

The program is not edited: wrappers replace the public names in every
loaded agstab module that refers to them (a ``from .x import y`` binding
is a separate reference), and are removed again afterwards.  Spans stay
in memory as (name, start, end, parent, pass id) and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import agstab
import agstab.cli
import agstab.cones
import agstab.molien
import agstab.perms
import agstab.pipeline
import agstab.reference
import agstab.symfunc

# span name -> (owner, attribute); only public names, none that the
# ROADMAP plans to delete.
TRACED = (
    ("cli.main", agstab.cli, "main"),
    ("pipeline.load_cone_specs", agstab.pipeline, "load_cone_specs"),
    ("pipeline.load_dataset", agstab.pipeline, "load_dataset"),
    ("pipeline.generator_series", agstab.pipeline, "generator_series"),
    ("pipeline.betti_series", agstab.pipeline, "betti_series"),
    ("pipeline.display_report", agstab.pipeline, "display_report"),
    ("reference.run_suite", agstab.reference, "run_suite"),
    ("cones.analyze", agstab.cones, "analyze"),
    ("cones.cone_dimension", agstab.cones, "cone_dimension"),
    ("cones.cone_rank", agstab.cones, "cone_rank"),
    ("cones.cone_components", agstab.cones, "cone_components"),
    ("cones.cone_automorphisms", agstab.cones, "cone_automorphisms"),
    ("cones.cone_poincare_series", agstab.cones, "cone_poincare_series"),
    ("perms.from_generators", agstab.perms.PermGroup, "from_generators"),
    ("perms.from_elements", agstab.perms.PermGroup, "from_elements"),
    ("molien.molien_series", agstab.molien, "molien_series"),
    ("symfunc.exp_series", agstab.symfunc, "exp_series"),
)


class Patches:
    """Replacements of agstab names, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make):
        """Put make(current) wherever agstab refers to owner.attr."""
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            wrapped = classmethod(make(raw.__func__))
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            return
        current = getattr(owner, attr)
        replacement = make(current)
        for name, module in list(sys.modules.items()):
            if name != "agstab" and not name.startswith("agstab."):
                continue
            for key, value in list(vars(module).items()):
                if value is current:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, current))

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class ConeTimer:
    """Times every analyze() call and keeps its |Aut| and Poincare series.

    It is on in untraced runs too: slowest_cone_s needs the per-cone
    times of the CLI workload, and the traced run is compared with the
    untraced one cone by cone.  The cost is two clock reads per cone.
    """

    def __init__(self):
        # (name, start, end, |Aut|, Poincare coefficients)
        self.calls: list[tuple[str, float, float, int, tuple]] = []

    def install(self, patches: Patches):
        def make(analyze):
            @functools.wraps(analyze)
            def timed(spec, *args, **kwargs):
                start = time.perf_counter()
                result = analyze(spec, *args, **kwargs)
                end = time.perf_counter()
                self.calls.append(
                    (spec.name, start, end, result.aut.order, result.poincare.coefficients)
                )
                return result

            return timed

        patches.replace(agstab.cones, "analyze", make)

    def take(self):
        calls, self.calls = self.calls, []
        return calls


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.counts: dict[str, int] = {}
        # (generators, order) of each group cone_automorphisms returned, for
        # the closure replay; the groups themselves are not kept alive
        self.groups: list[tuple[tuple, int]] = []
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._patches = Patches()

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name, args, result):
        if self.pass_id == "replay":
            return
        if name == "cones.cone_automorphisms":
            self._count("cones.count", 1)
            self._count("cones.generators", args[0].n_generators)
            self._count("perms.group_elements", result.order)
            self.groups.append((result.generators, result.order))
        elif name == "molien.molien_series":
            action = args[0]
            self._count("molien.elements", action.group.order)
            if not action.is_permutation_action:
                self._count("cones.nonbasic", 1)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            self._observe(name, args, result)
            return result

        return traced

    def install(self):
        for name, owner, attr in TRACED:
            self._patches.replace(owner, attr, functools.partial(self._wrap, name))

    def uninstall(self):
        self._patches.undo()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def total(self, names, pass_ids) -> float:
        """Inclusive seconds in spans with these names, not nested in one another."""
        names = set(names)
        out = 0.0
        for name, start, end, parent, pid in self.spans:
            if name not in names or pid not in pass_ids:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out += end - start
        return out

    def to_json(self) -> dict:
        own = self.self_times()
        by_name: dict[str, dict] = {}
        for (name, start, end, _, pid), mine in zip(self.spans, own):
            row = by_name.setdefault(f"{pid}:{name}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += mine
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "pass": pid}
                for n, s, e, p, pid in self.spans
            ],
            "by_name": by_name,
            "counts": dict(self.counts),
        }


def span_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare one, median of repeats."""

    def noop(spec):
        return spec

    tracer = Tracer()
    wrapped = tracer._wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(None)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(None)
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append((t2 - 2 * t1 + t0) / calls)
    return statistics.median(costs)
