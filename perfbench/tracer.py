"""Outside-in tracing of chardeg: spans around calls into each module.

The tracer replaces module attributes that the library calls through (for
example `chardeg.degrees.conjugacy_classes`, wherever a chardeg module has
bound it) with wrappers that record a span per call.  chardeg itself is not
edited.  A span's self time is its duration minus the time of the traced
calls it made, so the self times of all spans inside a request add up to
the request's wall time less an unaccounted remainder, which is reported
rather than hidden.  Multiplications are counted by wrapping `multiply` on
realizations the benchmark builds, and attributed to the innermost span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import chardeg.cli  # loads every chardeg module that TARGETS names


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0  # outermost calls only, so recursion is not double counted
    self_mults: int = 0


def _count_classes(counts, result):
    counts["degrees.class_count"] += result.count


def _count_kept(counts, result):
    counts["smallgroups.classes_kept"] += len(result)


def _count_anomalies(counts, result):
    counts["solver.anomalies"] += len(result.anomalies)


def _count_lookup(counts, result):
    counts["cache.misses" if result is None else "cache.hits"] += 1


# (defining module, attribute, span name, result hook).  Arith functions are
# traced only where other modules call into arith, not on calls inside it.
TARGETS = [
    ("groups", "_closure", "groups.closure", None),
    ("groups", "exponent", "groups.exponent", None),
    ("catalog", "realize", "catalog.realize", None),
    ("degrees", "conjugacy_classes", "degrees.classes", _count_classes),
    ("degrees", "dixon_modulus", "degrees.modulus", None),
    ("degrees", "class_matrix", "degrees.class_matrix", None),
    ("degrees", "character_degrees", "degrees.split", None),
    ("smallgroups", "enumerate_groups", "smallgroups.enumerate", _count_kept),
    ("smallgroups", "_fingerprint", "smallgroups.fingerprint", None),
    ("smallgroups", "is_isomorphic", "smallgroups.iso", None),
    ("solver", "g_report", "solver.report", _count_anomalies),
    ("solver", "g_prime", "solver.report", None),
    ("solver", "g_prime_squared", "solver.report", None),
    ("solver", "catalog_report", "solver.report", None),
    ("solver", "verify_witness", "solver.verify_witness", None),
    ("solver", "scan_theorem_a", "solver.scan", None),
    ("solver", "scan_theorem_b", "solver.scan", None),
    ("solver", "kanold_scan", "solver.scan", None),
    ("solver", "verify_minimal", "solver.verify_minimal", None),
    ("cache", "DegreeCache.lookup", "cache.lookup", _count_lookup),
    ("cache", "DegreeCache.store", "cache.store", None),
    ("cli", "run", "cli.run", None),
]


def _arith_targets():
    arith = sys.modules.get("chardeg.arith")
    if arith is None:
        return []
    return [
        ("arith", name, "arith.call", None)
        for name in arith.__all__
        if inspect.isfunction(getattr(arith, name, None))
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter = Counter()
        self.mults = 0
        self.request_wall = 0.0
        self.unaccounted = 0.0
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [child seconds, child mults] per open span
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def _wrap(self, fn, name: str, hook):
        stats = self.stats[name]
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            depth[name] += 1
            mults0 = self.mults
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                dm = self.mults - mults0
                stack.pop()
                depth[name] -= 1
                stats.calls += 1
                stats.self_s += dt - frame[0]
                stats.self_mults += dm - frame[1]
                if not depth[name]:
                    stats.incl_s += dt
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += dm
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def count_multiplies(self, group):
        """Count every product taken through this realization's multiply."""
        mul = group.multiply

        def counted(a, b):
            self.mults += 1
            return mul(a, b)

        group.multiply = counted

    def request(self, call, arg):
        """Run one timed request under a root span; return (result, seconds)."""
        root = [0.0, 0]
        self._stack.append(root)
        t0 = perf_counter()
        try:
            result = call(arg)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.request_wall += dt
            self.unaccounted += dt - root[0]
        return result, dt

    # -- patching

    def __enter__(self):
        modules = [
            m for k, m in sorted(sys.modules.items())
            if k == "chardeg" or k.startswith("chardeg.")
        ]
        for modname, attr, name, hook in TARGETS + _arith_targets():
            owner = sys.modules.get(f"chardeg.{modname}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None)
            if orig is None:
                self.missing.add(f"chardeg.{modname}.{attr}")
                continue
            wrapped = self._wrap(orig, name, hook)
            if cls_name:
                self._patch(owner, meth, wrapped)
                continue
            for mod in modules:
                if modname == "arith" and mod.__name__ == "chardeg.arith":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)
        return False

