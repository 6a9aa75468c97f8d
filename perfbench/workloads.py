"""The benchmark's four workloads: their requests and how each is checked.

Every workload is a closed loop: one client in one process sends a request
only after the previous one has returned.  A round sends each request of the
workload once, in an order drawn from the seed; a run repeats rounds.  The
engine workloads (mult-bound, class-bound, oracle) recompute from fresh
realizations every round, since chardeg caches the element list on a
realization.  Each request's answer is compared with `reference`, never with
another chardeg output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

from chardeg import catalog, cli, degrees, smallgroups

import reference as ref


@dataclass
class Request:
    key: str
    call: Callable[[object], object]  # the timed part
    check: Callable[[object], str | None]  # None when the answer is right
    prepare: Callable[[], object] = lambda: None  # untimed; its value is passed to call


@dataclass
class Workload:
    name: str
    min_rounds: int
    setup_specs: tuple[str, ...]  # realized when set-up time is measured
    sizes: list[str]
    requests: Callable  # (workdir, tracer or None) -> list[Request]
    notes: set[str] = field(default_factory=set)

    def make_round(self, rng: random.Random, workdir: str, tracer) -> list[Request]:
        reqs = self.requests(workdir, tracer)
        rng.shuffle(reqs)
        # the cold cache request has to reach the fresh cache before the warm one
        keys = [r.key for r in reqs]
        if COLD in keys and WARM in keys:
            i, j = keys.index(COLD), keys.index(WARM)
            if j < i:
                reqs[i], reqs[j] = reqs[j], reqs[i]
        return reqs


# ------------------------------------------------------------ engine specs


def _size_line(spec: str) -> str:
    g = ref.group(spec)
    return f"{spec}: |G| {g.order}, {g.classes} classes, modulus l {g.modulus}"


def _spec_workload(name: str, specs: tuple[str, ...], min_rounds: int) -> Workload:
    want = {s: ref.group(s) for s in specs}

    def requests(workdir, tracer):
        out = []
        for spec in specs:
            def prepare(spec=spec):
                g = catalog.realize(catalog.parse_spec(spec))
                if tracer is not None:
                    tracer.count_multiplies(g)
                return g

            def check(m, spec=spec):
                got = (m.group_order, tuple(m.degrees))
                expect = (want[spec].order, want[spec].degrees)
                return None if got == expect else f"{spec}: degrees {got} != reference {expect}"

            out.append(Request(spec, lambda g: degrees.character_degrees(g), check, prepare))
        return out

    return Workload(name, min_rounds, specs, [_size_line(s) for s in specs], requests)


# ------------------------------------------------------------------ oracle


def _census(n: int):
    tables = smallgroups.enumerate_groups(n)
    return sorted(
        tuple(degrees.character_degrees(smallgroups.table_to_realization(t)).degrees)
        for t in tables
    )


def _oracle_workload(orders: range, min_rounds: int) -> Workload:
    def requests(workdir, tracer):
        out = []
        for n in orders:
            def check(got, n=n):
                want = sorted(ref.SMALL_GROUP_DEGREES[n])
                return None if got == want else f"order {n}: classes {got} != reference {want}"

            out.append(Request(f"order {n}", lambda _, n=n: _census(n), check))
        return out

    classes = sum(len(ref.SMALL_GROUP_DEGREES[n]) for n in orders)
    sizes = [f"orders {orders.start}..{orders.stop - 1}: {classes} isomorphism classes"]
    return Workload("oracle", min_rounds, (), sizes, requests)


# ----------------------------------------------------------------- reports

COLD = "degrees --cache (cold)"
WARM = "degrees --cache (warm)"


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + ["--format", "json", "--no-timestamp"])
    return code, out.getvalue(), err.getvalue()


def _expect(code: int, fields: Callable[[dict], str | None] | None = None):
    """Check the exit code, then (for exit 0) the JSON fields."""

    def check(result):
        got_code, out, err = result
        if got_code != code:
            return f"exit {got_code} != {code}: {err.strip()[:200]}"
        if code != 0:
            return None if not out else f"exit {code} printed a result: {out[:200]}"
        return fields(json.loads(out))

    return check


def _fields(want: dict, **tests):
    """Compare JSON keys with `want`, and run any extra predicate tests."""

    def fields(data):
        for key, value in want.items():
            if data.get(key) != value:
                return f"{key}: {str(data.get(key))[:200]} != reference {str(value)[:200]}"
        for key, test in tests.items():
            problem = test(data.get(key))
            if problem:
                return f"{key}: {problem}"
        return None

    return fields


def _reports_workload(mix: dict, min_rounds: int) -> Workload:
    notes: set[str] = set()
    pool: list[tuple[str, list[str], Callable]] = []

    def anomalies_expected(n):
        """Exactly the known anomalies: a new one or a missing one is wrong."""
        expected = list(ref.KNOWN_ANOMALIES.get(n, ()))

        def test(anomalies):
            if anomalies != expected:
                return f"{anomalies} != expected {expected}"
            notes.update(anomalies)
            return None
        return test

    for n in mix["gvalue"]:
        want = {"min_order": ref.g_value(n), "verified": True,
                "witness_specs": [ref.witness_spec(n)]}
        root = isqrt(n)
        if ref.is_prime(n):
            want["case_label"] = ref.g_prime(n)[0]
        elif root * root == n and ref.is_prime(root):
            want["case_label"] = ref.g_prime_squared(root)[0]
        pool.append((f"gvalue {n}", ["gvalue", "--degree", str(n)],
                     _expect(0, _fields(want, anomalies=anomalies_expected(n)))))
    for cmd, squared in (("scan-a", False), ("scan-b", True)):
        for max_p in mix[cmd]:
            rows, n_anomalies = ref.scan(max_p, squared)
            # the paper's theorems: PSL2 wins only at p = 19, in both regimes
            want = {"rows": rows, "case_a": [19] if max_p >= 19 else []}
            count = lambda a, k=n_anomalies: None if len(a) == k else f"{len(a)} != {k}"
            pool.append((f"{cmd} {max_p}", [cmd, "--max-p", str(max_p)],
                         _expect(0, _fields(want, anomalies=count))))
    for max_p in mix["kanold"]:
        rows = ref.kanold_rows(max_p)
        want = {"rows": rows, "all_hold": all(r["holds"] for r in rows)}
        pool.append((f"kanold {max_p}", ["kanold", "--max-p", str(max_p)],
                     _expect(0, _fields(want))))
    for n in mix["verify"]:
        want = ref.minimality(n)
        pool.append((f"verify {n}", ["verify", "--degree", str(n)], _expect(0, _fields(want))))
    for n in mix["witness"]:
        want = {"spec": ref.witness_spec(n), "order": ref.g_value(n), "verified": True}
        pool.append((f"witness {n}", ["witness", "--degree", str(n)], _expect(0, _fields(want))))
    for n in mix["enumerate"]:
        census = sorted(list(d) for d in ref.SMALL_GROUP_DEGREES[n])
        classes = lambda cs, c=census: None if sorted(x["degrees"] for x in cs) == c else f"{cs}"
        pool.append((f"enumerate {n}", ["enumerate", "--order", str(n)],
                     _expect(0, _fields({"count": len(census)}, classes=classes))))
    for spec in mix["degrees"]:
        g = ref.group(spec)
        want = {"spec": spec, "group_order": g.order, "degrees": list(g.degrees)}
        pool.append((f"degrees {spec}", ["degrees", "--spec", spec], _expect(0, _fields(want))))
    pool.append(("invalid spec", ["degrees", "--spec", "frob:4^1:3"], _expect(2)))
    pool.append(("class cap", ["degrees", "--spec", "xsp:5:2"], _expect(3)))
    cache_spec = mix["cache"]
    g = ref.group(cache_spec)
    cached = _expect(0, _fields({"spec": cache_spec, "group_order": g.order,
                                 "degrees": list(g.degrees)}))

    def requests(workdir, tracer):
        out = [Request(key, lambda _, a=argv: _run_cli(a), check) for key, argv, check in pool]
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        argv = ["degrees", "--spec", cache_spec, "--cache", "--cache-dir", cache_dir]
        out += [Request(k, lambda _: _run_cli(argv), cached) for k in (COLD, WARM)]
        return out

    sizes = [f"{len(pool) + 2} requests per round; cold and warm cache on {cache_spec}"]
    return Workload("reports", min_rounds, (cache_spec,), sizes, requests, notes)


# -------------------------------------------------------------- the table

# The reports mix: about forty requests whose latencies fall in a few tight
# groups (~3 ms, ~6 ms, ~20-50 ms, ~0.1-0.3 s, ~0.5-1 s), sized so that the
# median lands inside the ~6 ms group and the tail (the 11th slowest of four
# or more rounds) inside the ~0.5-1 s group rather than on a gap between two.
REPORTS_MIX = {
    "gvalue": [2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 17, 19, 23, 29, 31, 25],
    "scan-a": [30000],
    "scan-b": [300, 71],
    "kanold": [30000, 1000],
    "verify": [2, 3, 4, 5, 6, 7, 8],
    "witness": [5, 7, 9],
    "enumerate": [6, 8],
    "degrees": ["psl2:5", "frob:2^3:7", "frob:11^1:5", "xsp:3:1"],
    "cache": "psl2:19",
}
SMOKE_MIX = {
    "gvalue": [2, 5, 8, 9], "scan-a": [100], "scan-b": [30], "kanold": [100],
    "verify": [5], "witness": [7], "enumerate": [6], "degrees": ["psl2:5"], "cache": "psl2:7",
}


def build(name: str, smoke: bool = False) -> Workload:
    """The named workload; `smoke` swaps in tiny inputs of the same shape."""
    if name == "mult-bound":
        specs = ("psl2:5", "frob:2^2:3") if smoke else ("psl2:37", "frob:2^8:17", "frob:191^1:19")
        return _spec_workload(name, specs, 1 if smoke else 2)
    if name == "class-bound":
        specs = (
            ("prod(xsp:3:1,cyclic:2)", "xsp:3:1") if smoke
            else ("prod(xsp:3:2,cyclic:3)", "prod(xsp:3:2,cyclic:2)", "xsp:3:2")
        )
        return _spec_workload(name, specs, 1 if smoke else 3)
    if name == "oracle":
        return _oracle_workload(range(1, 7) if smoke else range(1, 14), 1 if smoke else 3)
    if name == "reports":
        return _reports_workload(SMOKE_MIX, 1) if smoke else _reports_workload(REPORTS_MIX, 4)
    raise KeyError(name)


NAMES = ("mult-bound", "class-bound", "oracle", "reports")
