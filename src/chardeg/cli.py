"""Command-line interface: reports, scans, enumeration, and the cache.

Subcommands

    gvalue     --degree N          minimal-order report for degree N
    scan-a     --max-p P           per-prime candidate comparison, degree p
    scan-b     --max-p P           same for degree p^2
    kanold     --max-p P           least prime q ≡ 1 mod p versus p^2
    degrees    --spec S [--cache]  degree multiset of a spec
    witness    --degree N          generators of a minimal witness
    verify     --degree N          minimality evidence below the witness
    enumerate  --order N           all groups of order N up to isomorphism
    cache      --stats|--clear     cache maintenance

Output goes to stdout in --format pretty|json|csv; diagnostics go to stderr.
Exit codes: 0 success, 1 a verification check failed, 2 invalid input,
3 a cap or budget was exceeded or memory ran out, 130 interrupted, 141
stdout closed before all was written.  Settings resolve flags
first, then CHARDEG_* environment variables, then --config key = value lines.
Each subcommand imports the layers it uses when it runs, and no sooner.
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import os
import sys
from itertools import chain, repeat
from pathlib import Path

from . import __version__
from .errors import DEFAULT_ELEMENT_CAP, DEFAULT_NODE_BUDGET, DEFAULT_ORDER_CAP
from .errors import Error, InvalidParam

log = logging.getLogger("chardeg")

_DEFAULTS = {
    "format": "pretty",
    "cache_dir": str(Path.home() / ".cache" / "chardeg"),
    "oracle_cap": DEFAULT_ORDER_CAP,
    "budget": DEFAULT_NODE_BUDGET,
    "element_cap": DEFAULT_ELEMENT_CAP,
}
_INT_SETTINGS = {"oracle_cap", "budget", "element_cap"}
_FORMATS = ("pretty", "json", "csv")


def _read_config(path: str) -> dict:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParam(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidParam(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _DEFAULTS:
            raise InvalidParam(f"{path}:{lineno}: unknown setting {key!r}")
        cfg[key] = value.strip()
    return cfg


class Settings:
    """Flags beat CHARDEG_* environment variables beat the config file."""

    def __init__(self, args: argparse.Namespace):
        cfg = _read_config(args.config) if getattr(args, "config", None) else {}
        self.values = {}
        for key, default in _DEFAULTS.items():
            flag = getattr(args, key, None)
            env = os.environ.get(f"CHARDEG_{key.upper()}")
            raw = flag if flag is not None else env if env is not None else cfg.get(key, default)
            if key in _INT_SETTINGS:
                try:
                    raw = int(raw)
                except ValueError:
                    raise InvalidParam(f"setting {key} must be an integer, got {raw!r}")
                if raw < 0:
                    raise InvalidParam(f"setting {key} must not be negative, got {raw}")
            elif key == "format" and raw not in _FORMATS:
                raise InvalidParam(f"unknown format {raw!r}")
            self.values[key] = raw

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)


# ---------------------------------------------------------------- rendering


class _JsonText(str):
    """Text already encoded as JSON, which _emit's json output takes as it is."""


def _json_rows(columns: dict) -> _JsonText:
    """json.dumps(rows, sort_keys=True) of the rows that the columns hold:
    equal-length lists by key, each all ints, all bools or all strings.
    Each column is encoded once, ints by int.__repr__, bools from a table
    and strings by json.dumps once per distinct value, and one join
    interleaves them with the keys' text."""
    import json
    rows, pieces = len(next(iter(columns.values()), ())), []
    for key in sorted(columns):
        col = columns[key]
        kind = type(col[0]) if col else int
        if kind is bool:
            encoded = map(("false", "true").__getitem__, col)
        elif kind is str:
            encoded = map({s: json.dumps(s) for s in set(col)}.__getitem__, col)
        else:
            encoded = map(int.__repr__, col)
        pieces += [repeat(("{" if not pieces else ", ") + json.dumps(key) + ": "), encoded]
    text = "".join(chain.from_iterable(zip(*pieces, repeat("}, ", rows))))
    return _JsonText("[" + text[:-2] + "]")


def _emit(args, settings, data, rows, pretty, csv_comments: list[str] = ()):
    """Print the rendering the format asks for.  data (a dict for json),
    rows (a CSV header and body) and pretty (lines) are functions, and only
    the one the format prints is called.  The json output is
    json.dumps(data, sort_keys=True), but a `_JsonText` value is spliced in
    as it is: the scans encode their rows by column (`_json_rows`)."""
    fmt, stamp = settings.format, None
    if not args.no_timestamp:
        from .cache import utc_now
        stamp = utc_now()
    if fmt == "json":
        import json
        payload = dict(data())
        if stamp:
            payload["timestamp"] = stamp
        if not any(isinstance(value, _JsonText) for value in payload.values()):
            print(json.dumps(payload, sort_keys=True))
        else:  # json.dumps's layout, a key at a time (one call is cheaper)
            items = (
                f"{json.dumps(key)}: "
                + (value if isinstance(value, _JsonText) else json.dumps(value, sort_keys=True))
                for key, value in sorted(payload.items())
            )
            print("{" + ", ".join(items) + "}")
    elif fmt == "csv":
        import csv
        header, body = rows()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
        sys.stdout.write(buf.getvalue())
        for comment in csv_comments:
            print(f"# {comment}")
        if stamp:
            print(f"# generated {stamp}")
    else:
        sys.stdout.write("".join(map("%s\n".__mod__, pretty())))
        if stamp:
            print(f"generated {stamp}")


# -------------------------------------------------------------- subcommands


def _cmd_gvalue(args, settings) -> int:
    from .catalog import spec_text
    from .solver import g_report
    report = g_report(args.degree, verify=not args.no_verify, cap=settings.element_cap)
    data = {
        "n": report.n,
        "candidates": [
            {"label": c.label, "order": c.order, "spec": spec_text(c.spec)}
            for c in report.candidates
        ],
        "min_order": report.min_order,
        "case_label": report.case_label,
        "witness_specs": [spec_text(s) for s in report.witness_specs],
        "verified": report.verified,
        "anomalies": list(report.anomalies),
    }
    witnesses = ", ".join(data["witness_specs"]) or "(none verified)"
    pretty = [f"g({report.n}) = {report.min_order}   case {report.case_label}"]
    pretty += [
        f"  candidate {c.label:<9} order {c.order:<10} {spec_text(c.spec)}"
        for c in report.candidates
    ]
    pretty.append(f"  witnesses: {witnesses}")
    pretty.append(f"  verified: {'yes' if report.verified else 'no'}")
    pretty += [f"  anomaly: {a}" for a in report.anomalies]
    rows = (
        ["n", "label", "order", "spec", "winner"],
        [
            [report.n, c.label, c.order, spec_text(c.spec), int(c.order == report.min_order)]
            for c in report.candidates
        ],
    )
    _emit(args, settings, lambda: data, lambda: rows, lambda: pretty)
    attempted = not args.no_verify and report.min_order <= settings.element_cap
    return 1 if attempted and not report.verified else 0


def _cmd_scan(args, settings) -> int:
    from .solver import scan_theorem_a, scan_theorem_b
    scan = scan_theorem_b if args.command == "scan-b" else scan_theorem_a
    columns, case_a, anomalies = scan(args.max_p)
    header = ["p", "case_label", "min_order"]
    p, case, least = map(columns.__getitem__, header)
    _emit(
        args,
        settings,
        lambda: {"rows": _json_rows(columns), "case_a": case_a, "anomalies": anomalies},
        lambda: (header, zip(p, case, least)),
        lambda: [
            *map("p=%-6d case %-4s min_order %d".__mod__, zip(p, case, least)),
            f"case (a) primes: {list(case_a)}",
            *[f"anomaly: {a}" for a in anomalies],
        ],
        [f"case_a {' '.join(map(str, case_a))}"],
    )
    return 0


def _cmd_kanold(args, settings) -> int:
    from .solver import kanold_scan
    columns = kanold_scan(args.max_p)
    header = ["p", "q", "holds", "companion_holds"]
    p, q, holds, companion = map(columns.__getitem__, header)
    all_hold = all(holds)
    yes_no = map(("NO", "yes").__getitem__, holds), map(("no", "yes").__getitem__, companion)
    _emit(
        args,
        settings,
        lambda: {"rows": _json_rows(columns), "all_hold": all_hold},
        lambda: (header, zip(p, q, map(int, holds), map(int, companion))),
        lambda: [
            *map("p=%-6d q=%-8d q<p^2 %s   companion %s".__mod__, zip(p, q, *yes_no)),
            "conjecture holds over the scanned range" if all_hold else "CONJECTURE VIOLATED in range",
        ],
    )
    return 0


def _cmd_degrees(args, settings) -> int:
    from .cache import CacheEntry, DegreeCache, utc_now
    from .catalog import parse_spec, realize, spec_text
    from .degrees import character_degrees
    spec = parse_spec(args.spec)
    canonical = spec_text(spec)
    cache = DegreeCache(settings.cache_dir) if args.cache else None
    order = functools.cache(functools.partial(spec.order, settings.element_cap))
    entry = cache.lookup(canonical, __version__, order) if cache else None
    if entry is not None:
        log.info("cache hit for %s", canonical)
    else:
        g = realize(spec, settings.element_cap)
        multiset = character_degrees(g, settings.element_cap)
        entry = CacheEntry(
            spec_text=canonical,
            order=multiset.group_order,
            degrees=tuple(multiset.degrees),
            engine_version=__version__,
            timestamp=utc_now(),
        )
        if cache:
            cache.store(entry)
    data = {
        "spec": canonical,
        "degrees": list(entry.degrees),
        "group_order": entry.order,
    }
    counts: dict[int, int] = {}
    for d in entry.degrees:
        counts[d] = counts.get(d, 0) + 1
    pretty = [f"spec {canonical}", f"order {entry.order}"]
    pretty += [f"  degree {d} x{c}" for d, c in sorted(counts.items())]
    body = [[d, c] for d, c in sorted(counts.items())]
    _emit(args, settings, lambda: data, lambda: (["degree", "count"], body), lambda: pretty)
    return 0


def _cmd_witness(args, settings) -> int:
    from .catalog import realize, spec_text, witnesses_for_degree
    from .groups import index_tables
    from .solver import g_report
    report = g_report(args.degree, verify=not args.no_verify, cap=settings.element_cap)
    specs = report.witness_specs or tuple(
        c.spec for c in report.candidates if c.order == report.min_order
    )
    # an unverified report lists refuted claims too (G72D for degree 8)
    refuted = [w.spec for w in witnesses_for_degree(report.n) if w.degree_claim != report.n]
    spec = next((s for s in specs if s not in refuted), specs[0])
    g = realize(spec, settings.element_cap)
    order = len(index_tables(g, settings.element_cap))
    gens = [spec.element_text(x) for x in g.generators]
    data = {
        "n": report.n,
        "spec": spec_text(spec),
        "order": order,
        "verified": report.verified,
        "generators": gens,
    }
    pretty = [f"degree {report.n}: {spec_text(spec)} of order {order}"]
    pretty += [f"  gen {i}: {s}" for i, s in enumerate(gens)]
    body = [[i, s] for i, s in enumerate(gens)]
    _emit(args, settings, lambda: data, lambda: (["index", "generator"], body), lambda: pretty)
    return 0 if report.witness_specs else 1


def _cmd_verify(args, settings) -> int:
    from .solver import g_report, verify_minimal
    report = g_report(args.degree, verify=False)
    status = verify_minimal(
        args.degree, report.min_order, settings.oracle_cap, settings.budget
    )
    data = {
        "n": status.n,
        "lower_bound": status.lower_bound,
        "residual_orders": list(status.residual_orders),
        "status": status.status,
        "notes": list(status.notes),
        "witness_order": report.min_order,
    }
    pretty = [
        f"degree {status.n}: witness order {report.min_order}, "
        f"lower bound {status.lower_bound}",
        f"status {status.status}"
        + (f", residual orders {list(status.residual_orders)}" if status.residual_orders else ""),
    ]
    pretty += [f"  note: {n}" for n in status.notes]
    body = [
        [
            status.n,
            status.lower_bound,
            status.status,
            ";".join(map(str, status.residual_orders)),
        ]
    ]
    header = ["n", "lower_bound", "status", "residual_orders"]
    _emit(args, settings, lambda: data, lambda: (header, body), lambda: pretty)
    return 1 if any("not minimal" in n for n in status.notes) else 0


def _cmd_enumerate(args, settings) -> int:
    from .degrees import character_degrees
    from .smallgroups import enumerate_groups, table_to_realization
    tables = enumerate_groups(args.order, budget=settings.budget)
    classes = []
    for i, t in enumerate(tables):
        multiset = character_degrees(table_to_realization(t))
        classes.append(
            {
                "index": i,
                "element_orders": sorted(t.element_orders()),
                "degrees": list(multiset.degrees),
            }
        )
    data = {"order": args.order, "count": len(tables), "classes": classes}
    pretty = [f"order {args.order}: {len(tables)} isomorphism classes"]
    pretty += [
        f"  class {c['index']}: element orders {c['element_orders']}, "
        f"degrees {c['degrees']}"
        for c in classes
    ]
    body = [
        [
            c["index"],
            ";".join(map(str, c["element_orders"])),
            ";".join(map(str, c["degrees"])),
        ]
        for c in classes
    ]
    header = ["index", "element_orders", "degrees"]
    _emit(args, settings, lambda: data, lambda: (header, body), lambda: pretty)
    return 0


def _cmd_cache(args, settings) -> int:
    from .cache import DegreeCache
    cache = DegreeCache(settings.cache_dir)
    if args.clear:
        try:
            removed = cache.clear()
        except OSError as exc:
            log.error("cannot clear the cache: %s", exc)
            return 2
        data = {"cleared": removed, "path": str(cache.path)}
        pretty = [f"cleared {removed} entries from {cache.path}"]
        body = [["cleared", removed]]
    else:
        stats = cache.stats()
        data = stats
        pretty = [f"cache {stats['path']}: {stats['entries']} entries"]
        pretty += [f"  {s}" for s in stats["specs"]]
        body = [["entries", stats["entries"]], ["path", stats["path"]]]
    _emit(args, settings, lambda: data, lambda: (["key", "value"], body), lambda: pretty)
    return 0


# ------------------------------------------------------------------ parsing


@functools.cache  # a parse leaves the parser as it was, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--config", default=None, help="key = value settings file")
    common.add_argument("--cache-dir", dest="cache_dir", default=None)
    common.add_argument("--no-timestamp", action="store_true")
    common.add_argument("--verbose", action="store_true")
    common.add_argument(
        "--element-cap", dest="element_cap", type=int, default=None
    )

    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="minimal group orders for prescribed irreducible character degrees",
    )
    parser.add_argument("--version", action="version", version=f"chardeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gvalue", parents=[common], help="minimal order for a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--no-verify", action="store_true")

    p = sub.add_parser("scan-a", parents=[common], help="degree-p candidate scan")
    p.add_argument("--max-p", dest="max_p", type=int, required=True)

    p = sub.add_parser("scan-b", parents=[common], help="degree-p^2 candidate scan")
    p.add_argument("--max-p", dest="max_p", type=int, required=True)

    p = sub.add_parser("kanold", parents=[common], help="least prime 1 mod p vs p^2")
    p.add_argument("--max-p", dest="max_p", type=int, required=True)

    p = sub.add_parser("degrees", parents=[common], help="degree multiset of a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--cache", action="store_true")

    p = sub.add_parser("witness", parents=[common], help="generators of a witness")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--no-verify", action="store_true")

    p = sub.add_parser("verify", parents=[common], help="minimality evidence")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--oracle-cap", dest="oracle_cap", type=int, default=None)

    p = sub.add_parser("enumerate", parents=[common], help="groups of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("cache", parents=[common], help="cache maintenance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stats", action="store_true")
    group.add_argument("--clear", action="store_true")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s: %(message)s",
        force=True,  # run() may be called repeatedly in one process
    )
    try:
        settings = Settings(args)
        command = {
            "gvalue": _cmd_gvalue,
            "scan-a": _cmd_scan,
            "scan-b": _cmd_scan,
            "kanold": _cmd_kanold,
            "degrees": _cmd_degrees,
            "witness": _cmd_witness,
            "verify": _cmd_verify,
            "enumerate": _cmd_enumerate,
            "cache": _cmd_cache,
        }[args.command]  # argparse admits no other command
        return command(args, settings)
    except Error as exc:
        prefix = "internal verification failure: " if exc.exit_code == 1 else ""
        log.error("%s%s", prefix, exc)
        return exc.exit_code
    except MemoryError:
        log.error("out of memory")
        return 3
    except RecursionError:
        log.error("recursion too deep")
        return 3
    except KeyboardInterrupt:
        log.error("interrupted")
        return 130


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # Python flushes stdout once more at exit: send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)
