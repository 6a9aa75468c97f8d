"""Acceptance gate: one test per published criterion.

Each test covers exactly one criterion, prints a single
`ACCEPTANCE k (<label>): PASS in <t>s` line on success, and asserts the
criterion's runtime budget.  A failing assertion prints the matching FAIL
line and surfaces as the one red test for that criterion, so
`pytest -v tests/test_acceptance.py` reads as a per-criterion scoreboard.
"""

import json
import time
from contextlib import contextmanager

import pytest

from chardeg.arith import psl2_order
from chardeg.catalog import parse_spec, realize, spec_text
from chardeg.cli import run
from chardeg.degrees import (
    character_degrees,
    conjugacy_classes,
    extraspecial_degrees_closed_form,
    frobenius_degrees_closed_form,
    product_degrees,
)
from chardeg.groups import enumerate_elements
from chardeg.smallgroups import enumerate_groups, is_isomorphic

from group_facts import derived_subgroup_order
from test_smallgroups import from_spec  # Cayley-table bridge for containment


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num} ({label}): PASS in {elapsed:.2f}s")


def cli_json(capsys, *argv):
    code = run(list(argv) + ["--format", "json", "--no-timestamp"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_g_table(capsys):
    with criterion(1, "g-table for n=2..9", 60):
        for n, want in {2: 6, 3: 12, 4: 20, 5: 55, 7: 56, 9: 144}.items():
            code, data = cli_json(capsys, "gvalue", "--degree", str(n))
            assert code == 0
            assert data["min_order"] == want, (n, data["min_order"])
            assert data["verified"] is True
        for n, want in {6: 42, 8: 72}.items():
            code, data = cli_json(capsys, "gvalue", "--degree", str(n))
            assert code == 0
            assert data["min_order"] == want, (n, data["min_order"])
            # the degree claim itself is confirmed by the modular engine
            assert data["verified"] is True
            assert data["witness_specs"]


def test_criterion_2_degree_p_scan(capsys):
    with criterion(2, "degree-p scan to 4000", 120):
        code, data = cli_json(capsys, "scan-a", "--max-p", "4000")
        assert code == 0
        assert data["case_a"] == [19]
        assert len(data["rows"]) == 550  # primes below 4000


def test_criterion_3_degree_p2_scan(capsys):
    with criterion(3, "degree-p^2 scan to 71", 10):
        code, data = cli_json(capsys, "scan-b", "--max-p", "71")
        assert code == 0
        assert data["case_a"] == [19]
        rows = {r["p"]: r for r in data["rows"]}
        assert rows[5] == {"p": 5, "case_label": "b", "min_order": 2525}
        assert rows[7] == {"p": 7, "case_label": "c", "min_order": 3136}


def test_criterion_4_kanold_scan(capsys):
    with criterion(4, "least prime 1 mod p below p^2, p < 4000", 60):
        code, data = cli_json(capsys, "kanold", "--max-p", "4000")
        assert code == 0
        assert len(data["rows"]) == 550
        assert all(r["holds"] for r in data["rows"])
        assert data["all_hold"] is True  # range-verified, not a proof


FROB_CASES = [(3, 1, 2), (11, 1, 5), (2, 3, 7), (191, 1, 19)]
XSP_CASES = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


def test_criterion_5_closed_form_vs_engine():
    with criterion(5, "closed forms equal engine multisets", 120):
        for q, m, k in FROB_CASES:
            g = realize(parse_spec(f"frob:{q}^{m}:{k}"))
            assert character_degrees(g) == frobenius_degrees_closed_form(q, m, k)
        for p, n in XSP_CASES:
            g = realize(parse_spec(f"xsp:{p}:{n}"))
            assert character_degrees(g) == extraspecial_degrees_closed_form(p, n)


def test_criterion_6_psl2_verification():
    with criterion(6, "degree p inside PSL2(p)", 120):
        for p in (5, 7, 11, 13, 19):
            g = realize(parse_spec(f"psl2:{p}"))
            order = len(enumerate_elements(g))
            assert order == psl2_order(p) == p * (p * p - 1) // 2
            multiset = character_degrees(g)
            assert p in multiset.degrees
            assert sum(d * d for d in multiset.degrees) == order
            assert len(multiset.degrees) == len(conjugacy_classes(g).sizes)


ENUM_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5)
SMALL_CATALOG = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:7",
    "cyclic:8",
    "cyclic:9",
    "cyclic:10",
    "cyclic:11",
    "cyclic:12",
    "prod(cyclic:2,cyclic:2)",
    "prod(cyclic:2,cyclic:3)",
    "named:S3",
    "frob:3^1:2",
    "xsp:2:1",
    "frob:2^2:3",
    "named:A4",
]


def test_criterion_7_enumerator_oracle():
    with criterion(7, "groups of order 1..12 up to isomorphism", 300):
        tables = {}
        for n, want in zip(range(1, 13), ENUM_COUNTS):
            found = enumerate_groups(n)
            tables[n] = found
            assert len(found) == want, (n, len(found))
            for t in found:
                assert t.is_associative()
            for i in range(len(found)):
                for j in range(i + 1, len(found)):
                    assert not is_isomorphic(found[i], found[j]), (n, i, j)
        for text in SMALL_CATALOG:
            mine = from_spec(text)
            matches = [t for t in tables[mine.n] if is_isomorphic(mine, t)]
            assert len(matches) == 1, text


def test_criterion_8_minimality_statuses(capsys):
    with criterion(8, "minimality evidence below each witness", 60):
        for n in (2, 3, 4, 6, 7, 8):
            code, data = cli_json(capsys, "verify", "--degree", str(n))
            assert code == 0
            assert data["status"] == "Exhaustive", (n, data)
            assert data["residual_orders"] == []
        code, data = cli_json(capsys, "verify", "--degree", "5")
        assert code == 0
        assert data["status"] == "WitnessOnly"
        assert data["residual_orders"] == [30, 40, 45, 50]


CORPUS = [
    "cyclic:1",
    "cyclic:12",
    "frob:3^1:2",
    "frob:2^2:3",
    "frob:11^1:5",
    "frob:7^1:6",
    "frob:2^3:7",
    "frob:191^1:19",
    "psl2:5",
    "psl2:7",
    "psl2:11",
    "xsp:2:1",
    "xsp:2:2",
    "xsp:3:1",
    "xsp:3:2",
    "named:S3",
    "named:A4",
    "named:C5C4",
    "named:C11C5",
    "named:C7C6",
    "named:E8C7",
    "named:G72D",
    "named:G72Q",
    "named:A4A4",
]


def test_criterion_9_property_suite():
    with criterion(9, "degree-multiset laws over the corpus", 60):
        for text in CORPUS:
            g = realize(parse_spec(text))
            multiset = character_degrees(g)
            order = multiset.group_order
            assert len(enumerate_elements(g)) == order, text
            assert sum(d * d for d in multiset.degrees) == order, text
            assert all(order % d == 0 for d in multiset.degrees), text
            linear = sum(1 for d in multiset.degrees if d == 1)
            assert linear == order // derived_subgroup_order(g), text
            assert len(multiset.degrees) == len(conjugacy_classes(g).sizes), text
        a4 = character_degrees(realize(parse_spec("named:A4")))
        both = character_degrees(realize(parse_spec("prod(named:A4,named:A4)")))
        assert both == product_degrees(a4, a4)
        assert spec_text(parse_spec("prod(named:A4,named:A4)")) == "prod(named:A4,named:A4)"
