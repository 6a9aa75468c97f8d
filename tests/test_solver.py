"""Solver tests: candidate comparison, scans, minimality evidence.

Candidate orders were derived by hand from the closed formulas (orders of
psl2:p, p * least prime power ≡ 1 mod p, p^5, and squared minima) and
cross-checked with an independent computer algebra run before freezing.
"""

import numpy as np
import pytest

from chardeg.catalog import Frob, Named, Prod, Psl2, Xsp, spec_text
from chardeg import solver
from chardeg.arith import least_values_1mod
from chardeg.errors import CapExceeded, InvalidParam
from chardeg.solver import (
    catalog_report,
    g_prime,
    g_prime_squared,
    g_report,
    kanold_scan,
    lower_bound,
    scan_theorem_a,
    scan_theorem_b,
    verify_minimal,
    verify_witness,
)


# ----------------------------------------------------------------- g(p)


def test_g_prime_2():
    r = g_prime(2)
    assert r.min_order == 6
    assert r.case_label == "b"
    assert r.witness_specs == (Frob(3, 1, 2),)
    assert [c.label for c in r.candidates] == ["frobenius"]
    assert r.verified
    assert r.anomalies == ()


def test_g_prime_3():
    r = g_prime(3)
    assert (r.min_order, r.case_label) == (12, "b")
    assert r.witness_specs == (Frob(2, 2, 3),)


def test_g_prime_5():
    r = g_prime(5)
    assert {c.label: c.order for c in r.candidates} == {"psl2": 60, "frobenius": 55}
    assert (r.min_order, r.case_label) == (55, "b")
    assert r.witness_specs == (Frob(11, 1, 5),)
    assert r.verified


def test_g_prime_7():
    r = g_prime(7)
    assert {c.label: c.order for c in r.candidates} == {"psl2": 168, "frobenius": 56}
    assert (r.min_order, r.case_label) == (56, "b")
    assert r.witness_specs == (Frob(2, 3, 7),)


def test_g_prime_19_simple_group_wins():
    r = g_prime(19)
    assert {c.label: c.order for c in r.candidates} == {
        "psl2": 3420,
        "frobenius": 3629,
    }
    assert (r.min_order, r.case_label) == (3420, "a")
    assert r.witness_specs == (Psl2(19),)
    assert r.verified  # realizes psl2:19 and recomputes its degrees


def test_g_prime_skips_verification_when_asked():
    r = g_prime(11, verify=False)
    assert (r.min_order, r.case_label) == (253, "b")
    assert not r.verified


def test_g_prime_rejects_composite():
    with pytest.raises(InvalidParam):
        g_prime(15)


# ----------------------------------------------------------------- g(p^2)


def test_g_prime_squared_2():
    r = g_prime_squared(2)
    assert {c.label: c.order for c in r.candidates} == {
        "pgroup5": 32,
        "frobenius": 20,
        "product": 36,
    }
    assert (r.n, r.min_order, r.case_label) == (4, 20, "b")
    assert r.witness_specs == (Frob(5, 1, 4),)
    assert r.verified


def test_g_prime_squared_3():
    r = g_prime_squared(3)
    assert {c.label: c.order for c in r.candidates} == {
        "pgroup5": 243,
        "frobenius": 171,
        "product": 144,
    }
    assert (r.n, r.min_order, r.case_label) == (9, 144, "c")
    assert r.witness_specs == (Prod(Frob(2, 2, 3), Frob(2, 2, 3)),)
    assert r.verified


@pytest.mark.parametrize(
    "p,orders,min_order,case",
    [
        (5, {"pgroup5": 3125, "frobenius": 2525, "product": 3025}, 2525, "b"),
        (7, {"pgroup5": 16807, "frobenius": 9653, "product": 3136}, 3136, "c"),
        (11, {"pgroup5": 161051, "frobenius": 29403, "product": 64009}, 29403, "b"),
        (13, {"pgroup5": 371293, "frobenius": 114413, "product": 123201}, 114413, "b"),
        (
            19,
            {"pgroup5": 2476099, "frobenius": 3909991, "product": 11696400},
            2476099,
            "a",
        ),
    ],
)
def test_g_prime_squared_frozen(p, orders, min_order, case):
    r = g_prime_squared(p, verify=False)
    assert {c.label: c.order for c in r.candidates} == orders
    assert (r.min_order, r.case_label) == (min_order, case)


def test_g_prime_squared_19_witness():
    r = g_prime_squared(19)
    assert r.witness_specs == (Xsp(19, 2),)
    assert not r.verified  # order 19^5 is far beyond the realization cap


# ------------------------------------------------------------ catalog degrees


def test_g_report_8_keeps_g72d_refutation_visible():
    # G72D affords degree 4 only; its degree-8 claim stays on record and is
    # refuted by the engine on every report, next to the true witness G72Q.
    r = g_report(8)
    assert (r.min_order, r.case_label) == (72, "catalog")
    assert [spec_text(c.spec) for c in r.candidates] == ["named:G72D", "named:G72Q"]
    assert r.witness_specs == (Named("G72Q"),)
    assert r.verified
    assert r.anomalies == (
        "n=8: named:G72D claims degree 8 but its degrees are "
        "[1, 1, 1, 1, 2, 4, 4, 4, 4]",
    )


def test_catalog_report_computes_each_winner_once(monkeypatch):
    # G72D and G72Q tie at order 72; G72D's failed claim reuses its multiset
    calls = []
    real = solver.character_degrees

    def counting(g, *args):
        calls.append(g.descriptor)
        return real(g, *args)

    monkeypatch.setattr(solver, "character_degrees", counting)
    catalog_report(8)
    assert calls == ["named:G72D", "named:G72Q"]



@pytest.mark.parametrize("verify", [True, False])
def test_catalog_report_past_the_cap_builds_nothing(monkeypatch, verify):
    """A minimal order above the element cap is not verified, as with
    verification off: every order-72 entry is listed, nothing is built."""
    monkeypatch.setattr(solver, "realize", lambda *args: pytest.fail("realized past the cap"))
    r = catalog_report(8, verify=verify, cap=71)
    assert (r.verified, r.anomalies) == (False, ())
    assert r.witness_specs == (Named("G72D"), Named("G72Q"))

# ------------------------------------------------------------------- scans


def test_scan_theorem_a_small():
    result = scan_theorem_a(18)
    assert result.case_a == ()
    assert result.anomalies == ()
    by_p = {row.p: (row.case_label, row.min_order) for row in result.rows}
    assert by_p[2] == ("b", 6)
    assert by_p[3] == ("b", 12)
    assert by_p[5] == ("b", 55)
    assert by_p[7] == ("b", 56)
    assert by_p[13] == ("b", 351)
    assert by_p[17] == ("b", 17 * 103)


def test_scan_theorem_a_finds_19():
    result = scan_theorem_a(300)
    assert result.case_a == (19,)
    assert all(row.case_label in ("a", "b") for row in result.rows)
    assert all(row.min_order > row.p * row.p for row in result.rows)


def test_scan_theorem_b_to_71():
    result = scan_theorem_b(71)
    assert result.case_a == (19,)
    by_p = {row.p: (row.case_label, row.min_order) for row in result.rows}
    assert by_p[2] == ("b", 20)
    assert by_p[3] == ("c", 144)
    assert by_p[5] == ("b", 2525)
    assert by_p[7] == ("c", 3136)
    assert by_p[19] == ("a", 2476099)
    assert all(row.min_order > row.p**4 for row in result.rows)


def test_scan_rows_match_single_reports():
    """A scan answers every prime from one batched search and compares the
    candidates' orders alone; each row must be what the single report of
    that prime says, at the size the benchmark scans."""
    for scan, single in ((scan_theorem_a(30000), g_prime), (scan_theorem_b(300), g_prime_squared)):
        anomalies = []
        for row in scan.rows:
            report = single(row.p, verify=False)
            assert (row.case_label, row.min_order) == (report.case_label, report.min_order)
            anomalies += report.anomalies
        assert list(scan.anomalies) == anomalies
        assert scan.case_a == (19,)


def test_scan_b_rows_exact_past_int64():
    """From p = 6,211 on, p^5 passes 2^63: the scan's orders must stay exact
    there and agree with the single reports."""
    rows = [row for row in scan_theorem_b(6300).rows if row.p >= 6211]
    assert [row.p for row in rows][:1] == [6211] and len(rows) == 12
    assert 6199**5 < 2**63 < 6211**5
    for row in rows:
        report = g_prime_squared(row.p, verify=False)
        assert (row.case_label, row.min_order) == (report.case_label, report.min_order)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_compare_ties_and_product_anomaly(dtype):
    """The comparison rows that no scan reaches: ties, and a winning product
    built from non-Frobenius factors, on synthetic columns."""
    col = lambda *xs: np.array(xs, dtype=dtype)
    case, least, won, anomalies = solver._compare(col(7), {"psl2": col(10), "frobenius": col(10)})
    assert (case.tolist(), least.tolist(), won.tolist()) == (["tie"], [10], [[True], [True]])
    assert anomalies == ["n=7: candidates psl2, frobenius tie at order 10"]
    # rows: a three-way tie of case-b factors, a product of case-a factors
    # winning alone, and a product tie whose factors tie themselves
    orders = {"pgroup5": col(50, 90, 40), "frobenius": col(50, 70, 30), "product": col(50, 60, 30)}
    factor_case = np.array(["b", "a", "tie"], dtype=object)
    case, least, won, anomalies = solver._compare(col(4, 9, 25), orders, factor_case)
    assert case.tolist() == ["tie", "c", "tie"]
    assert least.tolist() == [50, 60, 30]
    assert won.tolist() == [[True, False, False], [True, False, True], [True, True, True]]
    assert anomalies == [
        "n=4: candidates pgroup5, frobenius, product tie at order 50",
        "n=9: winning product is built from case-a factors, not Frobenius ones",
        "n=25: candidates frobenius, product tie at order 30",
        "n=25: winning product is built from case-tie factors, not Frobenius ones",
    ]


def test_scan_rejects_tiny_bound():
    with pytest.raises(InvalidParam):
        scan_theorem_a(1)


# ------------------------------------------------------------- minimality


def test_lower_bound():
    assert lower_bound(2) == 6
    assert lower_bound(5) == 30
    assert lower_bound(6) == 42
    assert lower_bound(8) == 72
    with pytest.raises(InvalidParam):
        lower_bound(1)


@pytest.mark.parametrize(
    "n,witness",
    [(2, 6), (3, 12), (4, 20), (6, 42), (7, 56), (8, 72)],
)
def test_verify_minimal_exhaustive(n, witness):
    status = verify_minimal(n, witness)
    assert status.status == "Exhaustive"
    assert status.residual_orders == ()
    assert status.lower_bound == n * (n + 1)


def test_verify_minimal_degree_5():
    status = verify_minimal(5, 55)
    assert status.status == "WitnessOnly"
    assert status.residual_orders == (30, 40, 45, 50)  # 35 pruned: cyclic number
    assert any("35" in note for note in status.notes)


def test_verify_minimal_tests_each_gap_order_once(monkeypatch):
    """One cyclic-number test per order in the gap fills both the residual
    orders and the skip notes, in gap order.  The oracle cap of 0 keeps
    the search out of it."""
    tested = []
    cyclic = solver.is_cyclic_number
    monkeypatch.setattr(solver, "is_cyclic_number", lambda m: tested.append(m) or cyclic(m))
    status = verify_minimal(11, 253, oracle_cap=0)
    assert tested == list(range(132, 253, 11))
    assert status.residual_orders == tuple(m for m in tested if not cyclic(m))
    skipped = [n for n in status.notes if "skipped" in n]
    assert skipped == [
        f"order {m} skipped: cyclic-number order forces an abelian group"
        for m in tested
        if cyclic(m)
    ]


def test_verify_minimal_degree_9():
    status = verify_minimal(9, 144)
    assert status.status == "WitnessOnly"
    assert status.residual_orders == (90, 99, 108, 117, 126, 135)


def test_verify_minimal_catches_non_minimal_witness():
    # degree 3 with a bogus order-15 witness: the gap contains order 12,
    # whose enumeration finds a group (A4) with an irreducible of degree 3
    status = verify_minimal(3, 15)
    assert status.status == "WitnessOnly"
    assert status.residual_orders == (12,)
    assert any("not minimal" in note for note in status.notes)


def test_verify_minimal_validation():
    with pytest.raises(InvalidParam):
        verify_minimal(5, 54)  # not a multiple
    with pytest.raises(InvalidParam):
        verify_minimal(1, 6)


# ------------------------------------------------------------------ kanold


def test_kanold_rows():
    rows = {r.p: r for r in kanold_scan(500)}
    assert (rows[2].q, rows[2].holds, rows[2].companion_holds) == (3, True, False)
    assert (rows[3].q, rows[3].holds, rows[3].companion_holds) == (7, True, False)
    assert (rows[5].q, rows[5].holds, rows[5].companion_holds) == (11, True, True)
    assert (rows[7].q, rows[7].holds, rows[7].companion_holds) == (29, True, False)
    assert (rows[19].q, rows[19].holds, rows[19].companion_holds) == (191, True, False)
    assert all(r.holds for r in rows.values())
    assert [p for p, r in sorted(rows.items()) if not r.companion_holds] == [2, 3, 7, 19]


def test_kanold_scan_matches_single_queries():
    rows = kanold_scan(5000)
    assert len(rows) == 669
    # a one-modulus batch walks, where the scan reads the sieve
    assert all(r.q == least_values_1mod([r.p], primes_only=True)[0][0] for r in rows)


# ----------------------------------------------------------------- witness


def test_verify_witness():
    assert verify_witness(Frob(11, 1, 5), 5)
    assert verify_witness(Psl2(19), 19)
    assert not verify_witness(Frob(11, 1, 5), 7)


def test_verify_witness_abelian_false():
    from chardeg.catalog import Cyclic

    assert not verify_witness(Cyclic(6), 2)


def test_verify_witness_cap():
    with pytest.raises(CapExceeded):
        verify_witness(Psl2(19), 19, cap=100)


def test_spec_text_of_witnesses():
    assert spec_text(g_prime(19, verify=False).witness_specs[0]) == "psl2:19"
    assert (
        spec_text(g_prime_squared(3, verify=False).witness_specs[0])
        == "prod(frob:2^2:3,frob:2^2:3)"
    )
