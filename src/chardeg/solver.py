"""Minimal group orders admitting an irreducible character of degree p or p^2.

For prime degree p the candidates are:

  (a) the simple group psl2:p (p >= 5 only), of order p(p^2-1)/2,
  (b) the Frobenius group frob:q^m:p where q^m is the least prime power
      congruent to 1 mod p, of order p*q^m.

For degree p^2 they are:

  (a) the extraspecial group xsp:p:2 of order p^5,
  (b) frob:q^m:p^2 with q^m the least prime power congruent to 1 mod p^2,
  (c) the direct product of two minimal degree-p witnesses.

Scans compare candidate orders by formula only; witnesses are realized and
their degree multisets recomputed from first principles on request.  Ties
between candidates and structural surprises (a winning product built from
non-Frobenius factors) are reported as anomalies, never suppressed.

Minimality reporting is honest about its evidence: an order is `Exhaustive`
when arithmetic alone empties the gap below the witness, `OracleVerified`
when the remaining orders were exhaustively enumerated and cleared, and
`WitnessOnly` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

from .arith import (
    is_cyclic_number,
    is_prime,
    least_prime_1mod,
    least_prime_power_1mod,
    primes_up_to,
    psl2_order,
)
from .catalog import (
    Frob,
    GroupSpec,
    Named,
    Prod,
    Psl2,
    Xsp,
    realize,
    spec_text,
    witnesses_for_degree,
)
from .degrees import character_degrees
from .errors import BudgetExceeded, CapExceeded, InvalidParam
from .groups import DEFAULT_ELEMENT_CAP
from .smallgroups import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_ORDER_CAP,
    enumerate_groups,
    table_to_realization,
)

__all__ = [
    "Candidate",
    "CandidateReport",
    "MinimalityStatus",
    "ScanRow",
    "ScanResult",
    "KanoldRow",
    "g_prime",
    "g_prime_squared",
    "catalog_report",
    "g_report",
    "scan_theorem_a",
    "scan_theorem_b",
    "lower_bound",
    "verify_minimal",
    "kanold_scan",
    "verify_witness",
]


@dataclass(frozen=True)
class Candidate:
    label: str  # psl2 | frobenius | pgroup5 | product
    order: int
    spec: GroupSpec


@dataclass(frozen=True)
class CandidateReport:
    n: int
    candidates: tuple[Candidate, ...]
    min_order: int
    case_label: str  # a | b | c | tie
    witness_specs: tuple[GroupSpec, ...]
    verified: bool
    anomalies: tuple[str, ...] = ()


@dataclass(frozen=True)
class MinimalityStatus:
    n: int
    lower_bound: int
    residual_orders: tuple[int, ...]
    status: str  # Exhaustive | OracleVerified | WitnessOnly
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScanRow:
    p: int
    case_label: str
    min_order: int


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    case_a: tuple[int, ...]
    anomalies: tuple[str, ...]


@dataclass(frozen=True)
class KanoldRow:
    p: int
    q: int
    holds: bool  # q < p^2
    companion_holds: bool  # q < (p^2 - 1)/gcd(2, p - 1)


_CASE_BY_LABEL = {"psl2": "a", "pgroup5": "a", "frobenius": "b", "product": "c"}


def verify_witness(spec: GroupSpec, n: int, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """Realize the spec and check the claimed degree from scratch.  The
    realized order is checked against `expected_order` when the degree
    engine enumerates it (`groups.index_tables`)."""
    return n in character_degrees(realize(spec, cap), cap).degrees


def _finish_report(n, candidates, verify, cap) -> CandidateReport:
    min_order = min(c.order for c in candidates)
    winners = tuple(c for c in candidates if c.order == min_order)
    anomalies = []
    if len(winners) > 1:
        case = "tie"
        anomalies.append(
            f"n={n}: candidates {', '.join(w.label for w in winners)} "
            f"tie at order {min_order}"
        )
    else:
        case = _CASE_BY_LABEL[winners[0].label]
    verified = False
    if verify and min_order <= cap:
        verified = True
        for w in winners:
            try:
                ok = verify_witness(w.spec, n, cap)
            except (CapExceeded, BudgetExceeded) as exc:
                anomalies.append(f"n={n}: verification of {w.label} hit a cap: {exc}")
                ok = False
            if not ok:
                verified = False
                anomalies.append(
                    f"n={n}: witness {w.label} failed the degree-{n} check"
                )
    return CandidateReport(
        n=n,
        candidates=tuple(candidates),
        min_order=min_order,
        case_label=case,
        witness_specs=tuple(w.spec for w in winners),
        verified=verified,
        anomalies=tuple(anomalies),
    )


def g_prime(p: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP) -> CandidateReport:
    if not is_prime(p):
        raise InvalidParam(f"{p} is not prime")
    candidates = []
    if p >= 5:
        candidates.append(Candidate("psl2", psl2_order(p), Psl2(p)))
    pp = least_prime_power_1mod(p)
    candidates.append(Candidate("frobenius", p * pp.value, Frob(pp.q, pp.m, p)))
    return _finish_report(p, candidates, verify, cap)


def g_prime_squared(
    p: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP
) -> CandidateReport:
    if not is_prime(p):
        raise InvalidParam(f"{p} is not prime")
    n = p * p
    candidates = [Candidate("pgroup5", p**5, Xsp(p, 2))]
    pp = least_prime_power_1mod(n)
    candidates.append(Candidate("frobenius", n * pp.value, Frob(pp.q, pp.m, n)))
    base = g_prime(p, verify=False)
    w = base.witness_specs[0]
    candidates.append(Candidate("product", base.min_order**2, Prod(w, w)))
    report = _finish_report(n, candidates, verify, cap)
    winner_labels = {c.label for c in report.candidates if c.order == report.min_order}
    if "product" in winner_labels and base.case_label != "b":
        note = (
            f"n={n}: winning product is built from case-{base.case_label} "
            "factors, not Frobenius ones"
        )
        report = replace(report, anomalies=report.anomalies + (note,))
    return report


def catalog_report(n: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP) -> CandidateReport:
    """Report built from the fixed catalog witnesses put forward for degree n.

    witness_specs lists the minimal-order entries whose degree-n claim the
    degree engine confirms; entries that fail it are reported as anomalies.
    Refuted claims stay on record in the catalog so they are re-checked and
    reported every time: G72D affords degree 4, and its degree-8 claim shows
    up here as an anomaly of the degree-8 report.
    """
    entries = witnesses_for_degree(n)
    if not entries:
        raise InvalidParam(f"no catalog witness claims degree {n}")
    candidates = tuple(
        Candidate("catalog", w.expected_order, Named(w.name)) for w in entries
    )
    min_order = min(c.order for c in candidates)
    winners = [c for c in candidates if c.order == min_order]
    anomalies = []
    verified_specs = []
    verified = False
    if verify:
        for c in winners:
            multiset = character_degrees(realize(c.spec, cap), cap)
            if n in multiset.degrees:
                verified_specs.append(c.spec)
            else:
                anomalies.append(
                    f"n={n}: {spec_text(c.spec)} claims degree {n} but its "
                    f"degrees are {list(multiset.degrees)}"
                )
        verified = bool(verified_specs)
    witness_specs = tuple(verified_specs) if verify else tuple(c.spec for c in winners)
    return CandidateReport(
        n=n,
        candidates=candidates,
        min_order=min_order,
        case_label="catalog",
        witness_specs=witness_specs,
        verified=verified,
        anomalies=tuple(anomalies),
    )


def g_report(n: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP) -> CandidateReport:
    """Dispatch on the degree: prime, prime squared, or catalog-backed."""
    if n < 2:
        raise InvalidParam("degree must be >= 2")
    if is_prime(n):
        return g_prime(n, verify, cap)
    root = isqrt(n)
    if root * root == n and is_prime(root):
        return g_prime_squared(root, verify, cap)
    return catalog_report(n, verify, cap)


def scan_theorem_a(max_p: int) -> ScanResult:
    """Candidate comparison for every prime p <= max_p, by formula only."""
    return _scan(max_p, g_prime)


def scan_theorem_b(max_p: int) -> ScanResult:
    return _scan(max_p, g_prime_squared)


def _scan(max_p: int, per_prime) -> ScanResult:
    if max_p < 2:
        raise InvalidParam("scan bound must be >= 2")
    rows = []
    case_a = []
    anomalies: list[str] = []
    for p in primes_up_to(max_p):
        report = per_prime(p, verify=False)
        rows.append(ScanRow(p=p, case_label=report.case_label, min_order=report.min_order))
        if report.case_label == "a":
            case_a.append(p)
        anomalies.extend(report.anomalies)
    return ScanResult(rows=tuple(rows), case_a=tuple(case_a), anomalies=tuple(anomalies))


def lower_bound(n: int) -> int:
    """Least order that a group with an irreducible of degree n can have:
    the degree divides the order and the order exceeds the degree squared."""
    if n < 2:
        raise InvalidParam("degree must be >= 2")
    return n * (n + 1)


def verify_minimal(
    n: int,
    witness_order: int,
    oracle_cap: int = DEFAULT_ORDER_CAP,
    budget: int = DEFAULT_NODE_BUDGET,
) -> MinimalityStatus:
    if n < 2:
        raise InvalidParam("degree must be >= 2")
    if witness_order % n != 0:
        raise InvalidParam("witness order must be a multiple of the degree")
    gap = range(n * n + n, witness_order, n)
    residual = [m for m in gap if not is_cyclic_number(m)]
    notes = [
        f"order {m} skipped: cyclic-number order forces an abelian group"
        for m in gap
        if is_cyclic_number(m)
    ]
    if not residual:
        return MinimalityStatus(
            n=n,
            lower_bound=lower_bound(n),
            residual_orders=(),
            status="Exhaustive",
            notes=tuple(notes),
        )
    all_cleared = True
    for m in residual:
        if m > oracle_cap:
            all_cleared = False
            notes.append(f"order {m} above oracle cap {oracle_cap}: not enumerated")
            continue
        try:
            tables = enumerate_groups(m, budget=budget, cap=oracle_cap)
        except BudgetExceeded as exc:
            all_cleared = False
            notes.append(f"order {m}: {exc}")
            continue
        hits = [
            t for t in tables if n in character_degrees(table_to_realization(t)).degrees
        ]
        if hits:
            all_cleared = False
            notes.append(
                f"order {m} admits degree {n}: witness order {witness_order} "
                "is not minimal"
            )
        else:
            notes.append(f"order {m} enumerated: {len(tables)} classes, none of degree {n}")
    return MinimalityStatus(
        n=n,
        lower_bound=lower_bound(n),
        residual_orders=tuple(residual),
        status="OracleVerified" if all_cleared else "WitnessOnly",
        notes=tuple(notes),
    )


def kanold_scan(max_p: int) -> tuple[KanoldRow, ...]:
    """Least prime q ≡ 1 mod p versus p^2, and versus (p^2-1)/gcd(2,p-1)."""
    if max_p < 2:
        raise InvalidParam("scan bound must be >= 2")
    rows = []
    for p in primes_up_to(max_p):
        q = least_prime_1mod(p)
        companion = (p * p - 1) // (2 if p > 2 else 1)
        rows.append(
            KanoldRow(p=p, q=q, holds=q < p * p, companion_holds=q < companion)
        )
    return tuple(rows)
