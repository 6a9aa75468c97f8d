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

from dataclasses import dataclass
from math import isqrt

from .arith import (
    PrimePower,
    is_cyclic_number,
    is_prime,
    least_prime_power_1mod,
    least_prime_powers_1mod,
    primes_up_to,
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


def _orders(p: int, pp: PrimePower, base_order: int | None = None) -> dict[str, int]:
    """The candidates' orders by label: for degree p given the least prime
    power pp = 1 mod p, or for degree p^2 given the least pp = 1 mod p^2
    and the least degree-p order, which the product squares."""
    if base_order is not None:
        return {"pgroup5": p**5, "frobenius": p * p * pp.value, "product": base_order**2}
    # |PSL2(p)| for odd p, without psl2_order's primality test
    orders = {"psl2": p * (p * p - 1) // 2} if p >= 5 else {}
    orders["frobenius"] = p * pp.value
    return orders


def _compare(n: int, orders: dict[str, int], factor_case: str = "b"):
    """Degree n decided by the candidates' orders alone: the case label, the
    least order, the winners' labels and the anomalies.  factor_case is the
    case of the degree-p winner that the product candidate squares."""
    min_order = min(orders.values())
    winners = [label for label, order in orders.items() if order == min_order]
    anomalies = []
    if len(winners) > 1:
        case = "tie"
        anomalies.append(f"n={n}: candidates {', '.join(winners)} tie at order {min_order}")
    else:
        case = _CASE_BY_LABEL[winners[0]]
    if "product" in winners and factor_case != "b":
        anomalies.append(
            f"n={n}: winning product is built from case-{factor_case} "
            "factors, not Frobenius ones"
        )
    return case, min_order, winners, anomalies


def g_prime(p: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP) -> CandidateReport:
    if not is_prime(p):
        raise InvalidParam(f"{p} is not prime")
    return _candidate_report(p, least_prime_power_1mod(p), None, verify, cap)


def g_prime_squared(
    p: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP
) -> CandidateReport:
    if not is_prime(p):
        raise InvalidParam(f"{p} is not prime")
    pp, pp_sq = least_prime_powers_1mod([p, p * p])
    return _candidate_report(p, pp, pp_sq, verify, cap)


def _candidate_report(
    p: int, pp: PrimePower, pp_sq: PrimePower | None, verify: bool, cap: int
) -> CandidateReport:
    """The degree-p report of the prime p, or with pp_sq the degree-p^2 one,
    given the least prime powers pp = 1 mod p and pp_sq = 1 mod p^2."""
    n, orders, factor_case = p, _orders(p, pp), "b"  # degree p has no product
    specs = {"psl2": Psl2(p), "frobenius": Frob(pp.q, pp.m, p)}
    if pp_sq is not None:
        factor_case, base_order, winners, _ = _compare(p, orders)
        n, orders = p * p, _orders(p, pp_sq, base_order)
        w = specs[winners[0]]
        specs = {"pgroup5": Xsp(p, 2), "frobenius": Frob(pp_sq.q, pp_sq.m, n), "product": Prod(w, w)}
    case, min_order, winners, anomalies = _compare(n, orders, factor_case)
    verified = False
    if verify and min_order <= cap:
        verified = True
        for label in winners:
            try:
                ok = verify_witness(specs[label], n, cap)
            except (CapExceeded, BudgetExceeded) as exc:
                anomalies.append(f"n={n}: verification of {label} hit a cap: {exc}")
                ok = False
            if not ok:
                verified = False
                anomalies.append(f"n={n}: witness {label} failed the degree-{n} check")
    return CandidateReport(
        n=n,
        candidates=tuple(Candidate(label, order, specs[label]) for label, order in orders.items()),
        min_order=min_order,
        case_label=case,
        witness_specs=tuple(specs[label] for label in winners),
        verified=verified,
        anomalies=tuple(anomalies),
    )


def catalog_report(n: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP) -> CandidateReport:
    """Report built from the fixed catalog witnesses put forward for degree n.

    witness_specs lists the minimal-order entries whose degree-n claim the
    degree engine confirms; entries that fail it are reported as anomalies.
    Past the element cap, as without verify, nothing is checked: every
    minimal-order entry is listed and the report is unverified.
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
    witness_specs = tuple(c.spec for c in winners)
    verified = False
    if verify and min_order <= cap:
        witness_specs = ()
        for c in winners:
            multiset = character_degrees(realize(c.spec, cap), cap)
            if n in multiset.degrees:
                witness_specs += (c.spec,)
            else:
                anomalies.append(
                    f"n={n}: {spec_text(c.spec)} claims degree {n} but its "
                    f"degrees are {list(multiset.degrees)}"
                )
        verified = bool(witness_specs)
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
    return _scan(max_p, squared=False)


def scan_theorem_b(max_p: int) -> ScanResult:
    return _scan(max_p, squared=True)


def _scan(max_p: int, squared: bool) -> ScanResult:
    """One batched search answers every prime of the scan: mod p, and for
    degree p^2 also mod p^2."""
    if max_p < 2:
        raise InvalidParam("scan bound must be >= 2")
    primes = primes_up_to(max_p)
    pps = least_prime_powers_1mod(primes + [p * p for p in primes] if squared else primes)
    pps_sq = pps[len(primes):] if squared else [None] * len(primes)
    rows = []
    case_a = []
    anomalies: list[str] = []
    for p, pp, pp_sq in zip(primes, pps, pps_sq):
        case, order, _, notes = _compare(p, _orders(p, pp))
        if squared:
            case, order, _, notes = _compare(p * p, _orders(p, pp_sq, order), case)
        rows.append(ScanRow(p=p, case_label=case, min_order=order))
        if case == "a":
            case_a.append(p)
        anomalies += notes
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
    residual = []
    notes = []
    for m in range(n * n + n, witness_order, n):
        if is_cyclic_number(m):
            notes.append(f"order {m} skipped: cyclic-number order forces an abelian group")
        else:
            residual.append(m)
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
    primes = primes_up_to(max_p)
    qs = [pp.q for pp in least_prime_powers_1mod(primes, primes_only=True)]
    return tuple(
        KanoldRow(p=p, q=q, holds=q < p * p, companion_holds=q < (p * p - 1) // (2 if p > 2 else 1))
        for p, q in zip(primes, qs)
    )
