"""Minimal group orders admitting an irreducible character of degree p or p^2.

For prime degree p the candidates are:

  (a) the simple group psl2:p (p >= 5 only), of order p(p^2-1)/2,
  (b) the Frobenius group frob:q^m:p where q^m is the least prime power
      congruent to 1 mod p, of order p*q^m.

For degree p^2 they are:

  (a) the extraspecial group xsp:p:2 of order p^5,
  (b) frob:q^m:p^2 with q^m the least prime power congruent to 1 mod p^2,
  (c) the direct product of two minimal degree-p witnesses.

Scans compare candidate orders by formula only: one batched search, then
one column-wise comparison per degree.  A single report is the scan of its
one prime, plus the specs of the candidates.  Witnesses are realized and
their degree multisets recomputed from first principles on request.  Ties
between candidates and structural surprises (a winning product built from
non-Frobenius factors) are reported as anomalies, never suppressed.

Minimality reporting is honest about its evidence: an order is `Exhaustive`
when arithmetic alone empties the gap below the witness, `OracleVerified`
when the remaining orders were exhaustively enumerated and cleared, and
`WitnessOnly` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import compress
from math import isqrt

import numpy as np

from .arith import (
    is_cyclic_number,
    is_prime,
    least_values_1mod,
    prime_power_decomposition,
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
from .errors import DEFAULT_ELEMENT_CAP, DEFAULT_NODE_BUDGET, DEFAULT_ORDER_CAP
from .errors import BudgetExceeded, CapExceeded, InvalidParam

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
    from .degrees import character_degrees
    return n in character_degrees(realize(spec, cap), cap).degrees


def _exact(top: int, *columns) -> list[np.ndarray]:
    """The integer columns as exact arrays: int64 when top, a bound on every
    order computed from them, is below 2**63, else Python ints."""
    dtype = np.int64 if top < 2**63 else object
    return [np.asarray(c, dtype=dtype) for c in columns]


def _orders(p, v, base=None) -> dict:
    """The candidates' orders by label, as columns: for degree p
    given the least prime power v = 1 mod p, or for degree p^2 given the
    least v = 1 mod p^2 and the least degree-p order `base`, which the
    product squares.  PSL2(p) is a candidate only from p = 5; below that
    its order is pushed past the Frobenius one, so it never wins."""
    p2 = p * p
    if base is not None:
        return {"pgroup5": p2 * p2 * p, "frobenius": p2 * v, "product": base * base}
    frob = p * v
    # |PSL2(p)| for odd p, without psl2_order's primality test
    return {"psl2": p * (p2 - 1) // 2 + (p < 5) * frob, "frobenius": frob}


def _compare(n, orders: dict, factor_case=None):
    """The one order comparison: degrees n, a row each, decided by the
    candidates' orders alone, given by label as exact integer columns
    (int64, or Python ints in object arrays; never lists, which numpy may
    read as floats).
    Returns the case labels, the least orders, the winners (a row of flags
    per label, in the order of `orders`) and the anomalies, in row order.
    A row's case is its one winner's, or a tie when two or more win.
    factor_case holds the case of the degree-p winner that the product
    candidate squares."""
    labels = tuple(orders)
    table = np.array(list(orders.values()))
    least = table.min(0)
    won = table == least
    case = np.array([_CASE_BY_LABEL[label] for label in labels], dtype=object)[won.argmax(0)]
    tie = won.sum(0) > 1
    case[tie] = "tie"
    odd = won[labels.index("product")] & (factor_case != "b") if "product" in labels else None
    anomalies = []
    for i in (tie if odd is None else tie | odd).nonzero()[0].tolist():
        if tie[i]:
            winners = ", ".join(label for label, w in zip(labels, won[:, i]) if w)
            anomalies.append(f"n={n[i]}: candidates {winners} tie at order {least[i]}")
        if odd is not None and odd[i]:
            anomalies.append(
                f"n={n[i]}: winning product is built from case-{factor_case[i]} "
                "factors, not Frobenius ones"
            )
    return case, least, won, anomalies


def _levels(primes: list[int], squared: bool) -> list[tuple]:
    """The comparison for every prime of `primes` (ascending): one batched
    search, mod p and when squared also mod p^2, then the degree-p level
    and, when squared, the degree-p^2 level on top of it.  Each level is
    (least values, their prime flags, orders by label, case labels, least
    orders, winners, anomalies)."""
    k, top_p = len(primes), primes[-1]
    values, prime = least_values_1mod(primes + [p * p for p in primes] if squared else primes)
    top_v = int(values.max())  # bounds the values of both levels
    p, v = _exact(top_p * (top_p * top_p + top_v), primes, values[:k])
    orders = _orders(p, v)
    case, least, won, anomalies = _compare(p, orders)
    levels = [(values[:k], prime[:k], orders, case, least, won, anomalies)]
    if squared:
        top = max(top_p**5, top_p * top_p * top_v, int(least.max()) ** 2)
        p, v_sq, least = _exact(top, p, values[k:], least)
        orders = _orders(p, v_sq, least)
        levels.append((values[k:], prime[k:], orders, *_compare(p * p, orders, case)))
    return levels


def g_prime(p: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP) -> CandidateReport:
    return _candidate_report(p, False, verify, cap)


def g_prime_squared(
    p: int, verify: bool = True, cap: int = DEFAULT_ELEMENT_CAP
) -> CandidateReport:
    return _candidate_report(p, True, verify, cap)


def _candidate_report(p: int, squared: bool, verify: bool, cap: int) -> CandidateReport:
    """The degree-p report of the prime p, or when squared the degree-p^2
    one: the scan of [p], plus the specs and the verification of the
    winners."""
    if not is_prime(p):
        raise InvalidParam(f"{p} is not prime")
    specs = {"psl2": Psl2(p)} if p >= 5 else {}
    for n, (values, prime, orders, case, least, won, anomalies) in zip((p, p * p), _levels([p], squared)):
        if n != p:  # the product squares the degree-p winner
            factor = specs[winners[0]]
            specs = {"pgroup5": Xsp(p, 2), "product": Prod(factor, factor)}
        v = int(values[0])
        specs["frobenius"] = Frob(*((v, 1) if prime[0] else prime_power_decomposition(v)), n)
        winners = [label for label, w in zip(orders, won[:, 0].tolist()) if w]
    min_order = int(least[0])
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
        candidates=tuple(Candidate(label, int(order[0]), specs[label]) for label, order in orders.items() if label in specs),
        min_order=min_order,
        case_label=case[0],
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
        from .degrees import character_degrees
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
    columns, case_a, anomalies = _scan_columns(max_p, squared)
    rows = tuple(map(ScanRow, *(columns[f.name] for f in fields(ScanRow))))
    return ScanResult(rows, case_a, anomalies)


def _scan_columns(max_p: int, squared: bool) -> tuple[dict, tuple, tuple]:
    """Every prime up to max_p, answered by `_levels`: one batched search,
    then one column-wise comparison per degree gives every row.  Returns
    the rows as lists keyed by ScanRow field name, the case (a) primes and
    the anomalies."""
    if max_p < 2:
        raise InvalidParam("scan bound must be >= 2")
    primes = primes_up_to(max_p)
    *_, case, least, _, anomalies = _levels(primes, squared)[-1]
    columns = {"p": primes, "case_label": case.tolist(), "min_order": least.tolist()}
    return columns, tuple(compress(primes, (case == "a").tolist())), tuple(anomalies)


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
        from .degrees import character_degrees
        from .smallgroups import enumerate_groups, table_to_realization
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
    """Least prime q ≡ 1 mod p versus p^2, and versus (p^2-1)/gcd(2,p-1):
    the companion holds when frob:q^1:p is smaller than PSL2(p), in the
    scans' comparison."""
    columns = _kanold_columns(max_p)
    return tuple(map(KanoldRow, *(columns[f.name] for f in fields(KanoldRow))))


def _kanold_columns(max_p: int) -> dict:
    """kanold_scan's rows as lists keyed by KanoldRow field name."""
    if max_p < 2:
        raise InvalidParam("scan bound must be >= 2")
    primes = primes_up_to(max_p)
    values, _ = least_values_1mod(primes, primes_only=True)
    p, q = _exact(max_p * (max_p * max_p + int(values.max())), primes, values)
    psl2 = p * ((p * p - 1) // np.where(p > 2, 2, 1))
    case, *_ = _compare(p, {"psl2": psl2, "frobenius": p * q})
    return {
        "p": primes,
        "q": values.tolist(),
        "holds": (q < p * p).tolist(),
        "companion_holds": (case == "b").tolist(),
    }
