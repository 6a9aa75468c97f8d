"""Textbook answers that the benchmark checks chardeg's outputs against.

Nothing here imports chardeg.  Degree multisets come from closed formulas,
number-theoretic answers from a plain sieve with trial division, and the
small-group census and g(n) table from the literature, so a wrong engine
cannot make its own reference agree with it.
"""

from __future__ import annotations

import functools
import re
from math import gcd, isqrt, lcm

_SIEVE_LIMIT = 1 << 16  # trial division by its primes covers v < 2**32
ORACLE_CAP = 16  # chardeg's default --oracle-cap, which the verify requests use

# g(n) for n = 2..9: the minimal order of a group with an irreducible of degree n.
G_TABLE = {2: 6, 3: 12, 4: 20, 5: 55, 6: 42, 7: 56, 8: 72, 9: 144}

# Minimal witnesses for the degrees that are neither prime nor a prime
# square, as chardeg spec text: the Frobenius groups C7 by C6 and
# (C3 x C3) by Q8.  `witness_spec` derives the others.
CATALOG_WITNESSES = {6: "named:C7C6", 8: "named:G72Q"}

# The catalog's order-72 entry G72D claims degree 8 but has top degree 4 (it is
# (C3 x C3) by D8).  chardeg reports this as an anomaly of `gvalue --degree 8`;
# the benchmark records it as expected so the known-red entry stays visible.
KNOWN_ANOMALIES = {
    8: ("n=8: named:G72D claims degree 8 but its degrees are [1, 1, 1, 1, 2, 4, 4, 4, 4]",),
}

_ONES = {n: (1,) * n for n in range(1, 14)}

# Degree multisets of every group of order n <= 13, one per isomorphism class:
# abelian groups have n linear characters; S3, D8, Q8, D10, A4, D12 and the
# dicyclic group of order 12 are the non-abelian ones.
SMALL_GROUP_DEGREES = {
    1: [_ONES[1]],
    2: [_ONES[2]],
    3: [_ONES[3]],
    4: [_ONES[4]] * 2,
    5: [_ONES[5]],
    6: [(1, 1, 2), _ONES[6]],
    7: [_ONES[7]],
    8: [(1, 1, 1, 1, 2)] * 2 + [_ONES[8]] * 3,
    9: [_ONES[9]] * 2,
    10: [(1, 1, 2, 2), _ONES[10]],
    11: [_ONES[11]],
    12: [(1, 1, 1, 1, 2, 2)] * 2 + [(1, 1, 1, 3)] + [_ONES[12]] * 2,
    13: [_ONES[13]],
}


# ------------------------------------------------------------ number theory


@functools.cache
def _sieve() -> bytearray:
    flags = bytearray([1]) * _SIEVE_LIMIT
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(_SIEVE_LIMIT - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, _SIEVE_LIMIT, i)))
    return flags


@functools.cache
def _small_primes() -> tuple[int, ...]:
    flags = _sieve()
    return tuple(i for i in range(_SIEVE_LIMIT) if flags[i])


def is_prime(v: int) -> bool:
    if v < _SIEVE_LIMIT:
        return v >= 0 and bool(_sieve()[v])
    if isqrt(v) >= _SIEVE_LIMIT:
        raise ValueError(f"{v} is beyond the reference sieve")
    root = isqrt(v)
    for q in _small_primes():
        if q > root:
            return True
        if v % q == 0:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    if n >= _SIEVE_LIMIT:
        raise ValueError(f"{n} is beyond the reference sieve")
    return [p for p in _small_primes() if p <= n]


def prime_power_parts(v: int) -> tuple[int, int] | None:
    """(q, m) with v = q**m and q prime, or None if v is no prime power."""
    for m in range(1, v.bit_length()):
        r = round(v ** (1 / m))
        for q in (r - 1, r, r + 1):
            if q >= 2 and q**m == v and is_prime(q):
                return q, m
    return None


def least_prime_power_1mod(n: int) -> int:
    v = n + 1
    while prime_power_parts(v) is None:
        v += n
    return v


def least_prime_1mod(n: int) -> int:
    v = n + 1
    while not is_prime(v):
        v += n
    return v


def _euler_phi(m: int) -> int:
    out, rest, q = m, m, 2
    while q * q <= rest:
        if rest % q == 0:
            out -= out // q
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        out -= out // rest
    return out


def only_cyclic_groups(m: int) -> bool:
    """Every group of order m is cyclic iff gcd(m, phi(m)) = 1 (Szele)."""
    return gcd(m, _euler_phi(m)) == 1


# ---------------------------------------------------------- degree multisets


def psl2_degrees(p: int) -> tuple[int, ...]:
    """PSL2(p), p an odd prime: 1, the Steinberg degree p, principal series
    p + 1, discrete series p - 1, and the two half-degree characters."""
    if p % 4 == 1:
        degrees = [1, p] + [p + 1] * ((p - 5) // 4) + [p - 1] * ((p - 1) // 4) + [(p + 1) // 2] * 2
    else:
        degrees = [1, p] + [p + 1] * ((p - 3) // 4) + [p - 1] * ((p - 3) // 4) + [(p - 1) // 2] * 2
    return tuple(sorted(degrees))


def frobenius_degrees(q: int, m: int, k: int) -> tuple[int, ...]:
    """(C_q)^m by a fixed-point-free C_k: k linear, (q^m - 1)/k of degree k."""
    return (1,) * k + (k,) * ((q**m - 1) // k)


def extraspecial_degrees(p: int, n: int) -> tuple[int, ...]:
    """Order p^(1+2n): p^(2n) linear and p - 1 faithful of degree p^n."""
    return (1,) * p ** (2 * n) + (p**n,) * (p - 1)


def product_degrees(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Irreducibles of a direct product are the pairwise products."""
    return tuple(sorted(x * y for x in a for y in b))


class Group:
    """Reference facts for one spec: order, exponent, sorted degrees."""

    def __init__(self, order: int, exponent: int, degrees: tuple[int, ...]):
        self.order = order
        self.exponent = exponent
        self.degrees = tuple(sorted(degrees))
        if sum(d * d for d in self.degrees) != order:
            raise ValueError("reference degrees do not square-sum to the order")

    @property
    def classes(self) -> int:
        return len(self.degrees)

    @property
    def modulus(self) -> int:
        """Dixon's prime: least l = 1 (mod exponent) with l > |G|."""
        v = self.exponent + 1
        while v <= self.order or not is_prime(v):
            v += self.exponent
        return v


def group(spec: str) -> Group:
    """Reference facts for the spec families the benchmark uses."""
    if spec.startswith("prod(") and spec.endswith(")"):
        inner = spec[5:-1]
        depth = 0
        for i, ch in enumerate(inner):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if ch == "," and depth == 0:
                a, b = group(inner[:i]), group(inner[i + 1 :])
                return Group(
                    a.order * b.order,
                    lcm(a.exponent, b.exponent),
                    product_degrees(a.degrees, b.degrees),
                )
    if m := re.fullmatch(r"cyclic:(\d+)", spec):
        n = int(m[1])
        return Group(n, n, (1,) * n)
    if m := re.fullmatch(r"psl2:(\d+)", spec):
        p = int(m[1])
        return Group(p * (p * p - 1) // 2, lcm(p, (p - 1) // 2, (p + 1) // 2), psl2_degrees(p))
    if m := re.fullmatch(r"frob:(\d+)\^(\d+):(\d+)", spec):
        q, e, k = map(int, m.groups())
        return Group(q**e * k, lcm(q, k), frobenius_degrees(q, e, k))
    if m := re.fullmatch(r"xsp:(\d+):(\d+)", spec):
        p, n = map(int, m.groups())
        return Group(p ** (2 * n + 1), 4 if p == 2 else p, extraspecial_degrees(p, n))
    raise ValueError(f"no reference for spec {spec!r}")


# ------------------------------------------------- minimal orders and scans


def _psl2_order(p: int) -> int:
    return p * (p * p - 1) // 2


def _winner(candidates: dict[str, int]) -> tuple[str, int]:
    best = min(candidates.values())
    labels = [c for c, v in candidates.items() if v == best]
    return (labels[0] if len(labels) == 1 else "tie"), best


def _prime_candidates(p: int) -> dict[str, int]:
    """Degree p: case a is PSL2(p) (p >= 5), case b the Frobenius group."""
    candidates = {"b": p * least_prime_power_1mod(p)}
    if p >= 5:
        candidates["a"] = _psl2_order(p)
    return candidates


def _squared_candidates(p: int) -> dict[str, int]:
    """Degree p^2: a extraspecial, b Frobenius, c product of degree-p witnesses."""
    return {
        "a": p**5,
        "b": p * p * least_prime_power_1mod(p * p),
        "c": g_prime(p)[1] ** 2,
    }


def g_prime(p: int) -> tuple[str, int]:
    """(case label, minimal order) for degree p."""
    return _winner(_prime_candidates(p))


def g_prime_squared(p: int) -> tuple[str, int]:
    return _winner(_squared_candidates(p))


def _frobenius_spec(k: int) -> str:
    q, m = prime_power_parts(least_prime_power_1mod(k))
    return f"frob:{q}^{m}:{k}"


def witness_spec(n: int) -> str | None:
    """Spec text of the minimal witness `gvalue --degree n` verifies, or None
    when two candidate families tie."""
    if n in CATALOG_WITNESSES:
        return CATALOG_WITNESSES[n]
    root = isqrt(n)
    if root * root == n:
        case = g_prime_squared(root)[0]
        inner = witness_spec(root)
        specs = {"a": f"xsp:{root}:2", "b": _frobenius_spec(n), "c": f"prod({inner},{inner})"}
        return specs.get(case)
    return {"a": f"psl2:{n}", "b": _frobenius_spec(n)}.get(g_prime(n)[0])


def g_value(n: int) -> int:
    if n in G_TABLE:
        return G_TABLE[n]
    root = isqrt(n)
    return g_prime_squared(root)[1] if root * root == n else g_prime(n)[1]


def scan(max_p: int, squared: bool) -> tuple[list[dict], int]:
    """Rows of scan-a (or scan-b) and how many anomalies the scan must report:
    one per tie, and one per winning product of non-Frobenius factors."""
    rows, anomalies = [], 0
    for p in primes_up_to(max_p):
        candidates = _squared_candidates(p) if squared else _prime_candidates(p)
        case, order = _winner(candidates)
        rows.append({"case_label": case, "min_order": order, "p": p})
        winners = [c for c, v in candidates.items() if v == order]
        anomalies += len(winners) > 1
        anomalies += squared and "c" in winners and g_prime(p)[0] != "b"
    return rows, anomalies


def kanold_rows(max_p: int) -> list[dict]:
    rows = []
    for p in primes_up_to(max_p):
        q = least_prime_1mod(p)
        companion = (p * p - 1) // (2 if p > 2 else 1)
        rows.append({"companion_holds": q < companion, "holds": q < p * p, "p": p, "q": q})
    return rows


def minimality(n: int) -> dict:
    """What `verify --degree n` must report, given that g(n) is minimal."""
    witness = g_value(n)
    residual = [m for m in range(n * n + n, witness, n) if not only_cyclic_groups(m)]
    if not residual:
        status = "Exhaustive"
    elif any(m > ORACLE_CAP for m in residual):
        status = "WitnessOnly"
    else:
        status = "OracleVerified"
    return {
        "lower_bound": n * (n + 1),
        "n": n,
        "residual_orders": residual,
        "status": status,
        "witness_order": witness,
    }
