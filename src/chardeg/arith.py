"""Exact integer arithmetic.

Primality, factorization, multiplicative orders, and the least prime /
prime-power searches in arithmetic progressions that drive the minimal-order
computations.  All functions are deterministic.  `is_prime` (Miller-Rabin on
the first 13 primes) is exact below psi_13 = 3,317,044,064,679,887,385,961,981
(Sorenson & Webster, Math. Comp. 86, 2017) and raises `CapExceeded` above it
rather than guess.  The searches take the candidates n+1, 2n+1, ... in
increasing value, so the returned minima are true minima.  A batch of moduli
(a prime scan) reads its first candidates from one numpy sieve coding each
value as not a prime power, prime, or proper prime power; a modulus with no
hit there, and every single query, walks on one test per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NotCoprime, SearchExhausted

__all__ = [
    "is_prime",
    "Factorization",
    "factor",
    "euler_phi",
    "multiplicative_order",
    "PrimePower",
    "prime_power_decomposition",
    "least_prime_powers_1mod",
    "least_prime_power_1mod",
    "least_prime_1mod",
    "kanold_holds",
    "psl2_order",
    "is_cyclic_number",
    "primes_up_to",
]

# The first 13 primes are a deterministic witness set for every n < psi_13;
# psi_13 itself is a strong pseudoprime to all of them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

_SEARCH_CAP = 2**63

# Batched searches read K = _WINDOW candidates per modulus from one sieve of
# 0..b, b = min(K * max modulus + 1, _SIEVE_PER_MODULUS * moduli, _SIEVE_MAX)
# cut back to the last candidate any modulus reads below it, one int8 code
# per odd value; below _SIEVE_MIN the scalar walk is cheaper.
_PRIME, _PROPER_POWER = 1, 2
_WINDOW = 32
_SIEVE_PER_MODULUS = 5000
_SIEVE_MIN = 2**16
_SIEVE_MAX = 2**23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below psi_13."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise CapExceeded(
            f"primality of {n} is not decided: the Miller-Rabin witnesses "
            f"are exact only below {_MR_EXACT_BELOW}"
        )
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) with primes ascending."""

    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise SearchExhausted(f"pollard rho failed on {n}")


def factor(n: int) -> Factorization:
    """Trial division with a rho fallback for large cofactors."""
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # 6k +- 1 wheel up to 1e5; acceptance workloads stay below 1e10 so the
    # remaining cofactor is prime, a prime square, or a semiprime for rho.
    d = 7
    step = 4
    while d * d <= n and d < 100_000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        f = _pollard_rho(m)
        stack.extend((f, m // f))
    return Factorization(tuple(sorted(out.items())))


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factor(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a**k = 1 (mod n)."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"{a} is not a unit mod {n}")
    order = euler_phi(n)
    for p, _ in factor(order).factors:
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


@dataclass(frozen=True)
class PrimePower:
    q: int
    m: int

    @property
    def value(self) -> int:
        return self.q**self.m


def _nth_root(v: int, m: int) -> int:
    """Floor of the m-th root of v."""
    if m == 1:
        return v
    r = int(round(v ** (1.0 / m)))
    while r**m > v:
        r -= 1
    while (r + 1) ** m <= v:
        r += 1
    return r


def prime_power_decomposition(v: int) -> PrimePower | None:
    """(q, m) with v = q**m and q prime, or None."""
    if v < 2:
        return None
    for q in _MR_WITNESSES:  # a small prime factor leaves only its own powers
        if v % q == 0:
            m = 0
            while v % q == 0:
                v //= q
                m += 1
            return PrimePower(q, m) if v == 1 else None
    if is_prime(v):
        return PrimePower(v, 1)
    for m in range(2, v.bit_length() + 1):
        r = _nth_root(v, m)
        if r <= _MR_WITNESSES[-1]:  # r has no small factor, so r > 41
            break
        if r**m == v and is_prime(r):
            return PrimePower(r, m)
    return None


def _prime_power_codes(b: int) -> np.ndarray:
    """int8 code of every odd v in 0..b, at v // 2: 0 not a prime power, 1
    prime, 2 proper prime power.  The even prime powers are 2 and its
    powers, which need no sieve."""
    codes = np.ones((b + 1) // 2, dtype=np.int8)
    codes[:1] = 0
    root = math.isqrt(b)
    for i in range(3, root + 1, 2):
        if codes[i // 2]:
            codes[i * i // 2 :: i] = 0
    for q in (2 * np.flatnonzero(codes[: (root + 1) // 2]) + 1).tolist():
        v = q * q
        while v <= b:
            codes[v // 2] = _PROPER_POWER
            v *= q
    return codes


def _walk_1mod(n: int, k: int, primes_only: bool) -> PrimePower:
    """Least prime (power) among k*n+1, (k+1)*n+1, ..., one test per candidate."""
    v = k * n + 1
    while v < _SEARCH_CAP:
        if primes_only:
            if is_prime(v):
                return PrimePower(v, 1)
        else:
            pp = prime_power_decomposition(v)
            if pp is not None:
                return pp
        v += n
    kind = "prime" if primes_only else "prime power"
    raise SearchExhausted(f"no {kind} = 1 mod {n} below 2**63")


def least_prime_powers_1mod(moduli, primes_only: bool = False) -> list[PrimePower]:
    """For each modulus n, the smallest prime power q**m = 1 (mod n), or the
    smallest prime q (as q**1) when `primes_only`.

    One sieve of 0..b answers every modulus whose answer lies in its first
    _WINDOW candidates; the others continue with the scalar walk from the
    first candidate the window did not cover.
    """
    moduli = list(moduli)
    if any(n < 2 for n in moduli):
        raise ValueError("least_prime_powers_1mod needs every modulus >= 2")
    b = min(_WINDOW * max(moduli, default=0) + 1, _SIEVE_PER_MODULUS * len(moduli), _SIEVE_MAX)
    if b < _SIEVE_MIN:
        return [_walk_1mod(n, 1, primes_only) for n in moduli]
    # min keeps every candidate of n >= b inside int64: such an n reads none
    ns = np.array([min(n, b) for n in moduli], dtype=np.int64)
    reach = np.minimum(_WINDOW, (b - 1) // ns)  # candidates read below b
    b = int((reach * ns).max()) + 1  # the last one read
    codes = _prime_power_codes(b)
    # one gather of the k-th candidates of all moduli per k, largest k first
    # so that the least hit is written last; an even candidate or one past b
    # reads codes[0], which is no hit, and an even one up to b is a prime
    # power if it is a power of 2
    hits = np.zeros(len(moduli), dtype=np.int64)
    for k in range(_WINDOW, 0, -1):
        v = k * ns + 1
        inside = v <= b
        c = codes[np.where(inside & (v & 1 == 1), v >> 1, 0)]
        hits[(c == _PRIME) if primes_only else (c != 0) | inside & (v & (v - 1) == 0)] = k
    # every hit's value in one gather (1 where the window has none): a prime
    # is built as it is, and only proper powers and powers of 2 are decomposed
    v = hits * ns + 1
    prime = codes[np.where(v & 1 == 1, v >> 1, 0)] == _PRIME
    return [
        _walk_1mod(n, top + 1, primes_only) if w == 1
        else PrimePower(w, 1) if is_p
        else prime_power_decomposition(w)
        for n, w, is_p, top in zip(moduli, v.tolist(), prime.tolist(), reach.tolist())
    ]


def least_prime_power_1mod(n: int) -> PrimePower:
    """Smallest prime power q**m with q**m = 1 (mod n), scanned by value."""
    return least_prime_powers_1mod([n])[0]


def least_prime_1mod(n: int) -> int:
    """Smallest prime q with q = 1 (mod n)."""
    return least_prime_powers_1mod([n], primes_only=True)[0].q


def kanold_holds(p: int) -> bool:
    """Whether the least prime q = 1 (mod p) satisfies q < p**2."""
    return least_prime_1mod(p) < p * p


def psl2_order(p: int) -> int:
    """|PSL2(p)| = p(p^2-1)/gcd(2, p-1)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p * (p * p - 1) // math.gcd(2, p - 1)


def is_cyclic_number(m: int) -> bool:
    """True iff every group of order m is cyclic, i.e. gcd(m, phi(m)) = 1."""
    if m < 1:
        raise ValueError("is_cyclic_number needs m >= 1")
    return math.gcd(m, euler_phi(m)) == 1


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    return [2] + (2 * np.flatnonzero(_prime_power_codes(n) == _PRIME) + 1).tolist()
