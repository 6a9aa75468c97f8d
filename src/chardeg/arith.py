"""Exact integer arithmetic.

Primality, factorization, multiplicative orders, and the least prime /
prime-power searches in arithmetic progressions that drive the minimal-order
computations.  All functions are deterministic.  `is_prime` (Miller-Rabin on
the first t primes, t <= 13, as many as n needs) is exact below psi_13 =
3,317,044,064,679,887,385,961,981 (Sorenson & Webster, Math. Comp. 86, 2017)
and raises `CapExceeded` above it rather than guess.

`least_values_1mod` is the one entry point for the searches; a single
query is a batch of one modulus.  The searches take the candidates n+1,
2n+1, ... in increasing value, so the returned minima are true minima, and
return a batch's answers as one int64 column with a column of prime flags.
A batch of 14 moduli or more (a prime scan) reads the candidates of all its
moduli a block of 32 each at a time: a value up to b from one numpy sieve
coding each value as not a prime power, prime, or proper prime power, and a
value past b, up to t*t, by one vectorized trial division by the sieve's
primes up to t.  The moduli with no hit in their first block (the
leftovers) go on in further blocks; a modulus with no hit up to t*t walks
on one test per candidate, as every modulus of a smaller batch does.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import CapExceeded, NotCoprime, SearchExhausted

__all__ = [
    "is_prime",
    "factor",
    "euler_phi",
    "multiplicative_order",
    "prime_power_decomposition",
    "least_values_1mod",
    "psl2_order",
    "is_cyclic_number",
    "primes_up_to",
]

# The first t primes are a deterministic witness set for every n < psi_t,
# the least strong pseudoprime to all of them (OEIS A014233), so n below
# psi_t needs only t witnesses; psi_13 is where the 13 of them stop.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PRODUCT = math.prod(_MR_WITNESSES)
_MR_PSI = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

_SEARCH_CAP = 2**63

# Batched searches read the candidates of each modulus K = _WINDOW at a time
# (a block), at most _BLOCK candidates of all moduli at once.  A value up to b
# is read from one sieve of 0..b, b = min(K * max modulus + 1,
# _SIEVE_PER_MODULUS * moduli, _SIEVE_MAX) cut back to the last candidate a
# first block reads below it, one int8 code per odd value.  A value past b,
# up to t*t for t = min(_TRIAL_MAX, b), is decided by trial division by the
# sieve's odd primes up to t, in uint32 (t*t < 2**32); a modulus with no hit
# up to t*t walks on past it.  A batch is sieved once its budget
# _SIEVE_PER_MODULUS * moduli reaches _SIEVE_MIN (14 moduli); below that the
# scalar walk is cheaper.
_PRIME, _PROPER_POWER = 1, 2
_WINDOW = 32
_SIEVE_PER_MODULUS = 5000
_SIEVE_MIN = 2**16
_SIEVE_MAX = 2**23
_TRIAL_MAX = 2**14
_BLOCK = 2**13
# primes_up_to(n) holds at most n + 56 * pi(n) bytes (codes, mask, and per
# prime two int64s, a list slot and an int), and refuses n past this first.
_MEMORY_CEILING = 2 * 10**9  # 2 GB


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below psi_13."""
    if n < 2:
        return False
    if math.gcd(n, _MR_PRODUCT) > 1:  # a prime factor up to 41
        return n in _MR_WITNESSES
    if n < 43 * 43:  # no prime factor up to 41, so none up to sqrt(n)
        return True
    if n >= _MR_EXACT_BELOW:
        raise CapExceeded(
            f"primality of {n} is not decided: the Miller-Rabin witnesses "
            f"are exact only below {_MR_EXACT_BELOW}"
        )
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_WITNESSES[: bisect.bisect_right(_MR_PSI, n) + 1]:
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


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((prime, exponent), ...) with primes ascending:
    trial division with a rho fallback for large cofactors."""
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
    return tuple(sorted(out.items()))


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factor(n):
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
    for p, _ in factor(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def _nth_root(v: int, m: int) -> int:
    """Floor of the m-th root of v, m >= 2."""
    r = int(round(v ** (1.0 / m)))
    while r**m > v:
        r -= 1
    while (r + 1) ** m <= v:
        r += 1
    return r


def prime_power_decomposition(v: int) -> tuple[int, int] | None:
    """(q, m) with v = q**m and q prime, or None."""
    if v < 2:
        return None
    q = math.gcd(v, _MR_PRODUCT)
    if q > 1:  # a prime power has one prime factor up to 41, or none
        m = 0
        while v % q == 0:
            v //= q
            m += 1
        return (q, m) if v == 1 and q in _MR_WITNESSES else None
    if is_prime(v):
        return v, 1
    m = 2
    while 43**m <= v:  # v has no prime factor up to 41, so q > 41
        r = _nth_root(v, m)
        if r**m == v and is_prime(r):
            return r, m
        m += 1
    return None


def _prime_power_codes(b: int) -> np.ndarray:
    """int8 code of every odd v in 0..b, at v // 2: 0 not a prime power, 1
    prime, 2 proper prime power, then a 0 that values past b read.  The
    even prime powers are 2 and its powers, which need no sieve."""
    codes = np.ones((b + 1) // 2 + 1, dtype=np.int8)
    codes[:1] = codes[-1:] = 0
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


def _walk_1mod(n: int, k: int, primes_only: bool) -> tuple[int, bool]:
    """Least prime (power) among k*n+1, (k+1)*n+1, ..., with its prime flag,
    one test per candidate."""
    v = k * n + 1
    while v < _SEARCH_CAP:
        if primes_only:
            if is_prime(v):
                return v, True
        else:
            pp = prime_power_decomposition(v)
            if pp is not None:
                return v, pp[1] == 1
        v += n
    kind = "prime" if primes_only else "prime power"
    raise SearchExhausted(f"no {kind} = 1 mod {n} below 2**63")


def _trial_codes(x: np.ndarray, trial: np.ndarray, powers: tuple[np.ndarray, ...] | None) -> np.ndarray:
    """Codes of odd values x past the sieve, each above every trial prime:
    prime when no trial prime up to sqrt(max x) divides it, and a proper
    power when it is in one of the sorted arrays `powers`.  Each step
    divides the values still alive by the next primes, at most _BLOCK
    remainders at once."""
    x32 = x.astype(np.uint32)
    alive = np.arange(x.size)
    i, top = 0, int(np.searchsorted(trial, math.isqrt(int(x.max())), "right"))
    while i < top and alive.size:
        g = max(1, _BLOCK // alive.size)
        alive = alive[(x32[alive, None] % trial[i : min(i + g, top)]).all(1)]
        i += g
    out = np.zeros(x.size, dtype=np.int8)
    out[alive] = _PRIME
    for table in powers or ():
        out[table[np.minimum(np.searchsorted(table, x), table.size - 1)] == x] = _PROPER_POWER
    return out


def _search_blocks(ns, primes_only, b, values, prime) -> list[tuple[int, int]]:
    """Fill values and prime for each modulus of ns with a hit up to t*t,
    reading _WINDOW candidates a block; return (index, k) for each other
    one, to walk on from its first candidate k*n+1 past t*t."""
    codes = _prime_power_codes(b)
    t = min(_TRIAL_MAX, b)
    t2 = t * t
    trial = (2 * np.flatnonzero(codes[1 : (t + 1) // 2] == _PRIME) + 3).astype(np.uint32)
    powers = None
    if not primes_only:  # the odd q**m up to t*t: the squares, then a few hundred more
        qs = trial.astype(np.int64)
        squares = qs * qs
        pw, parts = squares * qs, []
        while (pw <= t2).any():
            qs, pw = qs[pw <= t2], pw[pw <= t2]
            parts += pw.tolist()
            pw = pw * qs
        powers = (squares, np.array(sorted(parts) or [0]))
    k = np.ones(len(ns), dtype=np.int64)
    todo = np.arange(len(ns))
    walks = []
    step = np.arange(_WINDOW)
    rows_per_block = max(1, _BLOCK // _WINDOW)
    while todo.size:
        far = k[todo] * ns[todo] + 1 > t2
        walks += [(i, (t2 - 1) // n + 1) for i, n in zip(todo[far].tolist(), ns[todo[far]].tolist())]
        todo = todo[~far]
        missed = [todo[:0]]
        for start in range(0, todo.size, rows_per_block):
            rows = todo[start : start + rows_per_block]
            v = (k[rows, None] + step) * ns[rows, None] + 1
            odd = v & 1 == 1
            # an even v reads codes[0] = 0, and a value past b the closing 0
            c = codes[np.minimum(v * odd, b + 1) >> 1]
            if not primes_only:  # an even v is a prime power only as a power of 2
                c[~odd & (v & (v - 1) == 0) & (v <= t2)] = _PROPER_POWER
            past = odd & (v > b) & (v <= t2)
            if past.any():
                c[past] = _trial_codes(v[past], trial, powers)
            hit = (c == _PRIME) if primes_only else (c != 0)
            j = hit.argmax(1)
            got = hit[np.arange(rows.size), j]
            values[rows[got]] = v[got, j[got]]
            prime[rows[got]] = c[got, j[got]] == _PRIME
            missed.append(rows[~got])
        todo = np.concatenate(missed)
        k[todo] += _WINDOW
    return walks


def least_values_1mod(moduli, primes_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """For each modulus n, the least prime power = 1 (mod n), or the least
    prime when `primes_only`, as one int64 column, with a column that
    flags the primes among them (read from the sieve codes, the trial
    division or the walk that found each value).

    A batch of 14 moduli or more (its budget _SIEVE_PER_MODULUS * moduli
    reaches _SIEVE_MIN) reads the candidates of every modulus _WINDOW at a
    time: from one sieve of 0..b, and past b, up to t*t, by trial division
    by the sieve's primes up to t = min(_TRIAL_MAX, b).  The first block
    answers most moduli; the leftovers go on together, a block at a time.
    A modulus with no hit up to t*t, and every modulus of a smaller batch
    (a single query among them), walks on one test per candidate.
    """
    moduli = list(moduli)
    if moduli and min(moduli) < 2:
        raise ValueError("least_values_1mod needs every modulus >= 2")
    values = np.zeros(len(moduli), dtype=np.int64)
    prime = np.zeros(len(moduli), dtype=bool)
    if _SIEVE_PER_MODULUS * len(moduli) >= _SIEVE_MIN:
        top = max(moduli)
        b = min(_WINDOW * top + 1, _SIEVE_PER_MODULUS * len(moduli), _SIEVE_MAX)
        # cap keeps every value inside int64: a modulus past b and t*t reads
        # no candidate and walks with its own value
        cap = max(b, _TRIAL_MAX**2)
        ns = np.array(moduli if top <= cap else [min(n, cap) for n in moduli], dtype=np.int64)
        # the sieve ends at the last candidate a first block reads below b
        b = int((np.minimum(_WINDOW, (b - 1) // ns) * ns).max()) + 1
        walks = _search_blocks(ns, primes_only, b, values, prime)
    else:
        walks = [(i, 1) for i in range(len(moduli))]
    for i, k in walks:
        values[i], prime[i] = _walk_1mod(moduli[i], k, primes_only)
    return values, prime


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
    need = n + 56 * int(1.26 * n / math.log(n))  # pi(n) < 1.26 n / ln n
    if need > _MEMORY_CEILING:
        raise CapExceeded(f"primes up to {n} need about {need // 10**6} MB, past the 2 GB ceiling")
    return [2] + (2 * np.flatnonzero(_prime_power_codes(n) == _PRIME) + 1).tolist()
