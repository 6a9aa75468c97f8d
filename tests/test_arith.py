import math

import numpy as np
import pytest

from chardeg import arith
from chardeg.errors import CapExceeded, NotCoprime

PSI_12 = 318_665_857_834_031_151_167_461  # least strong pseudoprime to bases 2..37
PSI_13 = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to bases 2..41


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_small_range_against_trial_division():
    for n in range(0, 2000):
        assert arith.is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_spot_values():
    assert arith.is_prime(2)
    assert not arith.is_prime(1)
    assert arith.is_prime(191)
    assert arith.is_prime(10831)
    assert arith.is_prime(29033)
    # strong pseudoprime to several small bases
    assert not arith.is_prime(3215031751)
    assert arith.is_prime(2**61 - 1)


def test_is_prime_exact_up_to_psi_13():
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    assert not arith.is_prime(PSI_12)
    with pytest.raises(CapExceeded):
        arith.is_prime(PSI_13)
    # a small factor still decides beyond psi_13
    assert not arith.is_prime(PSI_13 + 1)
    assert not arith.is_prime(41 * PSI_13)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_takes_the_witnesses_n_needs():
    """Below psi_t the first t primes decide: each psi_t is a strong
    pseudoprime to exactly those witnesses, so is_prime must reach the next
    one there.  Up to 200,000 every answer matches the sieve."""
    witnesses = arith._MR_WITNESSES
    for t, psi in enumerate(arith._MR_PSI, 1):
        assert all(strong_probable_prime(psi, a) for a in witnesses[:t]), t
        assert not arith.is_prime(psi)
    primes = set(arith.primes_up_to(200_000))
    assert [n for n in range(200_000) if arith.is_prime(n)] == sorted(primes)


def test_factor_examples():
    assert arith.factor(1) == ()
    assert arith.factor(12) == ((2, 2), (3, 1))
    assert arith.factor(3420) == ((2, 2), (3, 2), (5, 1), (19, 1))
    assert arith.factor(2476099) == ((19, 5),)


def test_factor_roundtrip_range():
    for n in range(1, 3000):
        f = arith.factor(n)
        assert math.prod(p**e for p, e in f) == n
        assert all(arith.is_prime(p) for p, _ in f)
        assert list(f) == sorted(f)


def test_factor_large_semiprime():
    n = 1000003 * 1000033
    assert arith.factor(n) == ((1000003, 1), (1000033, 1))


def test_multiplicative_order():
    assert arith.multiplicative_order(1, 5) == 1
    assert arith.multiplicative_order(2, 7) == 3
    assert arith.multiplicative_order(3, 7) == 6
    assert arith.multiplicative_order(4, 11) == 5
    with pytest.raises(NotCoprime):
        arith.multiplicative_order(2, 4)


def test_multiplicative_order_is_minimal():
    for n in (5, 7, 9, 12, 55, 191):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            k = arith.multiplicative_order(a, n)
            assert pow(a, k, n) == 1
            assert all(pow(a, j, n) != 1 for j in range(1, k))


def single(n, primes_only=False):
    """A single query: a batch of one modulus, which walks."""
    values, prime = arith.least_values_1mod([n], primes_only)
    return values.item(), prime.item()


def value_and_flag(answers):
    """The (q, m) answers as least_values_1mod gives them: q**m and m == 1."""
    return [(q**m, m == 1) for q, m in answers]


def batch(moduli, primes_only=False):
    values, prime = arith.least_values_1mod(moduli, primes_only)
    return list(zip(values.tolist(), prime.tolist()))


def test_least_values_1mod_examples():
    cases = {
        2: (3, 1),
        3: (2, 2),
        4: (5, 1),
        5: (11, 1),
        7: (2, 3),
        8: (3, 2),
        9: (19, 1),
        19: (191, 1),
        25: (101, 1),
        49: (197, 1),
        121: (3, 5),
        169: (677, 1),
        361: (10831, 1),
    }
    for n, (q, m) in cases.items():
        assert single(n) == (q**m, m == 1), n
        assert arith.prime_power_decomposition(q**m) == (q, m)
    assert batch(list(cases) * 2) == value_and_flag(cases.values()) * 2  # 26 moduli: sieved


def test_least_values_1mod_is_minimal():
    # independent oracle: merged sorted stream of prime powers
    bound = 30_000
    stream = sorted(
        q**m
        for q in arith.primes_up_to(bound)
        for m in range(1, bound.bit_length())
        if q**m <= bound
    )
    moduli = range(2, 250)
    values, prime = arith.least_values_1mod(moduli)  # one batch: the sieve
    for n, v, is_p in zip(moduli, values.tolist(), prime.tolist()):
        expect = next(x for x in stream if x % n == 1)
        assert single(n) == (v, is_p), n  # alone: the walk
        assert v == expect, n
        q, m = arith.prime_power_decomposition(v)
        assert q**m == v and is_p == (m == 1)


def test_least_prime_1mod():
    for n, q in ((2, 3), (3, 7), (5, 11), (19, 191)):
        assert single(n, primes_only=True) == (q, True)


def test_psl2_order():
    assert arith.psl2_order(2) == 6
    assert arith.psl2_order(3) == 12
    assert arith.psl2_order(5) == 60
    assert arith.psl2_order(7) == 168
    assert arith.psl2_order(19) == 3420
    with pytest.raises(ValueError):
        arith.psl2_order(9)


def test_is_cyclic_number():
    assert arith.is_cyclic_number(1)
    assert arith.is_cyclic_number(15)
    assert arith.is_cyclic_number(35)
    assert not arith.is_cyclic_number(30)
    # primes are cyclic numbers; prime squares are not
    for p in (2, 3, 5, 7, 11):
        assert arith.is_cyclic_number(p)
        assert not arith.is_cyclic_number(p * p)


def test_euler_phi():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(12) == 4
    assert arith.euler_phi(99) == 60
    for n in range(1, 200):
        assert arith.euler_phi(n) == sum(
            1 for k in range(1, n + 1) if math.gcd(k, n) == 1
        )


def test_primes_up_to():
    assert arith.primes_up_to(1) == []
    assert arith.primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(arith.primes_up_to(4000)) == 550
    assert arith.primes_up_to(3000) == [
        n for n in range(3001) if trial_division_is_prime(n)
    ]


def test_prime_power_decomposition_small_and_large_factors():
    assert arith.prime_power_decomposition(2**62) == (2, 62)
    assert arith.prime_power_decomposition(41**11) == (41, 11)
    assert arith.prime_power_decomposition(43**5) == (43, 5)
    assert arith.prime_power_decomposition(1000003**2) == (1000003, 2)
    for v in (1, 6, 43 * 47, 43**2 * 47, 2**62 * 3):
        assert arith.prime_power_decomposition(v) is None


# ------------------------------------------- batched least prime (power) search

# Proper prime powers q**m (m >= 2) are tabled, without the sieve under test,
# up to a bound above every answer checked below (the largest is 164,077,271).
_POWER_BOUND = 2 * 10**8


@pytest.fixture(scope="module")
def proper_powers():
    out = {}
    for q in range(2, math.isqrt(_POWER_BOUND) + 1):
        if trial_division_is_prime(q):
            v, m = q * q, 2
            while v <= _POWER_BOUND:
                out[v] = (q, m)
                v, m = v * q, m + 1
    return out


def reference_1mod(n, primes_only, proper_powers):
    """The scalar walk n+1, 2n+1, ...: Miller-Rabin, plus the table of
    proper powers when prime powers count."""
    v = n + 1
    while not (arith.is_prime(v) or (not primes_only and v in proper_powers)):
        v += n
    assert v <= _POWER_BOUND
    return proper_powers.get(v, (v, 1))


@pytest.fixture(scope="module")
def scan_moduli(proper_powers):
    """Every prime p <= 30,000 with its reference answers mod p."""
    primes = [p for p in range(2, 30_001) if arith.is_prime(p)]
    answers = {
        flag: [reference_1mod(p, flag, proper_powers) for p in primes]
        for flag in (False, True)
    }
    return primes, answers


@pytest.fixture
def search_log(monkeypatch):
    """Records each sieve bound built, each value trial-divided and each
    walk (n, k) that the searches make."""
    log = {"built": [], "tried": [], "walked": []}
    codes, trial, walk = arith._prime_power_codes, arith._trial_codes, arith._walk_1mod
    monkeypatch.setattr(arith, "_prime_power_codes", lambda b: log["built"].append(b) or codes(b))
    monkeypatch.setattr(
        arith, "_trial_codes", lambda x, *a: log["tried"].extend(x.tolist()) or trial(x, *a)
    )
    monkeypatch.setattr(
        arith, "_walk_1mod", lambda n, k, po: log["walked"].append((n, k)) or walk(n, k, po)
    )
    return log


def test_single_queries_and_small_batches_only_walk(search_log):
    """Below a budget of _SIEVE_MIN = 2**16 sieve values at 5,000 per
    modulus, i.e. below 14 moduli, nothing is sieved: every modulus walks
    from its first candidate.  14 moduli are sieved, however small."""
    small = arith.primes_up_to(43)
    assert len(small) == 14
    search_log["built"].clear()  # primes_up_to's own sieve
    single(29989)
    single(29989, primes_only=True)
    arith.least_values_1mod([29989, 29989**2])
    arith.least_values_1mod(small[:13])
    walked = [(29989, 1), (29989, 1), (29989, 1), (29989**2, 1)] + [(p, 1) for p in small[:13]]
    assert search_log == {"built": [], "tried": [], "walked": walked}
    arith.least_values_1mod(small)
    assert search_log == {"built": [arith._WINDOW * 43 + 1], "tried": [], "walked": walked}


@pytest.mark.parametrize("primes_only", [False, True])
def test_scan_batch_walks_no_modulus(search_log, primes_only):
    """The moduli of scan-a and kanold at 30,000: one sieve of 0..32·29,989
    + 1 holds every first block of 32 candidates, and no modulus walks.
    The leftover pass takes exactly the 115 moduli (116 for primes) with
    no hit in their first block: it reads each further block of 32 until
    the one holding the answer, and trial-divides the odd candidates that
    lie past the sieve."""
    primes = arith.primes_up_to(30_000)
    search_log["built"].clear()  # primes_up_to's own sieve
    w = arith._WINDOW
    got = arith.least_values_1mod(primes, primes_only)[0].tolist()
    b = w * primes[-1] + 1
    assert search_log["built"] == [b]
    assert search_log["walked"] == []
    hit_at = {n: (v - 1) // n for n, v in zip(primes, got)}
    leftover = [n for n in primes if hit_at[n] > w]
    assert len(leftover) == (116 if primes_only else 115)
    assert sorted(search_log["tried"]) == sorted(
        k * n + 1
        for n in leftover
        for k in range(w + 1, -(-hit_at[n] // w) * w + 1)
        if (k * n + 1) % 2 and k * n + 1 > b
    )


@pytest.mark.parametrize(
    "constants",
    [
        {},
        # almost every modulus crosses the sieve edge into the scalar walk
        {"_WINDOW": 1, "_SIEVE_MIN": 2},
        {"_WINDOW": 2, "_SIEVE_MIN": 2},
        # b = 2**17, a proper prime power, cut back to the last candidate
        # read; most windows run past it
        {"_SIEVE_MAX": 2**17},
    ],
)
def test_batch_matches_reference_mod_p(monkeypatch, scan_moduli, constants):
    for name, value in constants.items():
        monkeypatch.setattr(arith, name, value)
    primes, answers = scan_moduli
    for flag in (False, True):
        assert batch(primes, primes_only=flag) == value_and_flag(answers[flag])


def test_batch_matches_reference_mod_p_squared(proper_powers):
    primes = arith.primes_up_to(2000)
    got = batch([p * p for p in primes])
    for p, answer in zip(primes, got):
        assert answer == value_and_flag([reference_1mod(p * p, False, proper_powers)])[0], p


@pytest.mark.parametrize("gate", [None, 2])
def test_batch_mixed_code_windows(monkeypatch, gate):
    """n = 3, 5, 7 have windows holding both primes and proper powers; for
    n = 5 the first hit is the prime 11, ahead of the proper power 16."""
    moduli = [3, 5, 7]
    if gate is None:
        moduli += arith.primes_up_to(30_000)  # large enough to be sieved
    else:
        monkeypatch.setattr(arith, "_SIEVE_MIN", gate)
    assert batch(moduli)[:3] == value_and_flag([(2, 2), (11, 1), (2, 3)])


@pytest.mark.parametrize("max_p", [300, 2000])
def test_scan_b_reads_sieve_then_trial_division(search_log, max_p):
    """The moduli of scan-b: the sieve ends at the last candidate that a
    first block reads below b0 = min(K·max n + 1, 5000·moduli, 2^23), and
    every odd candidate past it, up to t² for t = min(2^14, b), is trial
    divided, a block of K at a time up to the block holding the answer.
    Every answer lies below t² here, so no modulus walks."""
    primes = arith.primes_up_to(max_p)
    moduli = primes + [p * p for p in primes]
    search_log["built"].clear()  # primes_up_to's own sieve
    got = arith.least_values_1mod(moduli)[0].tolist()
    w = arith._WINDOW
    b0 = min(w * max(moduli) + 1, arith._SIEVE_PER_MODULUS * len(moduli), arith._SIEVE_MAX)
    b = max(min(w, (b0 - 1) // n) * n for n in moduli) + 1
    t2 = min(arith._TRIAL_MAX, b) ** 2
    assert search_log["built"] == [b]
    assert search_log["walked"] == []
    assert max(got) <= t2
    assert sorted(search_log["tried"]) == sorted(
        k * n + 1
        for n, v in zip(moduli, got)
        for k in range(1, -(-((v - 1) // n) // w) * w + 1)
        if (k * n + 1) % 2 and b < k * n + 1 <= t2
    )


def test_mixed_batch_matches_single_queries(search_log):
    """A scan's moduli plus one past the walk bound t² = 2^28, which walks
    from its first candidate; every answer is the single query's."""
    big = 300_000_007
    assert arith.is_prime(big) and arith._TRIAL_MAX**2 < big
    moduli = arith.primes_up_to(30_000) + [big]
    for flag in (False, True):
        search_log["walked"].clear()
        got = batch(moduli, primes_only=flag)
        assert search_log["walked"] == [(big, 1)]
        assert got == [single(n, primes_only=flag) for n in moduli]


def test_trial_codes_classify_every_odd_value_past_the_sieve():
    """Past a sieve of 0..b, every odd value up to t² (t = b here) gets the
    code the sieve would give it: prime, proper prime power (a square of a
    prime, or q^m for m >= 3) or neither."""
    b = 201
    codes = arith._prime_power_codes(b)
    trial = (2 * np.flatnonzero(codes[1 : (b + 1) // 2] == arith._PRIME) + 3).astype(np.uint32)
    qs = trial.astype(np.int64)
    higher = np.array(sorted(q**m for q in qs.tolist() for m in range(3, 20) if q**m <= b * b))
    x = np.arange(b + 2, b * b + 1, 2)
    got = arith._trial_codes(x, trial, (qs * qs, higher)).tolist()
    want = [
        0 if pp is None else arith._PRIME if pp[1] == 1 else arith._PROPER_POWER
        for pp in map(arith.prime_power_decomposition, x.tolist())
    ]
    assert got == want
    assert arith._trial_codes(x, trial, None).tolist() == [
        int(c == arith._PRIME) for c in want
    ]


def test_batch_rejects_small_moduli():
    assert batch([]) == []
    for bad in ([1], [5, 0]):
        with pytest.raises(ValueError):
            arith.least_values_1mod(bad)
