import math

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


def test_factor_examples():
    assert arith.factor(1).factors == ()
    assert arith.factor(12).factors == ((2, 2), (3, 1))
    assert arith.factor(3420).factors == ((2, 2), (3, 2), (5, 1), (19, 1))
    assert arith.factor(2476099).factors == ((19, 5),)


def test_factor_roundtrip_range():
    for n in range(1, 3000):
        f = arith.factor(n)
        assert f.value == n
        assert all(arith.is_prime(p) for p, _ in f.factors)
        assert list(f.factors) == sorted(f.factors)


def test_factor_large_semiprime():
    n = 1000003 * 1000033
    assert arith.factor(n).factors == ((1000003, 1), (1000033, 1))


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


def test_least_prime_power_1mod_examples():
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
        pp = arith.least_prime_power_1mod(n)
        assert (pp.q, pp.m) == (q, m), n


def test_least_prime_power_1mod_is_minimal():
    # independent oracle: merged sorted stream of prime powers
    bound = 30_000
    stream = sorted(
        q**m
        for q in arith.primes_up_to(bound)
        for m in range(1, bound.bit_length())
        if q**m <= bound
    )
    for n in range(2, 250):
        expect = next(v for v in stream if v % n == 1)
        got = arith.least_prime_power_1mod(n)
        assert got.value == expect, n
        assert got.value % n == 1
        assert got.q ** got.m == got.value


def test_least_prime_1mod():
    assert arith.least_prime_1mod(2) == 3
    assert arith.least_prime_1mod(3) == 7
    assert arith.least_prime_1mod(5) == 11
    assert arith.least_prime_1mod(19) == 191


def test_kanold_holds():
    for p in (2, 3, 5, 7, 19, 191):
        assert arith.kanold_holds(p)


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
    assert arith.prime_power_decomposition(2**62) == arith.PrimePower(2, 62)
    assert arith.prime_power_decomposition(41**11) == arith.PrimePower(41, 11)
    assert arith.prime_power_decomposition(43**5) == arith.PrimePower(43, 5)
    assert arith.prime_power_decomposition(1000003**2) == arith.PrimePower(1000003, 2)
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


def test_batch_reads_one_sieve_and_single_queries_none(monkeypatch):
    primes = arith.primes_up_to(30_000)
    built = []
    codes = arith._prime_power_codes
    monkeypatch.setattr(arith, "_prime_power_codes", lambda b: built.append(b) or codes(b))
    arith.least_prime_power_1mod(29989)
    arith.least_prime_1mod(29989)
    assert built == []  # below the size gate a single query walks
    arith.least_prime_powers_1mod(primes)
    assert len(built) == 1 and arith._SIEVE_MIN <= built[0] <= arith._SIEVE_MAX


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
        got = arith.least_prime_powers_1mod(primes, primes_only=flag)
        assert [(pp.q, pp.m) for pp in got] == answers[flag]


def test_batch_matches_reference_mod_p_squared(proper_powers):
    primes = arith.primes_up_to(2000)
    got = arith.least_prime_powers_1mod([p * p for p in primes])
    for p, pp in zip(primes, got):
        assert (pp.q, pp.m) == reference_1mod(p * p, False, proper_powers), p


@pytest.mark.parametrize("gate", [None, 2])
def test_batch_mixed_code_windows(monkeypatch, gate):
    """n = 3, 5, 7 have windows holding both primes and proper powers; for
    n = 5 the first hit is the prime 11, ahead of the proper power 16."""
    moduli = [3, 5, 7]
    if gate is None:
        moduli += arith.primes_up_to(30_000)  # large enough to be sieved
    else:
        monkeypatch.setattr(arith, "_SIEVE_MIN", gate)
    got = arith.least_prime_powers_1mod(moduli)[:3]
    assert [(pp.q, pp.m) for pp in got] == [(2, 2), (11, 1), (2, 3)]


@pytest.mark.parametrize("max_p", [300, 2000])
def test_sieve_serves_every_hit_its_windows_reach(monkeypatch, max_p):
    """The moduli of scan-b: the sieve ends at the last candidate a window
    reads below b0 = min(K·max n + 1, 5000·moduli, 2^23), so exactly the
    moduli whose answer lies past their candidates below b0 walk.  (Ending
    it at the window of the largest modulus whose whole window fits below
    b0 would send 51,529 = 227² on to the walk at max_p = 300: its answer
    618,349 lies between that end and b0.)"""
    primes = arith.primes_up_to(max_p)
    moduli = primes + [p * p for p in primes]
    built, walked = [], []
    codes, walk = arith._prime_power_codes, arith._walk_1mod
    monkeypatch.setattr(arith, "_prime_power_codes", lambda b: built.append(b) or codes(b))
    monkeypatch.setattr(arith, "_walk_1mod", lambda n, k, po: walked.append(n) or walk(n, k, po))
    got = arith.least_prime_powers_1mod(moduli)
    w = arith._WINDOW
    b0 = min(w * max(moduli) + 1, arith._SIEVE_PER_MODULUS * len(moduli), arith._SIEVE_MAX)
    reach = [min(w, (b0 - 1) // n) for n in moduli]
    assert built == [max(k * n + 1 for k, n in zip(reach, moduli))]
    assert built[0] <= b0
    assert walked == [n for n, k, pp in zip(moduli, reach, got) if (pp.value - 1) // n > k]


def test_batch_rejects_small_moduli():
    assert arith.least_prime_powers_1mod([]) == []
    for bad in ([1], [5, 0]):
        with pytest.raises(ValueError):
            arith.least_prime_powers_1mod(bad)
    with pytest.raises(ValueError):
        arith.least_prime_power_1mod(1)
