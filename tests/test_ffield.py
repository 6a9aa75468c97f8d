import functools
import itertools

import numpy as np
import pytest

from chardeg.arith import factor, is_prime, multiplicative_order
from chardeg.errors import CapExceeded, OrderNotDividing
from chardeg.ffield import (
    digits,
    find_irreducible,
    mat_det,
    mat_identity,
    mat_mul,
    multiplier,
    undigits,
)

# ------------------------------------------- polynomial reference, by brute force


def _poly_rem(a, g, q):
    """Remainder of a by the monic g, as len(g) - 1 coefficients."""
    a = list(a)
    d = len(g) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % q
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * g[j]) % q
    return tuple(c % q for c in a[:d]) + (0,) * (d - len(a))


def brute_force_irreducible(f, q):
    """No monic divisor of degree 1..deg-1 (trial division)."""
    m = len(f) - 1
    for d in range(1, m):
        for tail in itertools.product(range(q), repeat=d):
            if not any(_poly_rem(f, tail + (1,), q)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def _reference_field(q, m):
    """The least irreducible f by trial division, and the least element of
    order q**m - 1 by brute-force element orders, as polynomials mod f."""
    f = next(
        digits(i, q, m) + (1,)
        for i in range(q**m)
        if brute_force_irreducible(digits(i, q, m) + (1,), q)
    )
    one = digits(1, q, m)

    def mul(a, b):
        prod = [0] * (2 * m - 1)
        for i, j in itertools.product(range(m), repeat=2):
            prod[i + j] += a[i] * b[j]
        return _poly_rem(prod, f, q)

    def order(a):
        k, x = 1, a
        while x != one:
            x, k = mul(x, a), k + 1
        return k

    u = next(digits(i, q, m) for i in range(1, q**m) if order(digits(i, q, m)) == q**m - 1)
    return mul, u


def reference_multiplier(q, m, k):
    """Matrix of y -> a*y with a = u**((q**m - 1)/k): column j is a * x**j."""
    mul, u = _reference_field(q, m)
    a = digits(1, q, m)
    for _ in range((q**m - 1) // k):
        a = mul(a, u)
    cols = [mul(a, digits(q**j, q, m)) for j in range(m)]
    return tuple(tuple(col[r] for col in cols) for r in range(m))


def _reference_cases():
    """Every q**m <= 800 with k = q**m - 1 and k its largest prime factor,
    plus the frob multipliers the theorems' winners use."""
    cases = set()
    for q in filter(is_prime, range(2, 801)):
        m = 1
        while q**m <= 800:
            n = q**m - 1
            cases.add((q, m, n))
            if n > 1:
                cases.add((q, m, max(r for r, _ in factor(n).factors)))
            m += 1
    return sorted(cases | {(2, 8, 17), (191, 1, 19), (103, 1, 17)})


REFERENCE_CASES = _reference_cases()


def _powers(q, a, count):
    """a**1, ..., a**count."""
    out = [mat_identity(len(a))]
    for _ in range(count):
        out.append(mat_mul(q, out[-1], a))
    return out[1:]


# ------------------------------------------------------------------------ tests


def test_find_irreducible_examples():
    for q in (2, 3, 5, 7, 191):
        assert find_irreducible(q, 1) == (0, 1)  # lex-least is x itself
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2+1


def test_int64_products_are_bounded():
    # 2 * (2**31 - 1)**2 < 2**63 <= 2 * 2147483659**2
    assert find_irreducible(2**31 - 1, 2)[-1] == 1
    with pytest.raises(CapExceeded):
        find_irreducible(2147483659, 2)
    with pytest.raises(CapExceeded):
        multiplier(3037000507, 1, 2)


def test_find_irreducible_is_least_and_irreducible():
    for q, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        f = find_irreducible(q, m)
        assert len(f) == m + 1 and f[-1] == 1
        assert brute_force_irreducible(f, q)
        # nothing earlier in encoding order is irreducible
        enc = sum(c * q**i for i, c in enumerate(f[:-1]))
        for idx in range(enc):
            tail = digits(idx, q, m)
            assert not brute_force_irreducible(tail + (1,), q)


def test_field_arithmetic_f8():
    # x is primitive in F_2[x]/(x^3+x+1), so the multiplier of order 7 is
    # the companion matrix C itself
    c = multiplier(2, 3, 7)
    assert c == ((0, 0, 1), (1, 0, 1), (0, 1, 0))
    c2 = mat_mul(2, c, c)
    assert [row[0] for row in c2] == [0, 0, 1]  # x * x = x^2
    assert [row[0] for row in mat_mul(2, c2, c)] == [1, 1, 0]  # x^3 = x + 1
    powers = _powers(2, c, 7)
    assert powers[-1] == mat_identity(3)
    assert len(set(powers)) == 7


def test_field_mul_matches_integer_mod_for_m1():
    for q in (3, 5, 7, 11, 103, 191):
        g = next(v for v in range(2, q) if multiplicative_order(v, q) == q - 1)
        for k in (d for d in range(1, q) if (q - 1) % d == 0):
            assert multiplier(q, 1, k) == ((pow(g, (q - 1) // k, q),),)


def test_primitive_element():
    # column 0 of the matrix of y -> u*y is u itself
    def primitive(q, m):
        return tuple(row[0] for row in multiplier(q, m, q**m - 1))

    assert primitive(3, 1) == (2,)
    assert primitive(5, 1) == (2,)
    assert primitive(11, 1) == (2,)
    assert primitive(2, 3) == (0, 1, 0)  # x
    assert primitive(2, 1) == (1,)


def test_primitive_element_has_full_order():
    # the powers of a primitive element reach every nonzero vector
    for q, m in ((2, 2), (2, 3), (3, 2), (5, 1), (7, 1), (3, 3)):
        u = multiplier(q, m, q**m - 1)
        column0 = {tuple(row[0] for row in a) for a in _powers(q, u, q**m - 1)}
        assert len(column0) == q**m - 1
        assert (0,) * m not in column0


def test_element_of_order():
    assert multiplier(2, 2, 3) == ((0, 1), (1, 1))  # x, in F_2[x]/(x^2+x+1)
    assert multiplier(11, 1, 5) == ((4,),)
    assert multiplier(3, 2, 1) == mat_identity(2)
    for q, m, k in ((2, 3, 4), (11, 1, 3), (3, 2, 5), (2, 8, 0)):
        with pytest.raises(OrderNotDividing):
            multiplier(q, m, k)


def test_element_of_order_is_exact():
    for q, m, k in REFERENCE_CASES:
        powers = _powers(q, multiplier(q, m, k), k)
        assert powers[-1] == mat_identity(m), (q, m, k)
        assert mat_identity(m) not in powers[:-1], (q, m, k)


def test_mult_matrix():
    # the element a(x) is the matrix a(C), whose column j is a * x**j
    assert multiplier(2, 2, 1) == ((1, 0), (0, 1))
    a = multiplier(3, 2, 4)  # u**2, u = x + 1 in F_3[x]/(x^2+1), so 2x
    assert a == ((0, 1), (2, 0))
    assert mat_det(3, a) != 0


def test_mult_matrix_agrees_with_field_mul():
    assert len(REFERENCE_CASES) >= 140
    for q, m, k in REFERENCE_CASES:
        assert multiplier(q, m, k) == reference_multiplier(q, m, k), (q, m, k)


def test_fixed_point_free_action():
    # powers of an order-k multiplier fix no nonzero vector until the identity:
    # a**j - 1 is invertible for 0 < j < k
    for q, m, k in REFERENCE_CASES:
        for a in _powers(q, multiplier(q, m, k), k - 1):
            diff = tuple(
                tuple((a[r][c] - (r == c)) % q for c in range(m)) for r in range(m)
            )
            assert mat_det(q, diff) != 0, (q, m, k)


def test_digits_roundtrip():
    for q, m in ((3, 2), (2, 5), (7, 1)):
        for i in range(q**m):
            v = digits(i, q, m)
            assert len(v) == m and all(0 <= c < q for c in v)
            assert undigits(v, q) == i
        # elementwise on arrays: the rows of the m x q**m digit array
        rows = np.array(digits(np.arange(q**m), q, m))
        assert rows.shape == (m, q**m)
        assert [tuple(col) for col in rows.T.tolist()] == [digits(i, q, m) for i in range(q**m)]
        assert undigits(rows, q).tolist() == list(range(q**m))
    assert digits(5, 2, 3) == (1, 0, 1)  # least significant digit first


def test_matrix_helpers():
    ident = mat_identity(2)
    rot = ((0, 2), (1, 0))
    assert mat_mul(3, rot, rot) == ((2, 0), (0, 2))
    assert mat_mul(3, rot, ident) == rot
    assert mat_det(3, rot) == (0 * 0 - 2 * 1) % 3 == 1
    assert mat_det(3, ((1, 2), (2, 4))) == 0
    assert mat_det(2, ((0, 1), (1, 1))) == 1
