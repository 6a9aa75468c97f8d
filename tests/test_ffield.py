import itertools

import pytest

from chardeg import ffield
from chardeg.errors import OrderNotDividing, ZeroElement
from chardeg.ffield import (
    digits,
    element_of_order,
    f_mul,
    f_pow,
    field_context,
    find_irreducible,
    mat_det,
    mat_identity,
    mat_mul,
    mat_vec,
    mult_matrix,
    undigits,
)


def brute_force_irreducible(f, q):
    """No monic divisor of degree 1..deg-1 (schoolbook check)."""
    m = len(f) - 1
    for d in range(1, m):
        for tail in itertools.product(range(q), repeat=d):
            g = tail + (1,)
            if ffield._prem(f, g, q) == ():
                return False
    return True


def test_find_irreducible_examples():
    for q in (2, 3, 5, 7, 191):
        assert find_irreducible(q, 1) == (0, 1)  # lex-least is x itself
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2+1


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
    ctx = field_context(2, 3)
    x = (0, 1, 0)
    x2 = (0, 0, 1)
    assert f_mul(ctx, x, x) == x2
    assert f_mul(ctx, x, x2) == (1, 1, 0)  # x^3 = x + 1
    assert f_pow(ctx, x, 7) == ctx.one
    # multiplicative group has order 7: all non-identity powers differ
    powers = {f_pow(ctx, x, k) for k in range(7)}
    assert len(powers) == 7


def test_field_mul_matches_integer_mod_for_m1():
    ctx = field_context(7, 1)
    for a in range(7):
        for b in range(7):
            assert f_mul(ctx, (a,), (b,)) == (a * b % 7,)


def test_primitive_element():
    assert field_context(3, 1).primitive == (2,)
    assert field_context(5, 1).primitive == (2,)
    assert field_context(11, 1).primitive == (2,)
    assert field_context(2, 3).primitive == (0, 1, 0)  # x
    assert field_context(2, 1).primitive == (1,)


def test_primitive_element_has_full_order():
    for q, m in ((2, 2), (2, 3), (3, 2), (5, 1), (7, 1), (3, 3)):
        ctx = field_context(q, m)
        g = ctx.primitive
        n = ctx.order - 1
        seen = set()
        e = ctx.one
        for _ in range(n):
            seen.add(e)
            e = f_mul(ctx, e, g)
        assert e == ctx.one
        assert len(seen) == n


def test_element_of_order():
    ctx4 = field_context(2, 2)
    assert element_of_order(ctx4, 3) == (0, 1)  # x
    ctx8 = field_context(2, 3)
    assert element_of_order(ctx8, 7) == ctx8.primitive
    ctx11 = field_context(11, 1)
    assert element_of_order(ctx11, 5) == (4,)
    with pytest.raises(OrderNotDividing):
        element_of_order(ctx8, 4)


def test_element_of_order_is_exact():
    for q, m, d in ((2, 3, 7), (3, 2, 8), (3, 2, 4), (11, 1, 5), (5, 1, 4), (191, 1, 19)):
        ctx = field_context(q, m)
        a = element_of_order(ctx, d)
        e = ctx.one
        for k in range(1, d):
            e = f_mul(ctx, e, a)
            assert e != ctx.one, (q, m, d, k)
        assert f_mul(ctx, e, a) == ctx.one


def test_mult_matrix():
    ctx = field_context(2, 2)
    assert mult_matrix(ctx, ctx.one) == ((1, 0), (0, 1))
    assert mult_matrix(ctx, (0, 1)) == ((0, 1), (1, 1))  # columns x, x^2=x+1
    with pytest.raises(ZeroElement):
        mult_matrix(ctx, ctx.zero)


def test_mult_matrix_agrees_with_field_mul():
    for q, m in ((2, 3), (3, 2), (5, 1)):
        ctx = field_context(q, m)
        for ai in range(1, ctx.order):
            a = digits(ai, q, m)
            mat = mult_matrix(ctx, a)
            for bi in range(ctx.order):
                b = digits(bi, q, m)
                assert mat_vec(q, mat, b) == f_mul(ctx, a, b)


def test_fixed_point_free_action():
    # powers of an order-d multiplier fix no nonzero vector until the identity
    for q, m, d in ((2, 3, 7), (3, 2, 8), (11, 1, 5)):
        ctx = field_context(q, m)
        a = element_of_order(ctx, d)
        power = ctx.one
        for k in range(1, d):
            power = f_mul(ctx, power, a)
            for vi in range(1, ctx.order):
                v = digits(vi, q, m)
                assert f_mul(ctx, power, v) != v, (q, m, d, k)


def test_digits_roundtrip():
    for q, m in ((3, 2), (2, 5), (7, 1)):
        for i in range(q**m):
            v = digits(i, q, m)
            assert len(v) == m and all(0 <= c < q for c in v)
            assert undigits(v, q) == i
    assert digits(5, 2, 3) == (1, 0, 1)  # least significant digit first


def test_matrix_helpers():
    ident = mat_identity(2)
    rot = ((0, 2), (1, 0))
    assert mat_mul(3, rot, rot) == ((2, 0), (0, 2))
    assert mat_mul(3, rot, ident) == rot
    assert mat_det(3, rot) == (0 * 0 - 2 * 1) % 3 == 1
    assert mat_det(3, ((1, 2), (2, 4))) == 0
    assert mat_det(2, ((0, 1), (1, 1))) == 1
