"""Finite fields F_{q^m} in a power basis.

Field elements are coefficient tuples (c_0, ..., c_{m-1}) over F_q, ascending
powers of the generator x.  Elements, and vectors of F_q^m generally, are
indexed by the integer encoding sum(c_i * q**i) (`digits` and `undigits`
convert); that encoding fixes the element ordering used for every "least"
search here, including the choice of modulus, so a given (q, m) always
produces the same field with the same element labels.

Sizes stay small (q**m is bounded by the group-element cap downstream), so
the arithmetic is plain schoolbook polynomial arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arith import factor, is_prime
from .errors import OrderNotDividing, ZeroElement

__all__ = [
    "FieldCtx",
    "field_context",
    "find_irreducible",
    "element_of_order",
    "mult_matrix",
    "f_mul",
    "f_pow",
    "digits",
    "undigits",
    "mat_identity",
    "mat_mul",
    "mat_vec",
    "mat_det",
]

Poly = tuple[int, ...]  # ascending coefficients, no trailing-zero guarantee
Elem = tuple[int, ...]  # exactly m coefficients
Matrix = tuple[tuple[int, ...], ...]  # rows; column j = image of basis j


# ---------------------------------------------------------------- polynomials


def _ptrim(a: Poly) -> Poly:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a: Poly, b: Poly, q: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _ptrim(tuple(out))


def _pmod(a: Poly, f: Poly, q: int) -> Poly:
    """a mod f for monic f."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % q
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % q
    return _ptrim(tuple(a[:df]))


def _ppowmod(a: Poly, e: int, f: Poly, q: int) -> Poly:
    out: Poly = (1,)
    base = _pmod(a, f, q)
    while e:
        if e & 1:
            out = _pmod(_pmul(out, base, q), f, q)
        base = _pmod(_pmul(base, base, q), f, q)
        e >>= 1
    return out


def _pgcd(a: Poly, b: Poly, q: int) -> Poly:
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _prem(a, b, q)
    return _make_monic(a, q)


def _prem(a: Poly, b: Poly, q: int) -> Poly:
    """Remainder of a by b (b nonzero, not necessarily monic)."""
    b = _ptrim(b)
    inv = pow(b[-1], q - 2, q) if b[-1] != 1 else 1
    a = list(_ptrim(a))
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % q
        shift = len(a) - 1 - db
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - c * b[j]) % q
        a = list(_ptrim(tuple(a)))
    return tuple(a)


def _make_monic(a: Poly, q: int) -> Poly:
    a = _ptrim(a)
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], q - 2, q)
    return tuple(c * inv % q for c in a)


def _is_irreducible(f: Poly, q: int) -> bool:
    """x**(q**m) = x mod f, and gcd(x**(q**(m/r)) - x, f) = 1 for prime r | m."""
    m = len(f) - 1
    if m == 1:
        return True
    x: Poly = (0, 1)
    if _ppowmod(x, q**m, f, q) != _pmod(x, f, q):
        return False
    for r, _ in factor(m).factors:
        g = _ppowmod(x, q ** (m // r), f, q)
        diff = _ptrim(tuple((a - b) % q for a, b in itertools.zip_longest(g, x, fillvalue=0)))
        if len(_pgcd(f, diff, q)) > 1:
            return False
    return True


def find_irreducible(q: int, m: int) -> Poly:
    """Least monic irreducible of degree m over F_q.

    "Least" orders candidate coefficient tuples (c_0, ..., c_{m-1}) by their
    base-q integer encoding sum(c_i * q**i), the same ordering used for field
    elements, so e.g. x**3 + x + 1 precedes x**3 + x**2 + 1 over F_2.
    """
    if not is_prime(q) or m < 1:
        raise ValueError("need prime q and m >= 1")
    for idx in range(q**m):
        f = digits(idx, q, m) + (1,)
        if _is_irreducible(f, q):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


# ------------------------------------------------------------- field elements


@dataclass(frozen=True)
class FieldCtx:
    """A concrete F_{q^m}: modulus polynomial plus a cached primitive element,
    the least one (by integer encoding) of multiplicative order q**m - 1."""

    q: int
    m: int
    modulus: Poly
    primitive: Elem

    @property
    def order(self) -> int:
        return self.q**self.m

    @property
    def zero(self) -> Elem:
        return (0,) * self.m

    @property
    def one(self) -> Elem:
        return (1,) + (0,) * (self.m - 1)


def _pad(a: Poly, m: int) -> Elem:
    return tuple(a) + (0,) * (m - len(a))


def f_mul(ctx: FieldCtx, a: Elem, b: Elem) -> Elem:
    return _pad(_pmod(_pmul(a, b, ctx.q), ctx.modulus, ctx.q), ctx.m)


def f_pow(ctx: FieldCtx, a: Elem, e: int) -> Elem:
    return _pad(_ppowmod(a, e, ctx.modulus, ctx.q), ctx.m)


def digits(i: int, q: int, m: int) -> tuple[int, ...]:
    """The m base-q digits of i, least significant first."""
    out = []
    for _ in range(m):
        out.append(i % q)
        i //= q
    return tuple(out)


def undigits(v: tuple[int, ...], q: int) -> int:
    """Inverse of digits: sum(v[i] * q**i)."""
    i = 0
    for c in reversed(v):
        i = i * q + c
    return i


def _find_primitive(q: int, m: int, modulus: Poly) -> Elem:
    n = q**m - 1
    prime_parts = [r for r, _ in factor(n).factors] if n > 1 else []
    for idx in range(1, n + 1):
        e = digits(idx, q, m)
        if all(
            _pad(_ppowmod(e, n // r, modulus, q), m) != (1,) + (0,) * (m - 1)
            for r in prime_parts
        ):
            return e
    raise AssertionError("unreachable: F_q^m* is cyclic")


def field_context(q: int, m: int) -> FieldCtx:
    modulus = find_irreducible(q, m)
    primitive = _find_primitive(q, m, modulus)
    return FieldCtx(q=q, m=m, modulus=modulus, primitive=primitive)


def element_of_order(ctx: FieldCtx, d: int) -> Elem:
    """primitive**((q**m - 1)/d); has exact multiplicative order d."""
    n = ctx.order - 1
    if d < 1 or n % d != 0:
        raise OrderNotDividing(f"{d} does not divide {n}")
    return f_pow(ctx, ctx.primitive, n // d)


def mult_matrix(ctx: FieldCtx, a: Elem) -> Matrix:
    """Matrix of y -> a*y in the power basis; column j is a * x**j."""
    if a == ctx.zero:
        raise ZeroElement("multiplication matrix of zero is singular")
    cols = []
    for j in range(ctx.m):
        basis = _pad((0,) * j + (1,), ctx.m)
        cols.append(f_mul(ctx, a, basis))
    return tuple(tuple(cols[c][r] for c in range(ctx.m)) for r in range(ctx.m))


# ------------------------------------------------- small matrices over F_q


def mat_identity(m: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(m)) for r in range(m))


def mat_mul(q: int, a: Matrix, b: Matrix) -> Matrix:
    m = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(m)) % q for c in range(m))
        for r in range(m)
    )


def mat_vec(q: int, a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    m = len(a)
    return tuple(sum(a[r][k] * v[k] for k in range(m)) % q for r in range(m))


def mat_det(q: int, a: Matrix) -> int:
    """Determinant mod prime q by Gaussian elimination."""
    m = len(a)
    rows = [list(r) for r in a]
    det = 1
    for c in range(m):
        piv = next((r for r in range(c, m) if rows[r][c] % q), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % q
        inv = pow(rows[c][c], q - 2, q)
        for r in range(c + 1, m):
            f = rows[r][c] * inv % q
            if f:
                for k in range(c, m):
                    rows[r][k] = (rows[r][k] - f * rows[c][k]) % q
    return det % q
