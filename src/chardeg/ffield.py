"""Finite fields F_{q^m} as matrices over F_q.

F_{q^m} is F_q[C] for C the companion matrix of a monic irreducible f of
degree m: the element a(x) = c_0 + c_1 x + ... + c_{m-1} x^{m-1} of the power
basis is the matrix a(C), which is also the matrix of y -> a*y, and its
column 0 is the coefficient tuple (c_0, ..., c_{m-1}).  So one arithmetic,
matrices over F_q, serves for the field and for the groups built on it.

Vectors of F_q^m, field elements among them, are indexed by the integer
encoding sum(c_i * q**i) (`digits` and `undigits` convert, on ints or
elementwise on numpy arrays); that encoding fixes the ordering used for every
"least" search here, including the choice of f, so a given (q, m) always
produces the same field with the same element labels.

Matrix powers are taken in numpy int64 and reduced mod q after each product,
which is exact while m * q**2 < 2**63; the tuple matrices handed out are
hashable, since matrix groups close over them.
"""

from __future__ import annotations

import numpy as np

from .arith import factor, is_prime
from .errors import CapExceeded, OrderNotDividing

__all__ = [
    "find_irreducible",
    "multiplier",
    "digits",
    "undigits",
    "mat_identity",
    "mat_mul",
    "mat_det",
]

Poly = tuple[int, ...]  # ascending coefficients of a monic polynomial
Matrix = tuple[tuple[int, ...], ...]  # rows; column j = image of basis j


def digits(i, q: int, m: int) -> tuple:
    """The m base-q digits of i, least significant first.  For an integer
    array i, the m digit arrays."""
    out = []
    for _ in range(m):
        out.append(i % q)
        i //= q
    return tuple(out)


def undigits(v, q: int):
    """Inverse of digits: sum(v[i] * q**i), elementwise when the v[i] are
    arrays (the rows of an m x N array)."""
    i = 0
    for c in reversed(v):
        i = i * q + c
    return i


# ------------------------------------------------- small matrices over F_q


def mat_identity(m: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(m)) for r in range(m))


def mat_mul(q: int, a: Matrix, b: Matrix) -> Matrix:
    m = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(m)) % q for c in range(m))
        for r in range(m)
    )


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


def _mat_pow(q: int, a: np.ndarray, e: int) -> np.ndarray:
    out = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % q
        a = a @ a % q
        e >>= 1
    return out


def _companion(q: int, f: Poly) -> np.ndarray:
    """Matrix of y -> x*y mod f in the power basis: column j is x**(j+1)."""
    m = len(f) - 1
    if m * q * q >= 2**63:
        raise CapExceeded(f"F_{q}^{m}: products of {m} x {m} matrices overflow int64")
    c = np.eye(m, k=-1, dtype=np.int64)
    c[:, m - 1] = [-a % q for a in f[:m]]
    return c


# ------------------------------------------------------------------- the field


def _is_irreducible(q: int, f: Poly) -> bool:
    """Rabin's test on the companion matrix C of f: C**(q**m) = C, and
    C**(q**(m/r)) - C is invertible for each prime r | m."""
    m = len(f) - 1
    if m == 1:
        return True
    c = _companion(q, f)
    if not np.array_equal(_mat_pow(q, c, q**m), c):
        return False
    for r, _ in factor(m).factors:
        diff = (_mat_pow(q, c, q ** (m // r)) - c) % q
        if mat_det(q, diff.tolist()) == 0:
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
        if _is_irreducible(q, f):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


def multiplier(q: int, m: int, k: int) -> Matrix:
    """Matrix of multiplication by u**((q**m - 1)/k), which has exact
    multiplicative order k, for u the least element (by index) of order
    q**m - 1."""
    n = q**m - 1
    if k < 1 or n % k != 0:
        raise OrderNotDividing(f"{k} does not divide {n}")
    c = _companion(q, find_irreducible(q, m))
    powers = np.array([_mat_pow(q, c, j) for j in range(m)])  # C**0 .. C**(m-1)
    ident = np.eye(m, dtype=np.int64)
    prime_parts = [r for r, _ in factor(n).factors] if n > 1 else []
    for idx in range(1, n + 1):
        u = np.tensordot(digits(idx, q, m), powers, axes=1) % q
        if all(not np.array_equal(_mat_pow(q, u, n // r), ident) for r in prime_parts):
            return tuple(map(tuple, _mat_pow(q, u, n // k).tolist()))
    raise AssertionError("unreachable: F_q^m* is cyclic")
