"""Group catalog: a small spec grammar and concrete realizations.

Spec grammar (no whitespace):

    spec    := "cyclic:" NAT
             | "frob:" NAT "^" NAT ":" NAT        q ^ m : k, k | q^m - 1
             | "psl2:" NAT
             | "xsp:" NAT ":" NAT                 extraspecial p^(1+2n), exponent p (p odd)
             | "prod(" spec "," spec ")"
             | "named:" NAME
             | "affine:" NAT "^" NAT ":" MATLIST  translations of F_q^m plus given matrices
    MATLIST := matrices separated by ";", each m*m entries separated by ","
    NAME    := S3 | A4 | C5C4 | C11C5 | C7C6 | E8C7 | G72D | G72Q | A4A4

"prod(" nests at most MAX_PROD_NESTING deep; deeper input is a syntax error
rather than a recursion overflow in the parser or the realizations.

Realizations:

    cyclic  integers mod n
    frob    the affine group of F_q^m whose one matrix is ffield.multiplier:
            multiplication by a field element of order k, as a(C) for C the
            companion matrix of the least irreducible of degree m
    psl2    permutations of the projective line {0..p-1, inf}: z+1, -1/z, and
            u^2*z for the least primitive root u mod p
    xsp     tuples (a, b, c) in F_p^n x F_p^n x F_p with
            (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a.b')
    affine  permutations of the q^m vectors of F_q^m, numbered base q:
            translations by the unit vectors plus the given matrices
    prod    pairs acting componentwise

psl2, frob, affine and xsp groups also code their elements as
range(order): PSL2(p) by a determinant-1 matrix up to sign (_psl2_act), the
affine groups by (matrix, translation) (_realize_affine), xsp by its digits
(_xsp_act); products code pairs by their factors' positions
(groups.direct_product).  Groups of groups._CODES_FROM elements or more are
closed over the codes; cyclic groups and Cayley tables are not coded.

Realized orders are checked against the closed-form prediction at enumeration
time rather than trusted, and a spec predicted past the element cap is
refused before it is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import ffield
from .arith import is_prime, multiplicative_order, psl2_order
from .errors import CapExceeded, InvalidParam, SelfCheckFailed, SpecSyntaxError
from .groups import (
    DEFAULT_ELEMENT_CAP,
    GroupRealization,
    IndexTables,
    direct_product,
    index_tables,
)

__all__ = [
    "Cyclic",
    "Frob",
    "Psl2",
    "Xsp",
    "Affine",
    "Prod",
    "Named",
    "GroupSpec",
    "NamedWitness",
    "parse_spec",
    "spec_text",
    "expected_order",
    "realize",
    "named_underlying",
    "named_witnesses",
    "witnesses_for_degree",
]


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Frob:
    q: int
    m: int
    k: int  # order of the multiplier; k | q^m - 1


@dataclass(frozen=True)
class Psl2:
    p: int


@dataclass(frozen=True)
class Xsp:
    p: int
    n: int


@dataclass(frozen=True)
class Affine:
    q: int
    m: int
    mats: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class Prod:
    left: "GroupSpec"
    right: "GroupSpec"


@dataclass(frozen=True)
class Named:
    name: str


GroupSpec = Union[Cyclic, Frob, Psl2, Xsp, Affine, Prod, Named]


# ------------------------------------------------------------------- parsing


MAX_PROD_NESTING = 64


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, msg: str):
        raise SpecSyntaxError(msg, self.pos)

    def literal(self, lit: str) -> bool:
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.literal(lit):
            self.fail(f"expected {lit!r}")

    def nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        return int(self.text[start : self.pos])

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a name")
        return self.text[start : self.pos]

    def spec(self) -> GroupSpec:
        if self.literal("cyclic:"):
            return _check_cyclic(self.nat())
        if self.literal("frob:"):
            q = self.nat()
            self.expect("^")
            m = self.nat()
            self.expect(":")
            k = self.nat()
            return _check_frob(q, m, k)
        if self.literal("psl2:"):
            return _check_psl2(self.nat())
        if self.literal("xsp:"):
            p = self.nat()
            self.expect(":")
            n = self.nat()
            return _check_xsp(p, n)
        if self.literal("prod("):
            self.depth += 1
            if self.depth > MAX_PROD_NESTING:
                self.fail(f"prod( nested deeper than {MAX_PROD_NESTING}")
            left = self.spec()
            self.expect(",")
            right = self.spec()
            self.expect(")")
            self.depth -= 1
            return Prod(left, right)
        if self.literal("named:"):
            name = self.name()
            if name not in _NAMED:
                raise InvalidParam(f"unknown named group {name!r}")
            return Named(name)
        if self.literal("affine:"):
            q = self.nat()
            self.expect("^")
            m = self.nat()
            self.expect(":")
            mats = [self.matrix(q, m)]
            while self.literal(";"):
                mats.append(self.matrix(q, m))
            return _check_affine(q, m, tuple(mats))
        self.fail("expected a group spec")

    def matrix(self, q: int, m: int) -> tuple[tuple[int, ...], ...]:
        """Exactly m*m comma-separated entries, row-major."""
        entries = [self.nat()]
        for _ in range(m * m - 1):
            self.expect(",")
            entries.append(self.nat())
        return tuple(tuple(entries[r * m : (r + 1) * m]) for r in range(m))


def parse_spec(text: str) -> GroupSpec:
    p = _Parser(text)
    spec = p.spec()
    if p.pos != len(text):
        p.fail("trailing input")
    return spec


def _check_cyclic(n: int) -> Cyclic:
    if n < 1:
        raise InvalidParam("cyclic order must be >= 1")
    return Cyclic(n)


def _check_frob(q: int, m: int, k: int) -> Frob:
    if not is_prime(q):
        raise InvalidParam(f"frob base {q} is not prime")
    if m < 1:
        raise InvalidParam("frob exponent must be >= 1")
    if k < 2:
        raise InvalidParam("frob multiplier order must be >= 2")
    if (q**m - 1) % k != 0:
        raise InvalidParam(f"{k} does not divide {q}^{m} - 1 = {q**m - 1}")
    return Frob(q, m, k)


def _check_psl2(p: int) -> Psl2:
    if not is_prime(p):
        raise InvalidParam(f"psl2 parameter {p} is not prime")
    return Psl2(p)


def _check_xsp(p: int, n: int) -> Xsp:
    if not is_prime(p):
        raise InvalidParam(f"xsp parameter {p} is not prime")
    if n < 1:
        raise InvalidParam("xsp rank must be >= 1")
    return Xsp(p, n)


def _check_affine(q, m, mats) -> Affine:
    if not is_prime(q):
        raise InvalidParam(f"affine base {q} is not prime")
    if m < 1:
        raise InvalidParam("affine dimension must be >= 1")
    for mat in mats:
        for row in mat:
            for e in row:
                if not 0 <= e < q:
                    raise InvalidParam(f"matrix entry {e} out of range mod {q}")
        if ffield.mat_det(q, mat) == 0:
            raise InvalidParam(f"matrix {mat} is singular mod {q}")
    return Affine(q, m, mats)


def spec_text(spec: GroupSpec) -> str:
    """Canonical text; parse_spec(spec_text(s)) == s."""
    match spec:
        case Cyclic(n):
            return f"cyclic:{n}"
        case Frob(q, m, k):
            return f"frob:{q}^{m}:{k}"
        case Psl2(p):
            return f"psl2:{p}"
        case Xsp(p, n):
            return f"xsp:{p}:{n}"
        case Affine(q, m, mats):
            body = ";".join(
                ",".join(str(e) for row in mat for e in row) for mat in mats
            )
            return f"affine:{q}^{m}:{body}"
        case Prod(left, right):
            return f"prod({spec_text(left)},{spec_text(right)})"
        case Named(name):
            return f"named:{name}"
    raise TypeError(f"not a GroupSpec: {spec!r}")


# -------------------------------------------------------------- realizations


def _matrix_group(q, m, mats) -> GroupRealization:
    """The matrices under multiplication mod q, for closure and element
    orders."""
    return GroupRealization(
        identity=ffield.mat_identity(m),
        multiply=functools.partial(ffield.mat_mul, q),
        generators=mats,
        descriptor=f"matrix group over F_{q}",
    )


def expected_order(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    match spec:
        case Cyclic(n):
            return n
        case Frob(q, m, k):
            return q**m * k
        case Psl2(p):
            return psl2_order(p)
        case Xsp(p, n):
            return p ** (2 * n + 1)
        case Affine(q, m, mats):
            return _affine_order(q, m, _matrix_group(q, m, mats), cap)
        case Prod(left, right):
            return expected_order(left, cap) * expected_order(right, cap)
        case Named(name):
            return _NAMED[name][1]
    raise TypeError(f"not a GroupSpec: {spec!r}")


def _affine_order(q: int, m: int, matrices: GroupRealization, cap: int) -> int:
    """q^m times the order of the matrix group.  It closes the matrices, not
    the points, so the order of the point action realized from them is
    checked against a count of its own."""
    pts = q**m
    return pts * len(index_tables(matrices, max(1, cap // pts)))


def _perm_realization(images_list, descriptor, order, coding):
    """Permutations as image tuples, multiplied as maps (a·b)(x) = a(b(x)),
    with coding(cap) giving act over the codes range(order)."""

    def mul(a, b):
        return tuple([a[x] for x in b])

    return GroupRealization(
        identity=tuple(range(len(images_list[0]))),
        multiply=mul,
        generators=[tuple(p) for p in images_list],
        descriptor=descriptor,
        expected_order=order,
        coding=coding,
    )


def _realize_cyclic(spec: Cyclic) -> GroupRealization:
    n = spec.n
    return GroupRealization(
        identity=0,
        multiply=lambda a, b: (a + b) % n,
        generators=[1 % n],
        descriptor=spec_text(spec),
        expected_order=n,
    )


def _realize_frob(spec: Frob, order: int) -> GroupRealization:
    """The affine group of F_q^m whose one matrix multiplies by an element of
    order k."""
    a = ffield.multiplier(spec.q, spec.m, spec.k)
    matrices = _matrix_group(spec.q, spec.m, (a,))
    return _realize_affine(spec.q, spec.m, matrices, order, spec_text(spec))


def _realize_psl2(spec: Psl2) -> GroupRealization:
    p = spec.p
    inf = p  # projective point at infinity
    pts = range(p + 1)
    if p == 2:
        u = 1
    else:
        u = next(v for v in range(2, p) if multiplicative_order(v, p) == p - 1)
    uu = u * u % p

    def s_img(z):
        if z == inf:
            return 0
        if z == 0:
            return inf
        return (-pow(z, p - 2, p)) % p

    t = [inf if z == inf else (z + 1) % p for z in pts]
    s = [s_img(z) for z in pts]
    d = [inf if z == inf else z * uu % p for z in pts]
    # the same maps as Moebius matrices: z+1, -1/z and uz/u^-1
    mats = np.array([[1, 1, 0, 1], [0, p - 1, 1, 0], [u, 0, 0, pow(u, p - 2, p)]])
    order = psl2_order(p)
    return _perm_realization(
        [t, s, d], spec_text(spec), order, lambda _cap: _psl2_act(p, mats)
    )


def _psl2_act(p: int, gens: np.ndarray):
    """Right multiplication on the codes of PSL2(p): (a b; c d) of
    determinant 1, up to sign, with a (or b when a = 0) in 1..p//2.  With
    h = p//2, a != 0 has code ((a-1)p + b)p + c, since a, b and c fix
    d = (1 + bc)/a, and a = 0 has code hp^2 + (b-1)p + d, since c = -1/b.
    So the identity is 0 and the codes are range(|PSL2(p)|).  gens holds
    the generators' entries (a, b, c, d) as rows.

    A product multiplies each row of the matrix by the generator, one
    lookup among the p^2 row vectors (x, y), numbered xp + y; the product's
    code is looked up by (a, b, and c or d), numbered (ap + b)p + c or d."""
    h = p // 2
    r = np.arange(p)
    neg = -r % p
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    a, b, c = r[1 : h + 1, None, None], r[:, None], r  # codes below hp^2
    d = (1 + b * c) * inv[a] % p
    bb, dd = r[1 : h + 1, None], r  # codes from hp^2 on
    cc = neg[inv[bb]]
    upper = np.concatenate([np.broadcast_to(a * p + b, d.shape).ravel(), np.repeat(bb, p)])
    lower = np.concatenate([(c * p + d).ravel(), (cc * p + dd).ravel()])
    code_at = np.zeros(p**3, dtype=np.intp)
    top = h * p * p
    code_at[p * p : top + p * p] = np.arange(top)
    code_at[((p - a) * p + neg[b]) * p + neg[c]] = np.arange(top).reshape(d.shape)
    code_at[p : (h + 1) * p] = np.arange(top, upper.size)
    code_at[neg[bb] * p + neg[dd]] = np.arange(top, upper.size).reshape(h, p)
    x, y = r[:, None, None], r[:, None]
    g0, g1, g2, g3 = gens.T
    times = ((x * g0 + y * g2) % p * p + (x * g1 + y * g3) % p).reshape(p * p, -1)

    def act(codes):
        ab = times[upper[codes]]
        c, d = np.divmod(times[lower[codes]], p)
        return code_at[ab * p + np.where(ab >= p, c, d)]

    return act


def _realize_xsp(spec: Xsp) -> GroupRealization:
    p, n = spec.p, spec.n

    def mul(x, y):
        dot = sum(x[i] * y[n + i] for i in range(n))
        return tuple(
            (a + b) % p for a, b in zip(x[: 2 * n], y[: 2 * n])
        ) + ((x[2 * n] + y[2 * n] + dot) % p,)

    gens = []
    for j in range(2 * n):
        g = [0] * (2 * n + 1)
        g[j] = 1
        gens.append(tuple(g))
    return GroupRealization(
        identity=(0,) * (2 * n + 1),
        multiply=mul,
        generators=gens,
        descriptor=spec_text(spec),
        expected_order=p ** (2 * n + 1),
        coding=lambda _cap: _xsp_act(p, n),
    )


def _xsp_act(p: int, n: int):
    """Right multiplication on the codes of xsp: (a, b, c) has the base-p
    digits a_1..a_n, b_1..b_n, c, lowest first, so the identity is 0 and
    the codes are range(p^(2n+1)).  The generator a_j adds 1 to digit a_j;
    b_j adds 1 to digit b_j and a_j to digit c."""
    places = p ** np.arange(2 * n + 1)
    top = places[-1]

    def act(codes):
        digit = codes[:, None] // places % p
        out = codes[:, None] + np.where(digit[:, :-1] == p - 1, 1 - p, 1) * places[:-1]
        c = digit[:, -1:]
        out[:, n:] += ((c + digit[:, :n]) % p - c) * top
        return out

    return act


def _realize_affine(
    q: int, m: int, matrices: GroupRealization, order: int, descriptor: str
) -> GroupRealization:
    """Permutations of the q^m vectors of F_q^m, numbered by ffield.undigits:
    translations by the unit vectors, then the matrices' generators.  Each
    generator is one product over the m x q^m array whose column i is
    digits(i).

    The element v -> Av + b has code (position of A in the matrices'
    closure)·q^m + (the number of b), so the identity is 0 and the codes are
    range(order).  Right multiplication by the translation e_j takes b to
    b + A e_j, and by the matrix M takes A to AM."""
    mats = matrices.generators
    vecs = np.array(ffield.digits(np.arange(q**m), q, m))
    unit = np.eye(m, dtype=np.int64)
    images = [(vecs + unit[:, [j]]) % q for j in range(m)]
    images += [np.array(mat) @ vecs % q for mat in mats]
    return _perm_realization(
        [ffield.undigits(v, q).tolist() for v in images],
        descriptor,
        order,
        lambda _cap: _affine_act(q, m, index_tables(matrices)),
    )


def _affine_act(q: int, m: int, mt: IndexTables):
    """Right multiplication on the codes of _realize_affine, given the index
    tables of the matrix group."""
    size = q**m
    places = q ** np.arange(m)
    dt = np.min_scalar_type(2 * q - 2)
    cols = np.array(mt.elements, dtype=dt).transpose(0, 2, 1)  # cols[A, j] = A e_j
    by_matrix = mt.right.T * size  # by_matrix[A, k] = code of (A M_k, 0)
    if q == 2:  # digitwise sums mod 2 are xor
        col_codes = cols @ places

        def translated(a, v):
            return v[:, None] ^ col_codes[a]

    else:
        vec_digits = np.array(ffield.digits(np.arange(size), q, m), dtype=dt).T

        def translated(a, v):  # (k, j) -> number of v + A e_j
            return (vec_digits[v][:, None, :] + cols[a]) % q @ places

    def act(codes):
        a, v = np.divmod(codes, size)
        out = np.empty((len(codes), m + by_matrix.shape[1]), dtype=np.intp)
        out[:, :m] = translated(a, v)
        out[:, :m] += (codes - v)[:, None]
        out[:, m:] = by_matrix[a] + v[:, None]
        return out

    return act


def realize(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> GroupRealization:
    """Build a concrete realization; the order is validated when enumerated.

    A spec whose predicted order exceeds cap is refused before anything is
    built, since enumerating it would allocate every element first.
    """
    if isinstance(spec, Affine):  # one closure of the matrices counts and codes
        matrices = _matrix_group(spec.q, spec.m, spec.mats)
        order = _affine_order(spec.q, spec.m, matrices, cap)
    else:
        order = expected_order(spec, cap)
    if order > cap:
        raise CapExceeded(f"{spec_text(spec)}: order {order} exceeds cap {cap}")
    match spec:
        case Cyclic():
            return _realize_cyclic(spec)
        case Frob():
            return _realize_frob(spec, order)
        case Psl2():
            return _realize_psl2(spec)
        case Xsp():
            return _realize_xsp(spec)
        case Affine(q, m):
            return _realize_affine(q, m, matrices, order, spec_text(spec))
        case Prod(left, right):  # a square's one factor is realized and closed once
            g = realize(left, cap)
            return direct_product(g, g if right == left else realize(right, cap))
        case Named(name):
            return _realize_named(name, cap)
    raise TypeError(f"not a GroupSpec: {spec!r}")


# ---------------------------------------------------------------- named table

_D8_MATS = (((0, 2), (1, 0)), ((1, 0), (0, 2)))  # rotation of order 4, reflection
_Q8_MATS = (((0, 2), (1, 0)), ((1, 1), (1, 2)))  # i and j; both squares are -I

# name -> (underlying spec, order, an irreducible degree the entry affords)
_NAMED: dict[str, tuple[GroupSpec, int, int]] = {
    "S3": (Affine(3, 1, (((2,),),)), 6, 2),
    "A4": (Affine(2, 2, (((0, 1), (1, 1)),)), 12, 3),
    "C5C4": (Affine(5, 1, (((2,),),)), 20, 4),
    "C11C5": (Frob(11, 1, 5), 55, 5),
    "C7C6": (Affine(7, 1, (((3,),),)), 42, 6),
    "E8C7": (Frob(2, 3, 7), 56, 7),
    "G72D": (Affine(3, 2, _D8_MATS), 72, 4),
    "G72Q": (Affine(3, 2, _Q8_MATS), 72, 8),
    "A4A4": (Prod(Named("A4"), Named("A4")), 144, 9),
}

# degree -> entries once put forward for it that do not afford it.  They stay
# among that degree's witnesses so each report re-checks and refutes them:
# D8 has no regular orbit on the 8 non-trivial characters of (C_3)^2, so
# G72D's top degree is 4, not 8.
_REFUTED_CLAIMS: dict[int, tuple[str, ...]] = {8: ("G72D",)}

# complement order profiles checked when the order-72 witnesses are built
_D8_PROFILE = (1, 2, 2, 2, 2, 2, 4, 4)
_Q8_PROFILE = (1, 2, 4, 4, 4, 4, 4, 4)


def _check_complement(name: str) -> GroupRealization:
    """The order-72 witnesses carry their complement structure as a claim;
    returns the complement, closed."""
    mats = _D8_MATS if name == "G72D" else _Q8_MATS
    want = _D8_PROFILE if name == "G72D" else _Q8_PROFILE
    g = _matrix_group(3, 2, mats)
    t = index_tables(g, 1024)
    got = tuple(sorted(map(t.order, range(len(t)))))
    if got != want:
        raise SelfCheckFailed(f"{name}: complement order profile {got} != {want}")
    if name == "G72Q":
        for mat in mats:
            if ffield.mat_det(3, mat) != 1:
                raise SelfCheckFailed(f"{name}: generator {mat} not in SL2(3)")
    return g


def _realize_named(name: str, cap: int) -> GroupRealization:
    spec, order, _claim = _NAMED[name]
    if name in ("G72D", "G72Q"):
        # the complement's one closure also predicts the order, as
        # expected_order(spec) would by closing the same matrices again, and
        # codes the elements
        matrices = _check_complement(name)
        predicted = _affine_order(spec.q, spec.m, matrices, cap)
        g = _realize_affine(spec.q, spec.m, matrices, predicted, spec_text(spec))
    else:
        g = realize(spec, cap)
    g.descriptor = f"named:{name}"
    if g.expected_order is not None and g.expected_order != order:
        raise SelfCheckFailed(
            f"named:{name}: catalog order {order} != predicted {g.expected_order}"
        )
    g.expected_order = order
    return g


@dataclass(frozen=True)
class NamedWitness:
    name: str
    spec: GroupSpec
    expected_order: int
    degree_claim: int


def named_underlying(name: str) -> GroupSpec:
    """The construction behind a named entry (e.g. the affine matrices)."""
    if name not in _NAMED:
        raise InvalidParam(f"unknown named group {name!r}")
    return _NAMED[name][0]


def named_witnesses() -> list[NamedWitness]:
    return [
        NamedWitness(name, Named(name), order, claim)
        for name, (_, order, claim) in _NAMED.items()
    ]


def witnesses_for_degree(n: int) -> list[NamedWitness]:
    """Entries put forward for degree n, refuted claims included."""
    refuted = _REFUTED_CLAIMS.get(n, ())
    return [w for w in named_witnesses() if w.degree_claim == n or w.name in refuted]
