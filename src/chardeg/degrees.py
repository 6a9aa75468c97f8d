"""Irreducible character degrees by the modular eigenvector method.

The degree multiset of a finite group is computed from first principles:

  1. conjugacy classes as orbits of conjugation over the closure's element
     positions, each numbered by its first-discovered member, which is its
     representative (class 0 = identity),
  2. class-algebra structure constants a_{ijk} = #{(x,y) in C_i x C_j :
     xy = z} for fixed z in C_k, one matrix M_i = (a_{ijk})_{jk} per class,
     built only at the split's pivot rows, each read off a column,
  3. a prime modulus l ≡ 1 (mod exp(G)) with l > |G|, so exp(G)-th roots of
     unity exist mod l and every degree square is recovered exactly from its
     residue; exp(G) comes from one walk of powers (ClassData.cover),
  4. each class's coset of the derived subgroup G′, the cosets being the
     finest partition coarser than the classes that right multiplication
     by each generator maps block to block, joined from the classes in
     numpy until a round joins nothing (see _derived_cosets):
     the |G:G′| linear characters are those of G/G′, so their degrees are 1,
     and every other chi has central character values summing to zero over
     each coset, so those vectors span W = {v : the coordinates of each
     coset sum to zero}, of dimension r − |G:G′|,
  5. simultaneous eigenspaces of the commuting M_i on W over F_l: each
     common eigenvector, normalized to coordinate 1 at the identity class,
     is the vector of central character values w_i = |C_i| chi(g_i) / chi(1);
     M_i splits each subspace in one Krylov pass (see _eigenspaces),
  6. sum_i w_i w_{i'} / |C_i| = |G| / chi(1)^2 then recovers each non-linear
     degree.

Closed-form multisets for Frobenius groups, extraspecial groups, and direct
products are provided as independent cross-checks of the same quantities.
Eigen-splitting is deterministic: it starts from W's reduced row echelon
basis, consumes the central classes (size 1) first and then the others,
each in ascending class index, takes eigenvalues in ascending residue
order, and keeps subspace bases in reduced row echelon form, which are
unique: the pseudo-random rows a Krylov pass starts from change nothing.  A
central z acts on the characters by their central character, so it is a
cheap matrix that separates them early; a power of an earlier central z
separates nothing more, and is skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from math import isqrt, lcm

import numpy as np

from .arith import is_prime
from .errors import (
    CapExceeded,
    InvalidParam,
    NotPerfectSquare,
    OrderNotDividing,
    SelfCheckFailed,
    SumOfSquaresMismatch,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    GroupRealization,
    IndexTables,
    index_tables,
)

__all__ = [
    "ClassData",
    "DegreeMultiset",
    "DEFAULT_CLASS_CAP",
    "conjugacy_classes",
    "class_matrix",
    "dixon_modulus",
    "character_degrees",
    "frobenius_degrees_closed_form",
    "extraspecial_degrees_closed_form",
    "product_degrees",
]

DEFAULT_CLASS_CAP = 500
# Entry budget for class_matrix's temporary arrays: representatives are
# walked in column blocks so that members x block stays under it.
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes over positions in the index tables they carry
    (see groups.IndexTables).

    class_at is the intp array of the class of each position.  Classes are
    numbered in the order their first members were discovered, and reps is
    the intp array of those first members' positions, each its class's
    representative, so class 0 is the identity.  The facts read off powers
    (cover, inverse_class) are walked on first use.
    """

    sizes: tuple[int, ...]
    class_at: np.ndarray = field(compare=False, repr=False)
    reps: np.ndarray = field(compare=False, repr=False)
    tables: IndexTables = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.sizes)

    def members(self, k: int) -> np.ndarray:
        """The positions of class k, ascending."""
        return np.flatnonzero(self.class_at == k)

    @cached_property
    def rep_words(self) -> tuple[np.ndarray, list[int]]:
        """Generator words of the representatives in the closure's tree,
        aligned at their ends.

        Returns (gens, walking): row k of gens is the word of reps[k],
        padded on the left with -1 to the longest word's length, and
        walking[c] = how many words have a step in column c.  The closure
        is breadth-first and each rep is its class's first-discovered
        member, so word lengths never go down as k rises: the words with a
        step in column c are the last walking[c] rows of gens.  gens (int8
        below 128 generators) is as wide as the last word and filled up the
        tree for all representatives at once, last step first.
        """
        parent, via = self.tables.parent, self.tables.via
        width = len(self.tables.word(int(self.reps[-1])))
        gens = np.empty((self.count, width), np.int8 if len(self.tables.right) < 128 else np.intp)
        x = self.reps
        for c in range(width - 1, -1, -1):
            gens[:, c] = via[x]
            x = np.maximum(parent[x], 0)
        return gens, np.count_nonzero(gens >= 0, axis=0).tolist()

    @cached_property
    def cover(self) -> tuple[dict[int, list[int]], list[tuple[int, int]]]:
        """(walked, at): walked maps class i to the classes of y, y², ...,
        y^o = 1 for y = reps[i], and class k holds y^j for (i, j) = at[k].
        The representatives are walked in ascending order, skipping one whose
        class holds a power of a walked one (its order divides that one's),
        so every class holds a walked power.  Each walked order divides |G|."""
        n, class_at = sum(self.sizes), memoryview(self.class_at)
        walked, at = {}, [None] * self.count
        for i, x in enumerate(self.reps.tolist()):
            if at[i] is None:
                ys = walked[i] = [class_at[y] for y in self.tables.powers(x)]
                if n % len(ys):
                    raise SelfCheckFailed(f"position {x} has order {len(ys)}, not dividing {n}")
                for j, k in enumerate(ys, 1):
                    if at[k] is None:
                        at[k] = (i, j)
        return walked, at

    @cached_property
    def inverse_class(self) -> tuple[int, ...]:
        """The class of the inverses of each class's members, read off the
        cover: class k holds y^j for (i, j) = at[k], so its inverses are
        conjugate to y^(o−j), o = |y|, whose class is walked[i][o − j − 1]
        (the identity's, at j = o, is the last).  The map must be an
        involution that keeps class sizes."""
        walked, at = self.cover
        inv = tuple([walked[i][len(walked[i]) - j - 1] for i, j in at])
        for i, j in enumerate(inv):
            if inv[j] != i or self.sizes[j] != self.sizes[i]:
                raise SelfCheckFailed("inverse-class map is not a size-preserving involution")
        return inv


@dataclass(frozen=True)
class DegreeMultiset:
    degrees: tuple[int, ...]
    group_order: int

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))
        mass = sum(d * d for d in self.degrees)
        if mass != self.group_order:
            raise SumOfSquaresMismatch(
                f"sum of degree squares {mass} != group order {self.group_order}"
            )
        if not self.degrees or self.degrees[0] != 1:
            raise SelfCheckFailed("no linear character in degree multiset")
        for d in self.degrees:
            if self.group_order % d != 0:
                raise SelfCheckFailed(f"degree {d} does not divide {self.group_order}")


# ------------------------------------------------------------------- classes


def conjugacy_classes(
    g: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP
) -> ClassData:
    """Orbits of conjugation by the generators, walked over element positions.

    h⁻¹·x·h is right[h][left[x]], where left[x] is the position of h⁻¹·x.
    left is filled along the closure's tree from left[0] = h⁻¹, the x with
    x·h = 1, since h⁻¹·(p·s) = (h⁻¹·p)·s, so no group multiplication is
    needed.  No inverse is walked: inverse classes are read off the cover
    when a class matrix or a norm needs them (ClassData.inverse_class).

    A closure over codes (a coded group of groups._CODES_FROM elements or
    more) is walked a breadth-first level at a time in numpy
    (_level_classes).  A closure by multiply (smaller groups, Cayley tables
    and cyclic:n, whose levels hold one position each) is walked in Python
    over list copies of its tables (_walk_classes): there a level's fixed
    numpy cost would exceed its work.  Both give the same classes.
    """
    t = index_tables(g, cap)
    walk = _walk_classes if t.elements is not None else _level_classes
    cd = ClassData(*walk(t), tables=t)
    if sum(cd.sizes) != len(t):
        raise SelfCheckFailed("class sizes do not partition the group")
    if cd.reps[0] != 0 or cd.sizes[0] != 1:  # position 0 is the identity
        raise SelfCheckFailed("class 0 is not the identity singleton")
    return cd


def _walk_classes(t: IndexTables):
    """(sizes, class_at, reps), one position at a time."""
    right, parent, via = t.right.tolist(), t.parent.tolist(), t.via.tolist()
    n = len(t)
    conj = []  # conj[j][x] = position of g_j⁻¹ · x · g_j
    for col in right:
        left = [0] * n  # left[x] = position of g_j⁻¹ · x
        left[0] = col.index(0)
        for x in range(1, n):
            left[x] = right[via[x]][left[parent[x]]]
        conj.append([col[y] for y in left])
    class_at = [-1] * n
    reps, sizes = [], []
    for x in range(n):  # classes are numbered by their first member
        if class_at[x] >= 0:
            continue
        class_at[x] = len(reps)
        orbit = [x]
        for y in orbit:  # orbit grows while it is walked
            for perm in conj:
                z = perm[y]
                if class_at[z] < 0:
                    class_at[z] = len(reps)
                    orbit.append(z)
        reps.append(x)
        sizes.append(len(orbit))
    return tuple(sizes), np.array(class_at, dtype=np.intp), np.array(reps, dtype=np.intp)


def _level_classes(t: IndexTables):
    """(sizes, class_at, reps), a breadth-first level at a time.

    parent is non-decreasing, so the level after positions [a, b) is [b, c)
    with c the first position whose parent is b or more.  A generator's row
    left of positions g⁻¹·x is one gather per level.  The classes are the
    orbits of the conjugations x ↦ g⁻¹·x·g, made one generator at a time as
    _orbits consumes them, so each class is numbered by its least,
    first-discovered, position.
    """
    right, parent, via = t.right, t.parent, t.via
    n = right.shape[1]
    ends = [1]
    while ends[-1] < n:
        ends.append(int(np.searchsorted(parent, ends[-1])))
    # positions [a, b), their parents and their generators
    levels = [(a, b, parent[a:b], via[a:b]) for a, b in zip(ends, ends[1:])]

    def conjugations():
        for row in right:
            left = np.empty(n, dtype=np.intp)  # left[x] = position of g⁻¹·x
            left[0] = np.argmax(row == 0)
            for a, b, up, gens in levels:
                left[a:b] = right[gens, left[up]]
            left = row[left]  # rebound, so that only the conjugation stays alive
            yield left

    class_at, reps = _orbits(n, conjugations())
    return tuple(np.bincount(class_at).tolist()), class_at, reps


def _orbits(n: int, perms) -> tuple[np.ndarray, np.ndarray]:
    """(at, firsts): the orbit at[x] of each x in range(n) under the
    permutations perms (intp arrays, each joined by _join before the next
    is made), numbered by their least members, which firsts holds, ascending."""
    root = np.arange(n)
    for perm in perms:
        _join(root, np.arange(n), perm)
        del perm  # free before the next permutation is made
    first = root == np.arange(n)
    return (np.cumsum(first) - 1)[root], np.flatnonzero(first)


def _join(root: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Join every pair (x[i], y[i]) in the forest root, in place.

    Every pointer goes to a smaller index, and every tree has height one
    (root[root] = root): each pair whose ends have two roots points the
    larger root at the smaller, and pointer jumping flattens the forest,
    until every pair shares its root.  Joining only merges trees, so pairs
    joined earlier stay joined, and each root is its tree's least member.
    """
    while True:
        rx, ry = root[x], root[y]
        apart = rx != ry
        if not apart.any():
            return
        rx, ry = rx[apart], ry[apart]
        root[np.maximum(rx, ry)] = np.minimum(rx, ry)
        del rx, ry  # the arrays of pairs are the walk's largest
        x, y = x[apart], y[apart]  # pairs once joined stay joined
        while True:
            up = root[root]
            if (up == root).all():
                break
            root[:] = up
            del up  # so that root and one jump are alive at a time


def class_matrix(cd: ClassData, i: int, rows=None) -> np.ndarray:
    """Rows `rows` of M_i (all of them if None) as an int64 array:
    a[j][k] = #{(x, y) in C_i x C_j : xy = z_k}.

    y = x⁻¹ z_k, and x⁻¹ runs over C_{i'} as x runs over C_i, so column k
    counts the classes of w·z_k for w in C_{i'}.  w·z_k is reached from w by
    right multiplications along z_k's generator word in the closure's tree:
    v has one row per walked column, ascending, so the ones still walking
    at a word step are a suffix of v (words align at their ends), and the
    step is one in-place gather of it from the flat index tables.  Row j is
    column j′ read through a_{ijk}·|C_k| = a_{ik′j′}·|C_j| (class sums
    commute, and yx = z iff x·z⁻¹ = y⁻¹), so only the columns j′ are walked,
    and divided exactly in int64 while |G|² < 2⁶³, as a_{ik′j′} ≤ |C_i|."""
    r = cd.count
    inv = np.array(cd.inverse_class)
    rows = np.arange(r) if rows is None else np.asarray(rows, dtype=np.intp)
    need = inv[rows]
    cols = np.flatnonzero(np.bincount(need, minlength=r))  # ascending, so words never get shorter
    gens, walking = cd.rep_words
    first = np.searchsorted(cols, r - np.array(walking)).tolist()
    right = cd.tables.right
    steps = gens[cols].astype(np.intp) * right.shape[1]  # int8 times n would wrap
    ws = cd.members(cd.inverse_class[i])
    block = max(1, _BLOCK_ENTRIES // len(ws))
    counts = np.empty((len(cols), r), dtype=np.int64)  # counts[t, k] = a_{i k cols[t]}
    for b0 in range(0, len(cols), block):
        b1 = min(len(cols), b0 + block)
        v = np.repeat(ws[None, :], b1 - b0, axis=0)  # v[t] walks column cols[b0 + t]
        for c, a in enumerate(first):
            a = max(b0, a)  # the block's columns from a on have a step in c
            if a < b1:
                v[a - b0 :] += steps[a:b1, c, None]
                np.take(right.ravel(), v[a - b0 :], out=v[a - b0 :])
        flat = np.arange(b1 - b0)[:, None] * r + cd.class_at[v]
        counts[b0:b1] = np.bincount(flat.ravel(), minlength=(b1 - b0) * r).reshape(-1, r)
    sizes = np.array(cd.sizes, dtype=np.int64)
    out, rem = np.divmod(counts[np.searchsorted(cols, need)][:, inv] * sizes[rows, None], sizes)
    if rem.any():
        raise SelfCheckFailed("class matrix entry not divisible by its class size")
    return out


def dixon_modulus(cd: ClassData) -> int:
    """Least prime l ≡ 1 (mod exp(G)) with l > |G|.

    exp(G) is the lcm of the orders the cover walks (ClassData.cover): every
    class holds a power of a walked representative, and element order is a
    class invariant.
    """
    order = sum(cd.sizes)
    e = lcm(*map(len, cd.cover[0].values()))
    v = e + 1
    while v <= order or not is_prime(v):
        v += e
    return v


def _derived_cosets(cd: ClassData) -> tuple[int, np.ndarray]:
    """|G′| and the coset of G′ of each position, G′ itself being coset 0.

    The cosets are the finest partition coarser than the classes that right
    multiplication by each generator maps block to block.  They are one
    such partition; and in any, the block N of 1 is a subgroup whose cosets
    are the blocks, normal as a union of classes, holding every commutator
    as x and x^g share a block, so N ⊇ G′.  The blocks start as the
    classes; a round joins (_join), for each generator, each block's images
    to the image some[b] of one member, the pairs deduplicated when the m²
    possible ones are fewer, until a round joins nothing or one block
    (G′ = G) is left.  Blocks are numbered by their least classes, which
    hold their least positions.
    """
    n, block, m = len(cd.tables), cd.class_at, cd.count
    while m > 1:
        root = np.arange(m)
        for row in cd.tables.right:
            image = block[row]
            some = np.empty(m, dtype=np.intp)
            some[block] = image
            apart = some[block] != image
            x, y = some[block[apart]], image[apart]
            if m * m <= len(x):
                x, y = np.divmod(np.flatnonzero(np.bincount(x * m + y, minlength=m * m)), m)
            _join(root, x, y)
            if not root.any():
                return n, np.zeros(n, dtype=np.intp)
        first = root == np.arange(m)
        if first.all():
            break
        block = (np.cumsum(first) - 1)[root][block]
        m = int(np.count_nonzero(first))
    return n // m, block


# ------------------------------------------------- modular linear algebra


def _rref(a: np.ndarray, l: int):
    """Reduced row echelon form mod l; returns (nonzero rows, pivot columns).

    A column with no nonzero entry at or below row r is jumped over by one
    scan of the remaining block.  Each pivot clears its column only in the
    rows where that column is nonzero, and only over the columns from the
    pivot on, since the pivot row is zero to its left.
    """
    a = a % l
    rows, cols = a.shape
    piv = []
    c = 0
    for r in range(rows):
        if c == cols:
            break
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            live = a[r:, c:].any(axis=0).nonzero()[0]
            if not live.size:
                break
            c += int(live[0])
            nz = a[r:, c].nonzero()[0]
        p = r + int(nz[0])
        if p != r:
            a[[r, p], c:] = a[[p, r], c:]
        row = a[r, c:]
        row *= pow(int(row[0]), l - 2, l)
        row %= l
        f = a[:, c].copy()
        f[r] = 0
        hit = f.nonzero()[0]
        if hit.size:
            sub = a[hit, c:]
            sub -= sub[:, :1] * row
            sub %= l
            a[hit, c:] = sub
        piv.append(c)
        c += 1
    return a[: len(piv)], piv


def _hessenberg(a: np.ndarray, l: int) -> np.ndarray:
    """Similarity-reduce to upper Hessenberg form mod l."""
    a = a % l
    n = a.shape[0]
    for c in range(n - 2):
        nz = np.nonzero(a[c + 1 :, c])[0]
        if nz.size == 0:
            continue
        p = c + 1 + int(nz[0])
        if p != c + 1:
            a[[c + 1, p]] = a[[p, c + 1]]
            a[:, [c + 1, p]] = a[:, [p, c + 1]]
        # rows c+2.. lose f·row c+1, then column c+1 gains f·their columns
        f = a[c + 2 :, c] * pow(int(a[c + 1, c]), l - 2, l) % l
        a[c + 2 :] = (a[c + 2 :] - f[:, None] * a[c + 1]) % l
        a[:, c + 1] = (a[:, c + 1] + a[:, c + 2 :] @ f) % l
    return a


def _charpoly(h: np.ndarray, l: int) -> np.ndarray:
    """Coefficients of det(xI - H) for upper Hessenberg H, ascending in x."""
    n = h.shape[0]
    polys = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        pm = np.zeros(m + 1, dtype=np.int64)
        pm[1:] += prev
        pm[:m] = (pm[:m] - int(h[m - 1, m - 1]) * prev) % l
        prod = 1
        for i in range(1, m):
            prod = prod * int(h[m - i, m - i - 1]) % l
            if prod == 0:
                break
            coef = int(h[m - 1 - i, m - 1]) * prod % l
            if coef:
                pm[: m - i] = (pm[: m - i] - coef * polys[m - 1 - i]) % l
        polys.append(pm % l)
    return polys[n]


def _poly_roots(poly: list[int], l: int) -> np.ndarray:
    """All roots in F_l, ascending: in-place uint64 Horner passes over every
    residue, reduced mod l every `lazy` steps and at the end.  t ≤ lazy =
    ⌊64/b⌋ − 1 steps from below l stay below l^(t+1) ≤ 2⁶⁴, b the bits of l − 1."""
    assert l < 1 << 32  # as the split's guard r·(l − 1)² < 2⁶³ implies
    lazy = 64 // (l - 1).bit_length() - 1
    xs = np.arange(l, dtype=np.uint64)
    vals = np.full(l, poly[-1], dtype=np.uint64)
    for t, c in enumerate(poly[-2::-1], 1):
        vals *= xs
        vals += c
        if t % lazy == 0 or t == len(poly) - 1:
            vals %= l
    return np.flatnonzero(vals == 0)


def _poly_divmod(a: list[int], b: list[int], l: int):
    """Quotient and remainder of a by b over F_l, as lists of coefficients,
    ascending; b's top one is nonzero, and so is the remainder's."""
    a, db, inv = list(a), len(b) - 1, pow(b[-1], l - 2, l)
    q = [0] * (len(a) - db)
    for t in range(len(a) - 1, db - 1, -1):
        q[t - db] = f = a[t] * inv % l
        for i in range(db):
            a[t - db + i] = (a[t - db + i] - f * b[i]) % l
    while len(a) > db or a and not a[-1]:  # the remainder, without zeros on top
        a.pop()
    return q, a


def _squarefree(cp: list[int], l: int):
    """(g, h) for monic cp over F_l: h = gcd(cp, cp′) and g = cp / h.  As
    deg cp < l, a root of multiplicity m in cp has m − 1 in h and 1 in g."""
    a, b = cp, [i * c % l for i, c in enumerate(cp)][1:]  # cp′, of degree d − 1
    while b:
        a, b = b, _poly_divmod(a, b, l)[1]
    h = [c * pow(a[-1], l - 2, l) % l for c in a]
    return _poly_divmod(cp, h, l)[0], h


def _multiplicity(h: list[int], lam: int, l: int) -> int:
    """lam's multiplicity in cp: one more than the times x − lam divides h."""
    m, (q, r) = 1, _poly_divmod(h, [-lam % l, 1], l)
    while not r:
        m, (q, r) = m + 1, _poly_divmod(q, [-lam % l, 1], l)
    return m


def _start_rows(s: int, d: int, l: int) -> np.ndarray:
    """s rows of length d over F_l from 64 random bits an entry, seeded by d."""
    bits = random.Random(d).getrandbits(64 * s * d).to_bytes(8 * s * d, "little")
    return (np.frombuffer(bits, dtype=np.uint64) % l).astype(np.int64).reshape(s, d)


def _eigenspaces(rmat: np.ndarray, l: int) -> list:
    """The left eigenspaces {c : c·R = λc} of R = rmat over F_l, ascending
    in λ, each as its reduced row echelon basis and pivot columns.

    The λ_j are the roots of g, the squarefree part of det(xI − R), of
    multiplicities m_j.  For diagonalizable R, g(R) = 0 and the rows of
    U·L_j(R), L_j = g/(x − λ_j), span λ_j's eigenspace unless the max m_j + 1
    start rows U miss part of it, when the round reruns with U = I.  One
    Krylov pass U·R^t, t ≤ deg g, times the coefficients of the L_j and g
    gives them all, and U·g(R) = U·L_j(R)·(R − λ_j) checks every row.  On W,
    d < r: each product's d + 1 terms of at most (l − 1)² are inside the guard.
    """
    d = len(rmat)
    g, h = _squarefree(_charpoly(_hessenberg(rmat, l), l).tolist(), l)
    lam = _poly_roots(g, l).tolist()
    m = [_multiplicity(h, x, l) for x in lam]
    if sum(m) != d:  # cp has a factor with no root in F_l
        raise SelfCheckFailed("class matrix not diagonalizable mod modulus")
    coef = np.array([_poly_divmod(g, [-x % l, 1], l)[0] + [0] for x in lam] + [g])
    for u in _start_rows(max(m) + 1, d, l), np.eye(d, dtype=np.int64):
        krylov = accumulate(range(len(lam)), lambda x, _: x @ rmat % l, initial=u)
        y = coef @ np.array(list(krylov)).reshape(len(coef), -1) % l
        if y[-1].any():
            raise SelfCheckFailed("class matrix not diagonalizable mod modulus")
        spaces = [_rref(yj.reshape(len(u), d), l) for yj in y[:-1]]
        if [len(q) for _, q in spaces] == m:
            return spaces
    if not all(q for _, q in spaces):
        raise SelfCheckFailed("eigenvalue with empty eigenspace")
    raise SelfCheckFailed("class matrix not diagonalizable mod modulus")


# ------------------------------------------------------------ eigen splitting


def _split_common_eigenvectors(matrices, order, b, piv, l: int) -> list[np.ndarray]:
    """Common eigenvectors (as rows, unnormalized) of the commuting family
    inside the invariant subspace with basis b.

    b is in reduced row echelon form with pivot columns piv, and its r
    columns are the classes.  matrices: callable (i, rows) -> ndarray giving
    M_i's rows `rows` on demand, those the live subspaces pivot on; consumed
    for i in order until every invariant subspace is one-dimensional.  Each
    subspace is such a basis, and M_i is restricted to it before anything
    else; a subspace on which M_i acts as a scalar is its own single
    eigenspace and is kept.
    """
    r = b.shape[1]
    if r * (l - 1) ** 2 >= 1 << 63:
        raise CapExceeded(f"{r} classes with modulus {l} overflow int64 dot products")
    subspaces = [(b, piv)] if len(b) else []
    for i in order:
        live = [piv for b, piv in subspaces if b.shape[0] > 1]
        if not live:
            break
        rows = sorted({x for piv in live for x in piv})
        m = matrices(i, rows) % l
        done = []
        for b, piv in subspaces:
            if b.shape[0] > 1:
                rmat = b @ m[np.searchsorted(rows, piv)].T % l  # b·M_iᵀ = rmat·b, b[:, piv] = I
                if (rmat != rmat[0, 0] * np.eye(len(rmat), dtype=np.int64)).any():
                    # c reduced with pivots q makes c·b reduced with pivots piv[q]
                    done += [(c @ b % l, [piv[x] for x in q]) for c, q in _eigenspaces(rmat, l)]
                    continue
            done.append((b, piv))
        subspaces = done
    if any(b.shape[0] != 1 for b, _ in subspaces):
        raise SelfCheckFailed("common eigenspaces did not split to dimension one")
    return [b[0] for b, _ in subspaces]


def _split_order(cd: ClassData) -> list[int]:
    """The classes the split consumes: the central ones first, then the
    others, each ascending.  A central class whose element is a power z^k
    of an earlier central z is left out: on a subspace where M_z acts as
    the scalar omega(z), M_{z^k} acts as omega(z)^k, so it splits nothing
    that z has not.  z's powers are read off the cover: z = y^j for a
    walked y of order o, so z^k = y^(jk) for k = 1, ..., o."""
    walked, at = cd.cover
    central, powers = [], set()
    for k in range(1, cd.count):
        if cd.sizes[k] == 1 and k not in powers:
            central.append(k)
            i, j = at[k]
            ys = walked[i]
            powers.update(ys[(j * t - 1) % len(ys)] for t in range(1, len(ys) + 1))
    return central + [i for i in range(1, cd.count) if cd.sizes[i] > 1]


def character_degrees(
    g: GroupRealization,
    cap: int = DEFAULT_ELEMENT_CAP,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> DegreeMultiset:
    cd = conjugacy_classes(g, cap)
    r = cd.count
    if r > class_cap:
        raise CapExceeded(f"{r} conjugacy classes exceed cap {class_cap}")
    order = sum(cd.sizes)
    derived, coset_at = _derived_cosets(cd)
    coset = coset_at[cd.reps]
    if (coset[cd.class_at] != coset_at).any():
        raise SelfCheckFailed("a conjugacy class meets two cosets of the derived subgroup")
    del coset_at  # one intp a position, not needed past the check
    coset = coset.tolist()
    last = {c: k for k, c in enumerate(coset)}
    piv = [k for k, c in enumerate(coset) if last[c] != k]
    degrees = [1] * (order // derived)
    if piv:
        l = dixon_modulus(cd)
        basis = np.zeros((len(piv), r), dtype=np.int64)  # e_k − e_last of k's coset
        basis[range(len(piv)), piv] = 1
        basis[range(len(piv)), [last[coset[k]] for k in piv]] = l - 1
        size_invs = np.array([pow(s, l - 2, l) for s in cd.sizes], dtype=np.int64)
        inv = np.array(cd.inverse_class)
        for v in _split_common_eigenvectors(
            partial(class_matrix, cd), _split_order(cd), basis, piv, l
        ):
            if v[0] == 0:
                raise SelfCheckFailed("eigenvector with zero identity coordinate")
            w = v * pow(int(v[0]), l - 2, l) % l  # central character, w[0] = 1
            t = int((w * w[inv] % l * size_invs % l).sum() % l)
            if t == 0:
                raise SelfCheckFailed("vanishing norm for a central character")
            dd = order * pow(t, l - 2, l) % l
            if not 1 <= dd <= order:
                raise NotPerfectSquare(f"degree square {dd} outside [1, {order}]")
            d = isqrt(dd)
            if d * d != dd:
                raise NotPerfectSquare(f"recovered degree square {dd} is not a square")
            degrees.append(d)
    if len(degrees) != r:
        raise SelfCheckFailed(
            f"splitting W gave {len(degrees) - order // derived} characters, "
            f"not r − |G:G′| = {r - order // derived}"
        )
    return DegreeMultiset(degrees=tuple(degrees), group_order=order)


# -------------------------------------------------------------- closed forms


def frobenius_degrees_closed_form(q: int, m: int, k: int) -> DegreeMultiset:
    """(C_q)^m with a fixed-point-free cyclic C_k on top: k linear characters
    (the complement quotient) and (q^m - 1)/k of degree k (induced from the
    kernel's nontrivial characters, fused in orbits of size k)."""
    if not is_prime(q) or m < 1 or k < 2:
        raise InvalidParam("need prime q, m >= 1, multiplier order k >= 2")
    if (q**m - 1) % k != 0:
        raise OrderNotDividing(f"{k} does not divide {q}^{m} - 1")
    degrees = (1,) * k + (k,) * ((q**m - 1) // k)
    return DegreeMultiset(degrees=degrees, group_order=q**m * k)


def extraspecial_degrees_closed_form(p: int, n: int) -> DegreeMultiset:
    """Order p^(2n+1) with center of size p: p^2n linear characters and p - 1
    faithful ones of degree p^n."""
    if not is_prime(p) or n < 1:
        raise InvalidParam("need prime p and n >= 1")
    degrees = (1,) * p ** (2 * n) + (p**n,) * (p - 1)
    return DegreeMultiset(degrees=degrees, group_order=p ** (2 * n + 1))


def product_degrees(d1: DegreeMultiset, d2: DegreeMultiset) -> DegreeMultiset:
    """Degrees of a direct product: all pairwise products."""
    degrees = tuple(sorted(a * b for a in d1.degrees for b in d2.degrees))
    return DegreeMultiset(degrees=degrees, group_order=d1.group_order * d2.group_order)
