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
  4. the derived subgroup G′ over positions, and each class's coset of it:
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
    representative, so class 0 is the identity.
    """

    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
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
        step in column c are the last walking[c] rows of gens.  The words
        are walked up the tree for all representatives at once, last step
        first.
        """
        parent, via = self.tables.parent, self.tables.via
        x = self.reps
        back = []  # back[t][k]: step t from the end of word k, or -1
        while x[-1]:  # the last word is the longest
            back.append(via[x])
            x = np.maximum(parent[x], 0)
        gens = np.array(back[::-1], dtype=np.intp).reshape(len(back), self.count).T
        return gens, np.count_nonzero(gens >= 0, axis=0).tolist()

    @cached_property
    def cover(self) -> tuple[dict[int, list[int]], list[tuple[int, int]]]:
        """(walked, at): walked maps class i to the classes of y, y², ...,
        y^o = 1 for y = reps[i], and class k holds y^j for (i, j) = at[k].
        The representatives are walked in ascending order, skipping one whose
        class holds a power of a walked one (its order divides that one's),
        so every class holds a walked power.  Each walked order divides |G|."""
        n = sum(self.sizes)
        walked, at = {}, [None] * self.count
        for i, x in enumerate(self.reps.tolist()):
            if at[i] is None:
                ys = walked[i] = self.class_at[self.tables.powers(x)].tolist()
                if n % len(ys):
                    raise SelfCheckFailed(f"position {x} has order {len(ys)}, not dividing {n}")
                for j, k in enumerate(ys, 1):
                    if at[k] is None:
                        at[k] = (i, j)
        return walked, at


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
    needed.  Inverses follow the tree too: (p·s)⁻¹ = s⁻¹·p⁻¹.

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
    _check_class_data(cd, len(t))
    return cd


def _walk_classes(t: IndexTables):
    """(sizes, inverse_class, class_at, reps), one position at a time."""
    right, parent, via = t.right.tolist(), t.parent.tolist(), t.via.tolist()
    n = len(t)
    lefts = []  # lefts[j][x] = position of g_j⁻¹ · x
    conj = []  # conj[j][x] = position of g_j⁻¹ · x · g_j
    for col in right:
        left = [0] * n
        left[0] = col.index(0)
        for x in range(1, n):
            left[x] = right[via[x]][left[parent[x]]]
        lefts.append(left)
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
    inv = {0: 0}  # position -> its inverse's, on the reps' paths from 0
    for x in reps:
        path = []
        while x not in inv:
            path.append(x)
            x = parent[x]
        for x in reversed(path):
            inv[x] = lefts[via[x]][inv[parent[x]]]
    inverse_class = tuple(class_at[inv[x]] for x in reps)
    class_at, reps = np.array(class_at, dtype=np.intp), np.array(reps, dtype=np.intp)
    return tuple(sizes), inverse_class, class_at, reps


def _level_classes(t: IndexTables):
    """(sizes, inverse_class, class_at, reps), a breadth-first level at a
    time.

    parent is non-decreasing, so the level after positions [a, b) is [b, c)
    with c the first position whose parent is b or more.  Each generator's
    row of left is one gather per level, and the inverses a second pass
    once left is complete.  The orbits are joined one generator at a time,
    in a forest over positions whose every pointer goes to a smaller
    position: each pair (x, h⁻¹·x·h) whose ends have two roots points the
    larger root at the smaller, and pointer jumping flattens the forest,
    until every pair shares its root.  Joining only merges orbits, so the
    pairs of earlier generators stay joined, and each root ends as its
    class's least, first-discovered, position.
    """
    right, parent, via = t.right, t.parent, t.via
    s, n = right.shape
    ends = [1]
    while ends[-1] < n:
        ends.append(int(np.searchsorted(parent, ends[-1])))
    # positions [a, b), their parents, and the flat offsets of their
    # generators' rows
    levels = [(a, b, parent[a:b], via[a:b] * n) for a, b in zip(ends, ends[1:])]
    flat = right.ravel()
    left = np.empty((s, n), dtype=np.intp)  # left[j, x] = position of g_j⁻¹·x
    left[:, 0] = np.argmax(right == 0, axis=1)
    for row in left:
        for a, b, up, rows in levels:
            row[a:b] = flat[row[up] + rows]
    inv = np.zeros(n, dtype=np.intp)  # (p·g)⁻¹ = g⁻¹·p⁻¹
    for a, b, up, rows in levels:
        inv[a:b] = left.ravel()[inv[up] + rows]
    del levels
    root = np.arange(n)
    for j in range(s):
        x, y = np.arange(n), right[j][left[j]]  # y[i] = position of g_j⁻¹·x[i]·g_j
        while True:
            rx, ry = root[x], root[y]
            apart = rx != ry
            if not apart.any():
                break
            rx, ry = rx[apart], ry[apart]
            root[np.maximum(rx, ry)] = np.minimum(rx, ry)
            del rx, ry  # the arrays of pairs are the walk's largest
            x, y = x[apart], y[apart]  # pairs once joined stay joined
            while True:
                up = root[root]
                if (up == root).all():
                    break
                root = up
    del left, x, y
    first = root == np.arange(n)
    class_at = (np.cumsum(first) - 1)[root]
    reps = np.flatnonzero(first)
    inverse_class = tuple(class_at[inv[reps]].tolist())
    return tuple(np.bincount(class_at).tolist()), inverse_class, class_at, reps


def _check_class_data(cd, order):
    if sum(cd.sizes) != order:
        raise SelfCheckFailed("class sizes do not partition the group")
    if cd.reps[0] != 0 or cd.sizes[0] != 1:  # position 0 is the identity
        raise SelfCheckFailed("class 0 is not the identity singleton")
    for i, j in enumerate(cd.inverse_class):
        if cd.inverse_class[j] != i or cd.sizes[j] != cd.sizes[i]:
            raise SelfCheckFailed("inverse-class map is not a size-preserving involution")


def class_matrix(cd: ClassData, i: int, rows=None) -> np.ndarray:
    """Rows `rows` of M_i (all of them if None) as an int64 array:
    a[j][k] = #{(x, y) in C_i x C_j : xy = z_k}.

    y = x⁻¹ z_k, and x⁻¹ runs over C_{i'} as x runs over C_i, so column k
    counts the classes of w·z_k for w in C_{i'}.  w·z_k is reached from w by
    right multiplications along z_k's generator word in the closure's tree,
    each a gather from the index tables.  Row j is column j′ read through
    a_{ijk}·|C_k| = a_{ik′j′}·|C_j| (class sums commute, and yx = z iff
    x·z⁻¹ = y⁻¹), so only the columns j′ are walked, and divided exactly in
    int64 while |G|² < 2⁶³, as a_{ik′j′} ≤ |C_i|."""
    r = cd.count
    inv = np.array(cd.inverse_class)
    rows = np.arange(r) if rows is None else np.asarray(rows, dtype=np.intp)
    need = inv[rows]
    cols = np.flatnonzero(np.bincount(need, minlength=r))  # ascending, so words never get shorter
    gens, walking = cd.rep_words
    first = np.searchsorted(cols, r - np.array(walking)).tolist()
    right = cd.tables.right
    ws = cd.members(cd.inverse_class[i])
    block = max(1, _BLOCK_ENTRIES // len(ws))
    counts = np.empty((len(cols), r), dtype=np.int64)  # counts[t, k] = a_{i k cols[t]}
    for b0 in range(0, len(cols), block):
        b1 = min(len(cols), b0 + block)
        v = np.repeat(ws[:, None], b1 - b0, axis=1)
        for c, a in enumerate(first):
            a = max(b0, a)  # the block's columns from a on have a step in c
            if a < b1:
                v[:, a - b0 :] = right[gens[cols[a:b1], c], v[:, a - b0 :]]
        flat = np.arange(b1 - b0) * r + cd.class_at[v]
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

    G′ is the normal closure of the generators' commutators.  H starts as
    the subgroup they generate, closed breadth-first under right
    multiplication by its generators, each a permutation of the positions
    got by walking the generator's word through the index tables.  While H
    is not a union of classes, one missing member of each class it meets
    joins the generators: it is a conjugate of an element of H, so it lies
    in G′.  A subgroup with more than |G|/2 elements is G, so the closure
    stops there.  The cosets are then numbered breadth-first over G/H:
    H·x·g_j is the gather right[j] of the coset H·x.
    """
    t = cd.tables
    right = t.right
    s, n = right.shape
    back = np.empty_like(right)  # back[j, x·g_j] = x
    back[np.arange(s)[:, None], right] = np.arange(n)
    new = {  # g_i⁻¹·g_j⁻¹·g_i·g_j
        int(right[j, right[i, back[j, back[i, 0]]]])
        for i in range(s)
        for j in range(i + 1, s)
    }
    new = sorted(new - {0})
    in_h = np.zeros(n, dtype=bool)
    in_h[0] = True
    size = 1
    perms = []
    while new:
        for y in new:
            p = np.arange(n)
            for j in t.word(y):
                p = right[j][p]
            perms.append(p)
            x = int(p[0])
            while not in_h[x]:  # y's powers, so that a long cycle costs no levels
                in_h[x] = True
                size += 1
                x = int(p[x])
        front = np.flatnonzero(in_h)
        while front.size:
            fresh = np.zeros(n, dtype=bool)
            for p in perms:
                fresh[p[front]] = True
            fresh &= ~in_h
            in_h |= fresh
            front = np.flatnonzero(fresh)
            size += front.size
            if 2 * size > n:
                return n, np.zeros(n, dtype=np.intp)
        hit = np.bincount(cd.class_at[in_h], minlength=cd.count)
        partial = (hit > 0) & (hit < cd.sizes)
        missing = np.flatnonzero(partial[cd.class_at] & ~in_h)
        new = missing[np.unique(cd.class_at[missing], return_index=True)[1]].tolist()
    h = np.flatnonzero(in_h)
    coset_at = np.full(n, -1, dtype=np.intp)
    coset_at[h] = 0
    cosets = [h]
    for c in cosets:  # grows while it is walked
        for j in range(s):
            if coset_at[right[j, c[0]]] < 0:
                coset_at[right[j][c]] = len(cosets)
                cosets.append(right[j][c])
    return h.size, coset_at


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
    """All roots in F_l, ascending: in-place Horner passes over every residue."""
    xs = np.arange(l, dtype=np.int64)
    vals = np.full(l, poly[-1], dtype=np.int64)
    for c in poly[-2::-1]:
        vals *= xs
        vals += c
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
        for v in _split_common_eigenvectors(
            partial(class_matrix, cd), _split_order(cd), basis, piv, l
        ):
            if v[0] == 0:
                raise SelfCheckFailed("eigenvector with zero identity coordinate")
            w = v * pow(int(v[0]), l - 2, l) % l  # central character, w[0] = 1
            t = int((w * np.take(w, cd.inverse_class) % l * size_invs % l).sum() % l)
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
    if sum(d * d for d in degrees) != order:
        raise SumOfSquaresMismatch(
            f"degree squares sum to {sum(d * d for d in degrees)}, order is {order}"
        )
    return DegreeMultiset(degrees=tuple(sorted(degrees)), group_order=order)


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
