"""Irreducible character degrees by the modular eigenvector method.

The degree multiset of a finite group is computed from first principles:

  1. conjugacy classes as orbits of conjugation over the closure's element
     positions, each numbered by its first-discovered member, which is its
     representative (class 0 = identity),
  2. class-algebra structure constants a_{ijk} = #{(x,y) in C_i x C_j :
     xy = z} for fixed z in C_k, one matrix M_i = (a_{ijk})_{jk} per class,
  3. a prime modulus l ≡ 1 (mod exp(G)) with l > |G|, so exp(G)-th roots of
     unity exist mod l and every degree square is recovered exactly from its
     residue,
  4. the derived subgroup G′ over positions, and each class's coset of it:
     the |G:G′| linear characters are those of G/G′, so their degrees are 1,
     and every other chi has central character values summing to zero over
     each coset, so those vectors span W = {v : the coordinates of each
     coset sum to zero}, of dimension r − |G:G′|,
  5. simultaneous eigenspaces of the commuting M_i on W over F_l: each
     common eigenvector, normalized to coordinate 1 at the identity class,
     is the vector of central character values w_i = |C_i| chi(g_i) / chi(1),
  6. sum_i w_i w_{i'} / |C_i| = |G| / chi(1)^2 then recovers each non-linear
     degree.

Closed-form multisets for Frobenius groups, extraspecial groups, and direct
products are provided as independent cross-checks of the same quantities.
Eigen-splitting is deterministic: it starts from W's reduced row echelon
basis, consumes the central classes (size 1) first and then the others,
each in ascending class index, takes eigenvalues in ascending residue
order, and keeps subspace bases in reduced row echelon form.  A central z
acts on the characters by their central character, so it is a cheap matrix
that separates them early; a power of an earlier central z separates
nothing more, and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


def class_matrix(g: GroupRealization, cd: ClassData, i: int) -> np.ndarray:
    """M_i as an int64 array: a[j][k] = #{(x, y) in C_i x C_j : xy = z_k}.

    y = x⁻¹ z_k, and x⁻¹ runs over C_{i'} as x runs over C_i, so column k
    counts the classes of w·z_k for w in C_{i'}.  w·z_k is reached from w by
    right multiplications along z_k's generator word in the closure's tree,
    each a gather from the index tables.
    """
    right = cd.tables.right
    r = cd.count
    gens, walking = cd.rep_words
    ws = cd.members(cd.inverse_class[i])
    block = max(1, _BLOCK_ENTRIES // len(ws))
    counts = 0
    for b0 in range(0, r, block):
        b1 = min(r, b0 + block)
        v = np.repeat(ws[:, None], b1 - b0, axis=1)
        for c, n in enumerate(walking):
            a = max(b0, r - n)  # the block's columns from a on have a step in c
            if a < b1:
                v[:, a - b0 :] = right[gens[a:b1, c], v[:, a - b0 :]]
        flat = cd.class_at[v] * r + np.arange(b0, b1)
        counts = counts + np.bincount(flat.ravel(), minlength=r * r)
    return counts.reshape(r, r)


def dixon_modulus(g: GroupRealization, cd: ClassData) -> int:
    """Least prime l ≡ 1 (mod exp(G)) with l > |G|.

    exp(G) is the lcm of the orders of the class representatives, since
    element order is a class invariant; each is walked over the index
    tables and must divide |G|.
    """
    order = sum(cd.sizes)
    e = 1
    for x in cd.reps.tolist():
        k = cd.tables.order(x)
        if order % k:
            raise SelfCheckFailed(f"position {x} has order {k}, not dividing {order}")
        e = lcm(e, k)
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


def _kernel(a: np.ndarray, l: int) -> np.ndarray:
    """Rows spanning {x : a @ x = 0 mod l}."""
    n = a.shape[1]
    r, piv = _rref(a, l)
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = -r[:, free].T % l
    return basis


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
        inv = pow(int(a[c + 1, c]), l - 2, l)
        for rr in range(c + 2, n):
            f = int(a[rr, c]) * inv % l
            if f:
                a[rr] = (a[rr] - f * a[c + 1]) % l
                a[:, c + 1] = (a[:, c + 1] + f * a[:, rr]) % l
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


def _poly_roots(poly: np.ndarray, l: int) -> list[int]:
    """All roots in F_l, ascending, by evaluating at every residue."""
    xs = np.arange(l, dtype=np.int64)
    vals = np.zeros(l, dtype=np.int64)
    for c in poly[::-1]:
        vals = (vals * xs + int(c)) % l
    return [int(x) for x in np.nonzero(vals == 0)[0]]


# ------------------------------------------------------------ eigen splitting


def _split_common_eigenvectors(matrices, order, b, piv, l: int) -> list[np.ndarray]:
    """Common eigenvectors (as rows, unnormalized) of the commuting family
    inside the invariant subspace with basis b.

    b is in reduced row echelon form with pivot columns piv, and its r
    columns are the classes.  matrices: callable i -> ndarray giving M_i on
    demand; consumed for i in order until every invariant subspace is
    one-dimensional.  Each subspace is such a basis, and M_i is restricted
    to it before anything else; a subspace on which M_i acts as a scalar is
    its own single eigenspace and is kept.
    """
    r = b.shape[1]
    if r * (l - 1) ** 2 >= 1 << 63:
        raise CapExceeded(f"{r} classes with modulus {l} overflow int64 dot products")
    subspaces = [(b, piv)] if len(b) else []
    for i in order:
        if all(b.shape[0] == 1 for b, _ in subspaces):
            break
        mt = matrices(i).T % l
        done = []
        for b, piv in subspaces:
            if b.shape[0] == 1:
                done.append((b, piv))
                continue
            rmat = b @ mt[:, piv] % l  # b @ mt = rmat @ b since b[:, piv] = I
            eye = np.eye(rmat.shape[0], dtype=np.int64)
            if (rmat == rmat[0, 0] * eye).all():
                done.append((b, piv))
                continue
            cp = _charpoly(_hessenberg(rmat.copy(), l), l)
            dim = 0
            for lam in _poly_roots(cp, l):
                coords = _kernel((rmat - lam * eye).T % l, l)
                if coords.shape[0] == 0:
                    raise SelfCheckFailed("eigenvalue with empty eigenspace")
                dim += coords.shape[0]
                done.append(_rref(coords @ b % l, l))
            if dim != b.shape[0]:
                raise SelfCheckFailed("class matrix not diagonalizable mod modulus")
        subspaces = done
    if any(b.shape[0] != 1 for b, _ in subspaces):
        raise SelfCheckFailed("common eigenspaces did not split to dimension one")
    return [b[0] for b, _ in subspaces]


def _split_order(cd: ClassData) -> list[int]:
    """The classes the split consumes: the central ones first, then the
    others, each ascending.  A central class whose element is a power z^k
    of an earlier central z is left out: on a subspace where M_z acts as
    the scalar omega(z), M_{z^k} acts as omega(z)^k, so it splits nothing
    that z has not."""
    central, powers = [], set()
    for i, x in enumerate(cd.reps.tolist()):
        if i and cd.sizes[i] == 1 and x not in powers:
            central.append(i)
            powers.update(cd.tables.powers(x))
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
        l = dixon_modulus(g, cd)
        basis = np.zeros((len(piv), r), dtype=np.int64)  # e_k − e_last of k's coset
        basis[range(len(piv)), piv] = 1
        basis[range(len(piv)), [last[coset[k]] for k in piv]] = l - 1
        size_invs = [pow(s, l - 2, l) for s in cd.sizes]
        for v in _split_common_eigenvectors(
            lambda i: class_matrix(g, cd, i), _split_order(cd), basis, piv, l
        ):
            if v[0] == 0:
                raise SelfCheckFailed("eigenvector with zero identity coordinate")
            inv = pow(int(v[0]), l - 2, l)
            w = [int(x) * inv % l for x in v]  # central character, w[0] = 1
            t = 0
            for j in range(r):
                t = (t + w[j] * w[cd.inverse_class[j]] * size_invs[j]) % l
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
