"""Character-degree tests.

Degree multisets, class counts, and moduli were computed independently with
a general-purpose computer algebra system and frozen here; the module under
test must reproduce them from first principles.
"""

import dataclasses
import random
import tracemalloc
from math import isqrt, lcm

import numpy as np
import pytest

from chardeg import degrees
from chardeg.catalog import parse_spec, realize
from chardeg.degrees import (
    DegreeMultiset,
    character_degrees,
    class_matrix,
    conjugacy_classes,
    dixon_modulus,
    extraspecial_degrees_closed_form,
    frobenius_degrees_closed_form,
    product_degrees,
)
from chardeg.errors import (
    CapExceeded,
    InvalidParam,
    OrderNotDividing,
    SelfCheckFailed,
    SumOfSquaresMismatch,
)
from chardeg.groups import (
    GroupRealization,
    enumerate_elements,
    index_tables,
)
from chardeg.smallgroups import enumerate_groups, table_to_realization

from group_facts import (
    derived_coset_firsts,
    derived_subgroup_order,
    element_order,
    exponent,
    representative_modulus,
    representative_orders,
)


def make(text):
    return realize(parse_spec(text))


# ---------------------------------------------- brute-force references


def inverse(g, x):
    """x⁻¹ = x^(o(x)−1), by multiplying elements."""
    y = x
    while (z := g.multiply(y, x)) != g.identity:
        y = z
    return y


def reference_classes(g):
    """Conjugacy classes by multiplying elements: (reps, sizes, class_of,
    inverse_class, members), in the conventions of ClassData: elements in
    discovery order, each class numbered by its first-discovered member."""
    class_of = {}
    reps, sizes = [], []
    gen_invs = [inverse(g, x) for x in g.generators]
    els = enumerate_elements(g)
    for x in els:
        if x in class_of:
            continue
        idx = len(reps)
        orbit = [x]
        class_of[x] = idx
        pos = 0
        while pos < len(orbit):
            y = orbit[pos]
            pos += 1
            for gi, ginv in zip(g.generators, gen_invs):
                z = g.multiply(ginv, g.multiply(y, gi))
                if z not in class_of:
                    class_of[z] = idx
                    orbit.append(z)
        reps.append(x)
        sizes.append(len(orbit))
    inverse_class = tuple(class_of[inverse(g, rep)] for rep in reps)
    members = tuple(
        tuple(x for x in els if class_of[x] == k) for k in range(len(reps))
    )
    return tuple(reps), tuple(sizes), class_of, inverse_class, members


def class_of(g, cd):
    """The class of each element, from class_at over g's elements."""
    return dict(zip(enumerate_elements(g), cd.class_at))


def rep_elements(g, cd):
    """The representatives as elements, from their positions."""
    els = enumerate_elements(g)
    return tuple(els[x] for x in cd.reps.tolist())


def reference_class_matrix(g, cd, i):
    """a[j][k] = #{(x, y) in C_i x C_j : xy = z_k}, one product per x and k."""
    r = cd.count
    a = np.zeros((r, r), dtype=np.int64)
    classes = class_of(g, cd)
    reps = rep_elements(g, cd)
    for x in enumerate_elements(g):
        if classes[x] != i:
            continue
        xi = inverse(g, x)
        for k, z in enumerate(reps):
            a[classes[g.multiply(xi, z)], k] += 1
    return a


def reference_poly_roots(poly, l):
    """All roots in F_l, ascending: int64 Horner passes over every residue,
    reduced after each coefficient."""
    xs = np.arange(l, dtype=np.int64)
    vals = np.full(l, poly[-1], dtype=np.int64)
    for c in poly[-2::-1]:
        vals *= xs
        vals += c
        vals %= l
    return np.flatnonzero(vals == 0)


def reference_rref(a, l):
    """Reduced row echelon form mod l, one Python step per column."""
    a = a % l
    rows, cols = a.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = a[r] * pow(int(a[r, c]), l - 2, l) % l
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % l
        piv.append(c)
        r += 1
    return a[: len(piv)], piv


def reference_kernel(a, l):
    """Rows spanning {x : a @ x = 0 mod l}, one per free column of a's
    reduced row echelon form."""
    n = a.shape[1]
    r, piv = reference_rref(a, l)
    free = [c for c in range(n) if c not in piv]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, piv] = -r[:, free].T % l
    return basis


def kernel_split(matrices, order, b, piv, l):
    """degrees._split_common_eigenvectors by one kernel per eigenvalue:
    each eigenspace of the restricted matrix R is the kernel of (R − λI)ᵀ,
    for every root λ of R's characteristic polynomial."""
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
            rmat = b @ mt[:, piv] % l
            eye = np.eye(rmat.shape[0], dtype=np.int64)
            if (rmat == rmat[0, 0] * eye).all():
                done.append((b, piv))
                continue
            cp = degrees._charpoly(degrees._hessenberg(rmat, l), l)
            for lam in reference_poly_roots(cp, l).tolist():
                coords = reference_kernel((rmat - lam * eye).T % l, l)
                done.append(reference_rref(coords @ b % l, l))
        subspaces = done
    assert all(b.shape[0] == 1 for b, _ in subspaces)
    return [b[0] for b, _ in subspaces]


def reference_split(g, cd, l):
    """Common eigenvectors of every class matrix on the whole class space:
    the identity basis, class matrices consumed in ascending class index."""
    r = cd.count
    return kernel_split(
        lambda i: class_matrix(cd, i), range(1, r), np.eye(r, dtype=np.int64), list(range(r)), l
    )


def reference_degrees(g):
    """Every degree from the full-space split, |G| / chi(1)^2 = sum_i w_i
    w_{i'} / |C_i| for each central character w."""
    cd = conjugacy_classes(g)
    l = dixon_modulus(cd)
    order = sum(cd.sizes)
    out = []
    for v in reference_split(g, cd, l):
        w = [int(x) * pow(int(v[0]), l - 2, l) % l for x in v]
        t = sum(
            w[j] * w[cd.inverse_class[j]] * pow(cd.sizes[j], l - 2, l)
            for j in range(cd.count)
        )
        out.append(isqrt(order * pow(t % l, l - 2, l) % l))
    return tuple(sorted(out))


def no_generators():
    return GroupRealization(
        identity=0,
        multiply=lambda a, b: 0,
        generators=[],
        descriptor="1",
        expected_order=1,
    )


REFERENCE_GROUPS = [
    "cyclic:1",
    "named:S3",
    "named:A4",
    "psl2:7",
    "frob:2^3:7",
    "xsp:2:2",
    "prod(xsp:3:1,cyclic:2)",
    "named:G72D",
    "cyclic:60",  # long tree paths to the representatives
    "prod(cyclic:25,named:S3)",
]
REFERENCE_CASES = (
    [(text, lambda text=text: make(text)) for text in REFERENCE_GROUPS]
    + [
        (f"order8[{n}]", lambda n=n: table_to_realization(enumerate_groups(8)[n]))
        for n in range(5)
    ]
    + [("no generators", no_generators)]
)


@pytest.mark.parametrize(
    "build", [b for _, b in REFERENCE_CASES], ids=[t for t, _ in REFERENCE_CASES]
)
def test_index_engine_matches_reference(build):
    g = build()
    cd = conjugacy_classes(g)
    reps, sizes, classes, inverse_class, members = reference_classes(g)
    els = enumerate_elements(g)
    assert cd.reps.dtype == np.intp
    assert rep_elements(g, cd) == reps
    assert cd.sizes == sizes
    assert class_of(g, cd) == classes
    assert cd.inverse_class == inverse_class
    got = tuple(tuple(els[x] for x in cd.members(k).tolist()) for k in range(cd.count))
    assert got == members
    for i in range(cd.count):
        got = class_matrix(cd, i)
        assert got.dtype == np.int64
        assert (got == reference_class_matrix(g, cd, i)).all()


@pytest.mark.parametrize(
    "build", [b for _, b in REFERENCE_CASES], ids=[t for t, _ in REFERENCE_CASES]
)
def test_split_of_w_matches_full_space_reference(build):
    g = build()
    assert character_degrees(g).degrees == reference_degrees(g)


@pytest.mark.parametrize("text", ["psl2:7", "prod(xsp:3:1,cyclic:2)", "cyclic:60"])
def test_class_matrix_column_blocks(monkeypatch, text):
    """An entry budget below one column still walks every representative,
    also when the words' lengths change inside and between blocks.  With
    blocks of three columns, some word step's walking suffix starts inside
    a block and crosses the next block boundary: each block walks only its
    own part of the suffix."""
    g = make(text)
    cd = conjugacy_classes(g)
    r = cd.count
    starts = [r - w for w in cd.rep_words[1]]  # every column is walked
    assert any(a % 3 and a < r - 3 for a in starts), starts
    for i in range(r):
        want = reference_class_matrix(g, cd, i)
        for budget in 5, 3 * cd.sizes[cd.inverse_class[i]]:
            monkeypatch.setattr(degrees, "_BLOCK_ENTRIES", budget)
            assert (class_matrix(cd, i) == want).all()


def assert_rep_words_are_tree_words(cd, dtype):
    """Row k of the words is reps[k]'s word in the tree, padded on the left
    with -1 to the longest word; walking[c] counts the last rows, those
    with a step in column c."""
    gens, walking = cd.rep_words
    assert gens.dtype == dtype
    words = [cd.tables.word(x) for x in cd.reps.tolist()]
    width = max(map(len, words))
    assert gens.shape == (cd.count, width)
    for k, word in enumerate(words):
        assert gens[k].tolist() == [-1] * (width - len(word)) + word
    suffix = np.arange(cd.count)[:, None] >= cd.count - np.array(walking, dtype=np.intp)
    assert ((gens >= 0) == suffix).all()


@pytest.mark.parametrize(
    "build",
    [lambda text=text: make(text) for text in ["psl2:37", "xsp:3:2", "prod(xsp:3:2,cyclic:2)"]]
    + [lambda: table_to_realization(enumerate_groups(8)[3])],
    ids=["psl2:37", "xsp:3:2", "prod(xsp:3:2,cyclic:2)", "order8[3]"],
)
def test_rep_words_are_int8_tree_words(build):
    assert_rep_words_are_tree_words(conjugacy_classes(build()), np.int8)


def test_rep_words_of_128_generators_are_intp():
    """int8 holds generator indices up to 127; with 128 generators the
    words are intp."""
    n = 200
    g = GroupRealization(
        identity=0,
        multiply=lambda a, b: (a + b) % n,
        generators=list(range(1, 129)),
        descriptor=f"C{n}",
        expected_order=n,
    )
    cd = conjugacy_classes(g)
    assert_rep_words_are_tree_words(cd, np.intp)
    assert max(cd.tables.via.tolist()) == 127  # the last generator is in a word
    for i in (1, 150):
        assert (class_matrix(cd, i) == reference_class_matrix(g, cd, i)).all()


@pytest.mark.parametrize(
    "build", [b for _, b in REFERENCE_CASES], ids=[t for t, _ in REFERENCE_CASES]
)
def test_class_matrix_rows_match_reference(build):
    """Rows read off the columns j′ through a_{ijk}·|C_k| = a_{ik′j′}·|C_j|
    are the reference's rows, for seeded row subsets, ascending or in any
    order with repeats, and for rows=None."""
    g = build()
    cd = conjugacy_classes(g)
    r = cd.count
    rng = np.random.default_rng(r)
    for i in range(r):
        want = reference_class_matrix(g, cd, i)
        assert (class_matrix(cd, i, None) == want).all()
        subsets = [np.flatnonzero(rng.random(r) < 0.5), rng.integers(0, r, 1 + r // 2)]
        for rows in subsets + [rng.permutation(r)[:1].tolist()]:
            got = class_matrix(cd, i, rows)
            assert got.dtype == np.int64
            assert got.shape == (len(rows), r) and (got == want[rows]).all()


@pytest.mark.parametrize("text", ["named:S3", "psl2:7"])
def test_class_sizes_must_divide_the_rows(text):
    """With the sizes of classes 1 and 2 swapped, every class matrix but
    the identity's reads a row through the symmetry that is not whole.  On
    psl2:7 the swap moves a class whose inverses lie in another class of
    its old size, so inverse classes read off the swapped sizes fail the
    involution check; the matrices read the ones taken before the swap."""
    g = make(text)
    cd = conjugacy_classes(g)
    sizes = list(cd.sizes)
    sizes[1], sizes[2] = sizes[2], sizes[1]
    bad = dataclasses.replace(cd, sizes=tuple(sizes))
    if text == "psl2:7":
        with pytest.raises(SelfCheckFailed, match="size-preserving involution"):
            bad.inverse_class
        bad.__dict__["inverse_class"] = cd.inverse_class
    assert bad.inverse_class == cd.inverse_class
    assert (class_matrix(bad, 0) == np.eye(cd.count, dtype=np.int64)).all()
    for i in range(1, cd.count):
        with pytest.raises(SelfCheckFailed, match="not divisible by its class size"):
            class_matrix(bad, i)


def rref_cases():
    """Seeded matrices mod 7, 271 and 733: square, tall, wide, 1×n and n×1,
    each also with zeroed columns and as the zero matrix, plus low-rank,
    repeated-row, negative and sparse ones."""
    rng = np.random.default_rng(20261018)
    cases = []
    for l in (7, 271, 733):
        for shape in [(1, 1), (1, 9), (9, 1), (4, 4), (3, 11), (11, 3), (12, 12), (20, 40)]:
            a = rng.integers(0, l, shape)
            cases.append((a, l))
            with_zero_cols = a.copy()
            with_zero_cols[:, rng.random(shape[1]) < 0.4] = 0
            cases.append((with_zero_cols, l))
            cases.append((np.zeros(shape, dtype=np.int64), l))
        low_rank = rng.integers(0, l, (10, 3)) @ rng.integers(0, l, (3, 14)) % l
        cases.append((low_rank, l))
        repeated = rng.integers(0, l, (3, 8))[[0, 1, 0, 2, 1, 0]]
        cases.append((repeated, l))
        cases.append((-repeated, l))  # entries outside [0, l)
        sparse = rng.integers(0, l, (15, 15)) * (rng.random((15, 15)) < 0.15)
        cases.append((sparse, l))
    return cases


def test_rref_matches_reference():
    for a, l in rref_cases():
        before = a.copy()
        got, piv = degrees._rref(a, l)
        want, want_piv = reference_rref(a, l)
        assert piv == want_piv
        assert got.dtype == np.int64
        assert got.shape == want.shape and (got == want).all()
        assert (a == before).all()  # the input is not written to


def test_kernel_spans_null_space():
    for a, l in rref_cases():
        basis = reference_kernel(a, l)
        rank = len(reference_rref(a, l)[1])
        assert basis.shape == (a.shape[1] - rank, a.shape[1])
        assert not (a @ basis.T % l).any()
        assert len(reference_rref(basis, l)[1]) == basis.shape[0]  # independent


def test_split_guards_int64_overflow():
    """r·(l−1)² ≥ 2⁶³ raises before any class matrix is built."""
    g = make("cyclic:4")
    cd = conjugacy_classes(g)
    full = np.eye(4, dtype=np.int64), list(range(4))

    def guarded(i, rows=None):
        pytest.fail("the split went past the overflow guard")

    with pytest.raises(CapExceeded):
        degrees._split_common_eigenvectors(guarded, range(1, 4), *full, 2**31 - 1)
    vectors = degrees._split_common_eigenvectors(
        lambda i, rows=None: class_matrix(cd, i, rows) % 5, range(1, 4), *full, 5
    )
    assert len(vectors) == 4


def reference_hessenberg(a, l):
    """Upper Hessenberg form mod l, one row operation and its inverse column
    operation at a time."""
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


def test_hessenberg_matches_row_loop():
    for a, l in rref_cases():
        if a.shape[0] == a.shape[1]:
            got = degrees._hessenberg(a, l)
            assert (got == reference_hessenberg(a, l)).all()
            assert not np.tril(got, -2).any()


def test_squarefree_part_and_multiplicities():
    """cp = (x − 1)³ (x − 4) (x − 5)² (x² + 4) mod 7, where x² + 4 has no
    root since 3 is not a square mod 7."""
    l = 7
    cp = np.array([1])
    for lam in (1, 1, 1, 4, 5, 5):
        cp = np.convolve(cp, [-lam % l, 1]) % l
    cp = np.convolve(cp, [4, 0, 1]) % l
    g, h = degrees._squarefree(cp.tolist(), l)
    assert (np.convolve(g, h) % l == cp).all()
    lam = degrees._poly_roots(g, l).tolist()
    assert lam == [1, 4, 5]
    assert [degrees._multiplicity(h, x, l) for x in lam] == [3, 1, 2]


@pytest.mark.parametrize("l, lazy", [(65521, 3), (65537, 2), (2097143, 2), (2097169, 1)])
def test_poly_roots_match_reference_scan(l, lazy):
    """Seeded split polynomials with known roots, some repeated, over
    primes on either side of 2¹⁶ and 2²¹, where the scan reduces every 3,
    2, 2 and 1 coefficients: degrees 1–20 below 2¹⁷, also against the
    reference, and around the first reductions and at 20 above it, where a
    scan takes 10 ms a coefficient; and, against the reference,
    −(x²⁰ − 1)/(x − 1), whose coefficients are all l − 1, which at its
    root x = l − 1 takes the unreduced values to the top of the bound
    l^(lazy+1) ≤ 2⁶⁴.  The wraps of one more step would cancel there, so
    a polynomial of degree lazy + 1, all l − 1 but a constant that makes
    l − 1 a root, checks that one: lazy + 1 unreduced steps pass 2⁶⁴ at
    x = l − 1 where l^(lazy+2) > 2⁶⁴, and a wrap would lose the root."""
    assert 64 // (l - 1).bit_length() - 1 == lazy
    rng, small = random.Random(l), l < 1 << 17
    for d in range(1, 21) if small else (1, 2, 3, 4, 20):
        roots = [rng.randrange(l) for _ in range((d + 1) // 2)]
        roots += rng.choices(roots, k=d - len(roots))
        poly = [1]
        for lam in roots:  # poly·(x − lam)
            poly = [(a - lam * b) % l for a, b in zip([0] + poly, poly + [0])]
        got = degrees._poly_roots(poly, l).tolist()
        assert got == sorted(set(roots)), d
        if small:
            assert got == reference_poly_roots(poly, l).tolist(), d
    top = [l - 1] * 20
    edge = [0] + [l - 1] * (lazy + 1)
    edge[0] = -sum(c * (l - 1) ** i for i, c in enumerate(edge)) % l
    for poly in top, edge:
        got = degrees._poly_roots(poly, l).tolist()
        assert got[-1] == l - 1
        assert got == reference_poly_roots(poly, l).tolist()


@pytest.mark.parametrize(
    "rmat", [[[2, 1], [0, 2]], [[0, 1], [3, 0]]], ids=["jordan block", "x^2-3 mod 7"]
)
def test_split_refuses_what_it_cannot_diagonalize(rmat):
    """A Jordan block has one eigenvalue and a one-dimensional eigenspace;
    x² − 3 has no root mod 7.  Restricted to the whole space, M.T is rmat."""
    m = np.array(rmat, dtype=np.int64)
    with pytest.raises(SelfCheckFailed, match="not diagonalizable"):
        degrees._split_common_eigenvectors(
            lambda i, rows=None: m.T, [1], np.eye(2, dtype=np.int64), [0, 1], 7
        )


def test_start_rows_that_miss_an_eigenspace_rerun_with_identity(monkeypatch):
    """Start rows with no component along e_2, the eigenspace of 2 in
    diag(3, 1, 2), leave its basis empty: the round reruns with U = I and
    returns the rows it returns otherwise.  Start rows of zeros miss every
    eigenspace of psl2:7's rounds, which then all rerun."""
    diag = np.diag([3, 1, 2]).astype(np.int64)
    args = (lambda i, rows=None: diag, [1], np.eye(3, dtype=np.int64), [0, 1, 2], 7)
    want = [v.tolist() for v in degrees._split_common_eigenvectors(*args)]
    assert want == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    rref, rows = degrees._rref, []

    def counted(a, l):
        rows.append(len(a))
        return rref(a, l)

    monkeypatch.setattr(degrees, "_rref", counted)
    monkeypatch.setattr(degrees, "_start_rows", lambda s, d, l: np.array([[1, 1, 0]] * s))
    assert [v.tolist() for v in degrees._split_common_eigenvectors(*args)] == want
    assert rows == [2, 2, 2, 3, 3, 3]  # s = max m + 1 = 2 start rows, then I
    monkeypatch.setattr(degrees, "_start_rows", lambda s, d, l: np.zeros((s, d), dtype=np.int64))
    assert character_degrees(make("psl2:7")).degrees == (1, 3, 3, 6, 7, 8)


SPLIT_CASES = REFERENCE_CASES + [
    (text, lambda text=text: make(text))
    for text in [
        "psl2:37",
        "frob:2^8:17",
        "frob:191^1:19",
        "prod(xsp:3:2,cyclic:2)",
        "frob:101^1:2",
    ]
]


@pytest.mark.parametrize(
    "build", [b for _, b in SPLIT_CASES], ids=[t for t, _ in SPLIT_CASES]
)
def test_split_rows_match_kernel_path(monkeypatch, build):
    """On the basis of W that character_degrees builds, the one-pass split
    returns the rows of one kernel per eigenvalue, in the same order."""
    calls = []
    split = degrees._split_common_eigenvectors

    def recorded(*args):
        calls.append((args, split(*args)))
        return calls[-1][1]

    monkeypatch.setattr(degrees, "_split_common_eigenvectors", recorded)
    character_degrees(build())
    for args, rows in calls:
        assert [v.tolist() for v in rows] == [v.tolist() for v in kernel_split(*args)]


# ------------------------------------------------------------------- classes


def test_abelian_classes_are_singletons():
    cd = conjugacy_classes(make("cyclic:7"))
    assert cd.count == 7
    assert cd.sizes == (1,) * 7
    assert cd.inverse_class == (0, 6, 5, 4, 3, 2, 1)


@pytest.mark.parametrize("text", ["named:A4", "psl2:7"])
def test_classes_walk_no_powers(text):
    """Neither class walk (A4's by position, psl2:7's by level) walks the
    cover or the inverse classes; they are read off the cover on first
    use."""
    cd = conjugacy_classes(make(text))
    assert "cover" not in cd.__dict__ and "inverse_class" not in cd.__dict__
    cd.inverse_class
    assert "cover" in cd.__dict__


def test_class_walk_peak_memory():
    """The level walk of xsp:7:2 keeps no table of left multiplications or
    inverses: with the index tables closed beforehand, its traced peak
    stays within 10 words a position (12 when it kept both)."""
    g = make("xsp:7:2")
    n = len(index_tables(g))
    tracemalloc.start()
    try:
        conjugacy_classes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n, peak / (8 * n)


@pytest.mark.parametrize("text", ["cyclic:7", "named:A4", "psl2:7", "prod(xsp:3:1,cyclic:2)"])
def test_corrupt_cover_fails_the_involution_check(text):
    """Recording any class at a power that lies in another class breaks the
    inverse-class map, which must be a size-preserving involution."""
    cd = conjugacy_classes(make(text))
    walked, at = cd.cover
    for k in range(1, cd.count):
        i, j = at[k]
        ys = walked[i]
        for t in range(1, len(ys) + 1):
            if ys[t - 1] != k:
                bad = dataclasses.replace(cd)
                bad.__dict__["cover"] = (walked, at[:k] + [(i, t)] + at[k + 1 :])
                with pytest.raises(SelfCheckFailed, match="size-preserving involution"):
                    bad.inverse_class


def test_sym3_classes():
    g = make("named:S3")
    cd = conjugacy_classes(g)
    assert sorted(cd.sizes) == [1, 2, 3]
    assert cd.sizes[0] == 1
    at = enumerate_elements(g).index
    assert cd.sizes[cd.class_at[at((0, 2, 1))]] == 3  # the transpositions
    assert cd.sizes[cd.class_at[at((1, 2, 0))]] == 2  # the 3-cycles


def test_psl2_5_classes():
    cd = conjugacy_classes(make("psl2:5"))
    assert cd.count == 5
    assert sorted(cd.sizes) == [1, 12, 12, 15, 20]


@pytest.mark.parametrize(
    "text,count",
    [
        ("psl2:7", 6),
        ("psl2:11", 8),
        ("xsp:2:1", 5),
        ("xsp:2:2", 17),
        ("xsp:3:1", 11),
        ("frob:2^3:7", 8),
        ("named:A4", 4),
    ],
)
def test_class_counts(text, count):
    assert conjugacy_classes(make(text)).count == count


def test_class_data_reps_first_discovered():
    cd = conjugacy_classes(make("named:A4"))
    members = [cd.members(k).tolist() for k in range(cd.count)]
    positions = sorted(x for m in members for x in m)
    assert positions == list(range(len(cd.tables)))  # the classes partition them
    for k, m in enumerate(members):
        assert m == sorted(m)
        assert all(cd.class_at[x] == k for x in m)
        assert cd.reps[k] == m[0]
        assert cd.sizes[k] == len(m)
    firsts = cd.reps.tolist()
    assert firsts == sorted(firsts)  # classes are numbered by first member


# -------------------------------------------------------------- class matrix


def test_identity_class_matrix():
    g = make("named:S3")
    cd = conjugacy_classes(g)
    m = class_matrix(cd, 0)
    assert (m == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).all()


def test_transposition_pairs_hitting_identity():
    g = make("named:S3")
    cd = conjugacy_classes(g)
    t = cd.class_at[enumerate_elements(g).index((0, 2, 1))]
    m = class_matrix(cd, t)
    assert m[t][0] == 3  # three pairs (t, t^-1) multiply to the identity


@pytest.mark.parametrize("text", ["named:S3", "named:A4", "xsp:2:1", "psl2:5"])
def test_row_sum_identity(text):
    g = make(text)
    cd = conjugacy_classes(g)
    for i in range(cd.count):
        a = class_matrix(cd, i)
        for j in range(cd.count):
            assert sum(int(a[j][k]) * cd.sizes[k] for k in range(cd.count)) == (
                cd.sizes[i] * cd.sizes[j]
            )


# ------------------------------------------------------------------- modulus


@pytest.mark.parametrize(
    "text,modulus",
    [
        ("cyclic:1", 2),
        ("named:S3", 7),
        ("named:A4", 13),
        ("named:C5C4", 41),
        ("named:C11C5", 331),
        ("named:C7C6", 43),
        ("named:E8C7", 71),
        ("named:G72D", 73),
        ("named:G72Q", 73),
        ("named:A4A4", 151),
        ("psl2:5", 61),
        ("psl2:7", 337),
        ("xsp:2:1", 13),
        ("xsp:2:2", 37),
        ("xsp:3:1", 31),
        ("xsp:3:2", 271),
        ("xsp:5:1", 131),
    ],
)
def test_dixon_modulus(text, modulus):
    g = make(text)
    l = dixon_modulus(conjugacy_classes(g))
    assert l == modulus
    assert l > len(enumerate_elements(g))
    assert (l - 1) % exponent(g) == 0
    reps = rep_elements(g, conjugacy_classes(g))
    assert exponent(g) == lcm(*(element_order(g, x) for x in reps))


ORDER_CASES = REFERENCE_CASES + [
    (text, lambda text=text: make(text))
    for text in ("psl2:5", "psl2:37", "frob:2^8:17", "frob:191^1:19", "named:A4A4", "xsp:3:2")
]


@pytest.mark.parametrize(
    "build", [b for _, b in ORDER_CASES], ids=[t for t, _ in ORDER_CASES]
)
def test_walked_orders_match_element_order(build):
    """Orders walked over the index tables equal those got by multiplying."""
    g = build()
    cd = conjugacy_classes(g)
    assert representative_orders(cd) == [element_order(g, x) for x in rep_elements(g, cd)]


@pytest.mark.parametrize(
    "doctored,message",
    [
        ([1, 2, 3, 0, 5, 4], "position 1 has order 4, not dividing 6"),
        ([1, 2, 1, 4, 5, 3], "position 1: no power is the identity"),
    ],
)
def test_walked_order_must_divide_the_group_order(doctored, message):
    """Doctored tables of cyclic:6: the powers of position 1 return to 0
    after 4 steps, or never."""
    g = make("cyclic:6")
    cd = conjugacy_classes(g)
    assert np.array_equal(cd.tables.right, [[1, 2, 3, 4, 5, 0]])
    doctored = np.array([doctored], dtype=np.intp)
    bad = dataclasses.replace(cd, tables=dataclasses.replace(cd.tables, right=doctored))
    with pytest.raises(SelfCheckFailed, match=message):
        dixon_modulus(bad)


# ------------------------------------------------------------ Dixon degrees


FROZEN_DEGREES = [
    ("cyclic:1", [1]),
    ("cyclic:6", [1] * 6),
    ("named:S3", [1, 1, 2]),
    ("named:A4", [1, 1, 1, 3]),
    ("named:C5C4", [1, 1, 1, 1, 4]),
    ("named:C11C5", [1] * 5 + [5] * 2),
    ("named:C7C6", [1] * 6 + [6]),
    ("named:E8C7", [1] * 7 + [7]),
    ("named:G72D", [1, 1, 1, 1, 2, 4, 4, 4, 4]),
    ("named:G72Q", [1, 1, 1, 1, 2, 8]),
    ("named:A4A4", [1] * 9 + [3] * 6 + [9]),
    ("psl2:5", [1, 3, 3, 4, 5]),
    ("psl2:7", [1, 3, 3, 6, 7, 8]),
    ("xsp:2:1", [1, 1, 1, 1, 2]),
    ("xsp:2:2", [1] * 16 + [4]),
    ("xsp:3:1", [1] * 9 + [3, 3]),
    ("frob:5^1:4", [1, 1, 1, 1, 4]),
    ("frob:7^1:3", [1, 1, 1, 3, 3]),
    ("prod(cyclic:2,named:S3)", [1, 1, 1, 1, 2, 2]),
]


@pytest.mark.parametrize("text,expected", FROZEN_DEGREES, ids=[t for t, _ in FROZEN_DEGREES])
def test_character_degrees_frozen(text, expected):
    g = make(text)
    d = character_degrees(g)
    assert list(d.degrees) == expected
    assert d.group_order == len(enumerate_elements(g))


class _Perm:
    """A permutation that can be hashed and compared for equality, not order."""

    def __init__(self, images):
        self.images = tuple(images)

    def __eq__(self, other):
        return isinstance(other, _Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


def test_unorderable_elements():
    """Elements need only be hashable: the engine never orders them."""
    g = GroupRealization(
        identity=_Perm((0, 1, 2)),
        multiply=lambda a, b: _Perm(a.images[x] for x in b.images),
        generators=[_Perm((1, 2, 0)), _Perm((1, 0, 2))],
        descriptor="S3",
        expected_order=6,
    )
    with pytest.raises(TypeError):
        _Perm((0, 1, 2)) < _Perm((1, 0, 2))
    assert character_degrees(g).degrees == (1, 1, 2)


def test_degrees_deterministic():
    a = character_degrees(make("named:G72Q"))
    b = character_degrees(make("named:G72Q"))
    assert a == b


def test_degree_count_equals_class_count():
    for text in ["named:S3", "psl2:5", "xsp:3:1"]:
        g = make(text)
        assert len(character_degrees(g).degrees) == conjugacy_classes(g).count


def test_linear_count_equals_abelianization():
    from group_facts import group_data

    for text in ["named:A4", "named:G72Q", "frob:2^3:7", "xsp:3:1"]:
        g = make(text)
        ones = sum(1 for d in character_degrees(g).degrees if d == 1)
        assert ones == group_data(g).abelianization_order


# ---------------------------------------------------------- derived subgroup


CATALOG_CORPUS = sorted({t for t, _ in FROZEN_DEGREES} | set(REFERENCE_GROUPS))


# the class-bound bench specs and a G′ of order 1 with 499 cosets (JOINED);
# few cosets of a large G′ (WALKED): the two shapes of coset partition, one
# joined from many small classes, the other from few large ones
JOINED = ["prod(xsp:3:2,cyclic:3)", "prod(xsp:3:2,cyclic:2)", "xsp:3:2", "cyclic:499"]
WALKED = ["prod(frob:7^1:3,cyclic:7)"]
DERIVED_CASES = [
    (text, lambda text=text: make(text))
    for text in CATALOG_CORPUS + JOINED + ["prod(frob:7^1:3,cyclic:49)"] + WALKED
] + [
    (f"order{n}[{k}]", lambda t=t: table_to_realization(t))
    for n in range(1, 17)
    for k, t in enumerate(enumerate_groups(n))
]


def assert_element_path_cosets(g, cd, derived, coset_at):
    """|G′| and the cosets are those got by multiplying elements, numbered
    by their least positions (so G′ is coset 0), each class in one."""
    assert derived == derived_subgroup_order(g)
    want = np.unique(derived_coset_firsts(g), return_inverse=True)[1]
    assert coset_at.tolist() == want.tolist()
    for k in range(cd.count):
        assert len(set(coset_at[cd.members(k)].tolist())) == 1


@pytest.mark.parametrize(
    "build", [b for _, b in DERIVED_CASES], ids=[t for t, _ in DERIVED_CASES]
)
def test_derived_cosets_match_element_path(build):
    """|G′| over positions equals the one got by multiplying elements, and
    so do the cosets."""
    g = build()
    cd = conjugacy_classes(g)
    assert_element_path_cosets(g, cd, *degrees._derived_cosets(cd))


PARTIAL_JOIN_CASES = [
    (text, lambda text=text: make(text))
    for text in ["frob:2^3:7", "named:G72D", "prod(xsp:3:2,cyclic:2)", "psl2:7"]
] + [("order16[9]", lambda: table_to_realization(enumerate_groups(16)[9]))]


@pytest.mark.parametrize(
    "build", [b for _, b in PARTIAL_JOIN_CASES], ids=[t for t, _ in PARTIAL_JOIN_CASES]
)
def test_derived_cosets_fixpoint_from_partial_joins(monkeypatch, build):
    """With _join merging one pair a call, each joining call merges two
    blocks, the merges spread over several rounds once they outnumber the
    generators (psl2:7, named:G72D and order16[9]), and the fixpoint still
    reaches the element path's cosets."""
    g = build()
    cd = conjugacy_classes(g)  # its orbits are joined in full
    real, calls = degrees._join, []

    def one_pair(root, x, y):
        apart = np.flatnonzero(root[x] != root[y])
        calls.append(len(apart) > 0)
        real(root, x[apart[:1]], y[apart[:1]])

    monkeypatch.setattr(degrees, "_join", one_pair)
    derived, coset_at = degrees._derived_cosets(cd)
    merges, s = cd.count - len(cd.tables) // derived, len(cd.tables.right)
    assert sum(calls) == merges
    joining_rounds = sum(any(calls[i : i + s]) for i in range(0, len(calls), s))
    assert joining_rounds >= 2 or merges <= s
    assert_element_path_cosets(g, cd, derived, coset_at)


@pytest.mark.parametrize(
    "build", [b for _, b in DERIVED_CASES], ids=[t for t, _ in DERIVED_CASES]
)
def test_exponent_matches_element_orders(build):
    """exponent, walked over cyclic subgroups, is the lcm of every element's
    order got by multiplying."""
    g = build()
    assert exponent(g) == lcm(*(element_order(g, x) for x in enumerate_elements(g)))


def test_exponent_of_a_long_cycle():
    """One walk of the generator's powers covers all of cyclic:499."""
    assert exponent(make("cyclic:499")) == 499


def reference_split_order(cd):
    """degrees._split_order with one walk of powers per kept central class."""
    central, powers = [], set()
    for i, x in enumerate(cd.reps.tolist()):
        if i and cd.sizes[i] == 1 and x not in powers:
            central.append(i)
            powers.update(cd.tables.powers(x))
    return central + [i for i in range(1, cd.count) if cd.sizes[i] > 1]


COVER_CASES = [
    (text, lambda text=text: make(text))
    for text in CATALOG_CORPUS
    + [t for t, _ in SPLIT_CASES[len(REFERENCE_CASES) :]]
    + ["prod(xsp:3:2,cyclic:3)", "xsp:3:2"]
] + [
    (f"order{n}[{k}]", lambda t=t: table_to_realization(t))
    for n in range(1, 17)
    for k, t in enumerate(enumerate_groups(n))
]


@pytest.mark.parametrize("build", [b for _, b in COVER_CASES], ids=[t for t, _ in COVER_CASES])
def test_cover_matches_every_representative_walk(build):
    """The cover walks some representatives, yet gives the orders, exp(G),
    modulus and split order of walking every one: each class holds the
    power it is recorded with, and each walked order is the reference's."""
    g = build()
    cd = conjugacy_classes(g)
    orders = representative_orders(cd)
    walked, at = cd.cover
    assert walked[0] == [0] and at[0] == (0, 1)
    for i, ys in walked.items():
        assert len(ys) == orders[i]
    for k, (i, j) in enumerate(at):
        assert walked[i][j - 1] == k
        assert orders[i] % orders[k] == 0
    assert lcm(*map(len, walked.values())) == lcm(*orders) == exponent(g)
    assert dixon_modulus(cd) == representative_modulus(cd)
    assert degrees._split_order(cd) == reference_split_order(cd)


def test_cover_skips_representatives_whose_class_holds_a_walked_power():
    """frob:997^1:2 has 500 classes: the identity, a translation and an
    involution cover them, since every translation class holds a power of
    the first translation, and every involution is conjugate to the first."""
    cd = conjugacy_classes(make("frob:997^1:2"))
    assert sorted(map(len, cd.cover[0].values())) == [1, 2, 997]


@pytest.mark.parametrize("text", ["named:S3", "prod(named:A4,cyclic:3)", "xsp:3:1"])
def test_no_element_arithmetic_after_the_closure(text):
    """A realization with no inverse: once index_tables has run, classes,
    inverse classes and G′ come from the tables alone, so a multiply that
    raises is never reached."""
    ref = make(text)
    g = GroupRealization(
        identity=ref.identity,
        multiply=ref.multiply,
        generators=ref.generators,
        descriptor=ref.descriptor,
        expected_order=ref.expected_order,
    )
    index_tables(g)

    def refuse(a, b):
        raise AssertionError("multiply called after the closure")

    g.multiply = refuse
    cd = conjugacy_classes(g)
    derived, _ = degrees._derived_cosets(cd)
    reps, sizes, _, inverse_class, _ = reference_classes(ref)
    got = (rep_elements(g, cd), cd.sizes, cd.inverse_class)
    assert got == (reps, sizes, inverse_class)
    assert derived == derived_subgroup_order(ref)


def test_perfect_group_is_one_coset(monkeypatch):
    """psl2:37 is perfect: its classes join into one block within the first
    round, which ends the fixpoint without a confirming round."""
    cd = conjugacy_classes(make("psl2:37"))
    real, calls = degrees._join, []
    monkeypatch.setattr(degrees, "_join", lambda *a: calls.append(1) or real(*a))
    derived, coset_at = degrees._derived_cosets(cd)
    assert derived == len(cd.tables) and not coset_at.any()
    assert len(calls) <= len(cd.tables.right)


def wrong_cosets(monkeypatch, move):
    """Patch _derived_cosets so that move(derived, coset_at) returns its
    (wrong) answer."""
    real = degrees._derived_cosets

    def patched(cd):
        derived, coset_at = real(cd)
        return move(derived, coset_at.copy(), cd)

    monkeypatch.setattr(degrees, "_derived_cosets", patched)


def test_class_meeting_two_cosets_is_caught(monkeypatch):
    def move(derived, coset_at, cd):
        k = next(k for k, size in enumerate(cd.sizes) if size > 1)
        x = cd.members(k)[-1]  # not the rep
        coset_at[x] = (coset_at[x] + 1) % coset_at.max()
        return derived, coset_at

    wrong_cosets(monkeypatch, move)
    with pytest.raises(SelfCheckFailed, match="meets two cosets"):
        character_degrees(make("xsp:3:1"))


def test_wrong_derived_order_is_caught(monkeypatch):
    def move(derived, coset_at, cd):
        return derived * 3, coset_at

    wrong_cosets(monkeypatch, move)
    with pytest.raises(SelfCheckFailed, match="not r − "):
        character_degrees(make("xsp:3:1"))


def test_central_classes_split_first(monkeypatch):
    """Three many-class specs split W with 5 class matrices, each of a
    central class; splitting the full space took 161 + 127 + 72.  A
    central class that is a power of an earlier one is skipped: it was the
    sixth matrix, and split nothing."""
    built = []
    real = degrees.class_matrix

    def counting(cd, i, rows=None):
        built.append(cd.sizes[i])
        return real(cd, i, rows)

    monkeypatch.setattr(degrees, "class_matrix", counting)
    for text in ["prod(xsp:3:2,cyclic:3)", "prod(xsp:3:2,cyclic:2)", "xsp:3:2"]:
        character_degrees(make(text))
    assert built == [1] * 5


def test_split_order_keeps_one_central_class_per_cyclic_subgroup():
    """The centre of prod(xsp:3:2,cyclic:3) is C3 x C3: of its 8
    non-identity classes, one generator of each of its 4 subgroups of order
    3 is kept, and the other classes follow in ascending order."""
    cd = conjugacy_classes(make("prod(xsp:3:2,cyclic:3)"))
    order = degrees._split_order(cd)
    central = [i for i in range(1, cd.count) if cd.sizes[i] == 1]
    kept = order[:4]
    assert len(central) == 8 and set(kept) < set(central)
    assert order[4:] == [i for i in range(1, cd.count) if cd.sizes[i] > 1]
    powers = {x for i in kept for x in cd.tables.powers(int(cd.reps[i]))}
    assert {int(cd.reps[i]) for i in central} < powers


# -------------------------------------------------------------- closed forms


def test_frobenius_closed_form():
    assert list(frobenius_degrees_closed_form(3, 1, 2).degrees) == [1, 1, 2]
    d = frobenius_degrees_closed_form(2, 3, 7)
    assert list(d.degrees) == [1] * 7 + [7]
    assert d.group_order == 56
    d = frobenius_degrees_closed_form(191, 1, 19)
    assert list(d.degrees) == [1] * 19 + [19] * 10
    assert d.group_order == 3629


def test_extraspecial_closed_form():
    d = extraspecial_degrees_closed_form(3, 1)
    assert list(d.degrees) == [1] * 9 + [3, 3]
    assert d.group_order == 27
    d = extraspecial_degrees_closed_form(2, 2)
    assert list(d.degrees) == [1] * 16 + [4]
    d = extraspecial_degrees_closed_form(5, 2)
    assert list(d.degrees) == [1] * 625 + [25] * 4
    assert d.group_order == 5**5


def test_closed_form_validation():
    with pytest.raises(InvalidParam):
        frobenius_degrees_closed_form(6, 1, 5)
    with pytest.raises(OrderNotDividing):
        frobenius_degrees_closed_form(2, 3, 5)
    with pytest.raises(InvalidParam):
        extraspecial_degrees_closed_form(4, 1)


def test_product_degrees():
    one = DegreeMultiset(degrees=(1,), group_order=1)
    a4 = DegreeMultiset(degrees=(1, 1, 1, 3), group_order=12)
    assert product_degrees(one, a4) == a4
    d = product_degrees(a4, a4)
    assert list(d.degrees) == [1] * 9 + [3] * 6 + [9]
    assert d.group_order == 144
    s3 = DegreeMultiset(degrees=(1, 1, 2), group_order=6)
    p = product_degrees(a4, s3)
    assert sum(x * x for x in p.degrees) == 12 * 6


def test_dixon_matches_closed_forms():
    assert list(character_degrees(make("frob:5^1:4")).degrees) == list(
        frobenius_degrees_closed_form(5, 1, 4).degrees
    )
    assert list(character_degrees(make("xsp:3:1")).degrees) == list(
        extraspecial_degrees_closed_form(3, 1).degrees
    )
    xsp = extraspecial_degrees_closed_form(3, 2)
    assert character_degrees(make("xsp:3:2")) == xsp
    assert character_degrees(make("prod(xsp:3:2,cyclic:3)")) == product_degrees(
        xsp, character_degrees(make("cyclic:3"))
    )
    left = character_degrees(make("prod(named:S3,named:A4)"))
    right = product_degrees(
        character_degrees(make("named:S3")), character_degrees(make("named:A4"))
    )
    assert left == right


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (7, 2)])
def test_many_class_extraspecial_matches_closed_form(p, n):
    """629, 731 and 2,407 classes, over the default class cap of 500."""
    g = make(f"xsp:{p}:{n}")
    with pytest.raises(CapExceeded):
        character_degrees(g)
    assert character_degrees(g, class_cap=2407) == extraspecial_degrees_closed_form(p, n)


def test_abelian_group_needs_no_split(monkeypatch):
    """cyclic:499 has 499 classes and G′ = 1, so W is empty: no modulus is
    chosen and no class matrix is built."""

    def unused(*args):
        raise AssertionError("an abelian group needs no linear algebra")

    monkeypatch.setattr(degrees, "class_matrix", unused)
    monkeypatch.setattr(degrees, "dixon_modulus", unused)
    d = character_degrees(make("cyclic:499"))
    assert d.degrees == (1,) * 499


# ---------------------------------------------------------------- invariants


def test_multiset_invariant_checks():
    with pytest.raises(SumOfSquaresMismatch):
        DegreeMultiset(degrees=(1, 2), group_order=6)
    with pytest.raises(SelfCheckFailed):
        DegreeMultiset(degrees=(1, 2), group_order=5)  # 2 does not divide 5
    with pytest.raises(SelfCheckFailed):
        DegreeMultiset(degrees=(2,), group_order=4)  # no linear character
    d = DegreeMultiset(degrees=(2, 1, 1), group_order=6)
    assert d.degrees == (1, 1, 2)  # normalized ascending
