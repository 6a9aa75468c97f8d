"""Enumerator tests: counts, isomorphism, and catalog cross-checks.

Class counts for small orders are classical: (1,1,1,2,1,2,1,5,2,2) for
n = 1..10 and (1,5,1,2,1,14) for n = 11..16.
"""

import hashlib
from math import factorial

import pytest

from chardeg.arith import factor
from chardeg.catalog import parse_spec, realize
from chardeg.degrees import character_degrees
from chardeg.errors import BudgetExceeded, InvalidParam, SelfCheckFailed
from chardeg.groups import _closure, enumerate_elements
from chardeg.smallgroups import (
    _SYMMETRY_ENTRIES,
    CayleyTable,
    _fingerprint,
    _relabellings,
    _Search,
    enumerate_groups,
    is_isomorphic,
    table_to_realization,
)

from reference_search import ReferenceSearch

COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
}

# sha256 of repr([t.table for t in enumerate_groups(n)]), taken before the
# sub-searches pruned relabelled tables.
TABLES_GOLDEN = {
    1: "4ac279b94d8c735ee76858c2b50da00526af1f31a8c2e829581bbbeae1fea620",
    2: "d38b092e58757f89eb1061ccf8439cd715c8b7db3cbfa41122d1a8ca3bac7eca",
    3: "3fbf8e55fa658d03b1ce61f99060ce70167599881f25691c471ed13a62f9a8f5",
    4: "aad849db59633be0370b7773f8a43c3b1ebe06c70630eeb05a5db1debf62dec3",
    5: "98727697c6837a46a8ae6ed5ffef9037ed0f4327db1f8ba8cf3b804c5d725f94",
    6: "b8525a6fbdf1fd69e56cd46cb4cbf4012e4e18c1a56399970088a65be992d635",
    7: "9e00b08c520ea96826a0eda85e2f951e158d6cc44263321aacae5e3842fbff91",
    8: "24692fa851e28664ae515c1d8f3b74cc0573015dbdaec2a2e037466345962ffb",
    9: "55f16e0da17dad48c81363221f97af790fd8f903d0110decb58edd13c78d29ae",
    10: "aa2c9f39de5f7e87c47c372a71d8cc33d6abc95609663b8864b596b5f6cac6ba",
    11: "931e722c9a3753160fafcc866c9e3940be25e426b2a7a21269d88931757f44c6",
    12: "3bb5d955bade6119efe757e4f68eeda8c3acddad86e9432fdeaafd6afabbca1c",
    13: "d29f894985c8529dd1fe9645119e87f704b167f8d0c8fd295c69d19dda770ae1",
    14: "db0ced445c5241dd575043100290de8a25f4a629b1770663f62fbaa7277ab1bb",
    15: "047d904965113a98e84d3ccdbde94f8c904219ab32b038ac2262167377831698",
    16: "5f57723305c356da035e42686ee4731287808c6ce7f9eb1db1f268e7ee7f0e8b",
}

LOOP = CayleyTable(  # a Latin square with identity that is not associative
    5,
    (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    ),
)


class _FirstOccurrenceSearch(ReferenceSearch):
    """The search with row 1 filled by backtracking under the first-occurrence
    rule: scanning row 1 left to right, a value may exceed everything seen so
    far by at most one.  Every class has such a labelling (relabel by order
    of first appearance), so it loses no class."""

    def run(self):
        cell = self.next_cell()
        if cell is None:
            table = CayleyTable(self.n, tuple(tuple(row) for row in self.table))
            if not table.is_associative():
                raise SelfCheckFailed("search emitted a non-associative table")
            self.found.append(table)
            return
        r, c = cell
        if r == 1:
            seen = max((v for v in self.table[1][1:c] if v != -1), default=1)
            bound = min(max(seen, c) + 1, self.n - 1)
        else:
            bound = self.n - 1
        for v in range(bound + 1):
            self.nodes += 1
            mark = len(self.trail)
            queue = []
            if self.assign(r, c, v, queue) and self.propagate(queue):
                self.run()
            self.undo_to(mark)


class _UnprunedSearch(_Search):
    """The search with order and lex-leader pruning off: every table with
    row 1 in the pattern, whatever its largest element order."""

    def survivors(self, alive, cell):
        return alive


class _NoPropagation(_Search):
    """The search with associativity propagation off, so its leaves are any
    Latin squares with row 1 in the pattern."""

    def propagate(self, queue):
        return True


def associative_by_loop(t: CayleyTable) -> bool:
    tab, rng = t.table, range(t.n)
    return all(
        tab[tab[a][b]][c] == tab[a][tab[b][c]] for a in rng for b in rng for c in rng
    )


def relabel(table, pi):
    """T^pi: T^pi[pi(a)][pi(b)] = pi(T[a][b])."""
    out = [[0] * len(pi) for _ in pi]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[pi[a]][pi[b]] = pi[c]
    return tuple(map(tuple, out))


def sub_searches(n):
    least = factor(n)[-1][0] if n > 1 else 1
    return [m for m in range(least, n + 1) if n % m == 0]


# (n, m) for every sub-search of order n <= 12 with relabellings to prune by
SYMMETRIC = [(n, m) for n in range(2, 13) for m in sub_searches(n) if 2 < m < n]


def reference_enumerate(n):
    """The enumerator before the largest-order rule: one first-occurrence
    search, then the same fingerprint and isomorphism dedup."""
    search = _FirstOccurrenceSearch(n, budget=10**9)
    search.run()
    kept = []
    for t in search.found:
        fp = _fingerprint(t)
        if not any(fp == fp2 and is_isomorphic(t, k) for k, fp2 in kept):
            kept.append((t, fp))
    return [t for t, _ in kept]


def realization_to_table(g) -> CayleyTable:
    els = enumerate_elements(g)
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    return CayleyTable(
        n, tuple(tuple(idx[g.multiply(a, b)] for b in els) for a in els)
    )


def from_spec(text) -> CayleyTable:
    return realization_to_table(realize(parse_spec(text)))


@pytest.mark.parametrize("n,count", sorted(COUNTS.items()))
def test_group_counts(n, count):
    groups = enumerate_groups(n)
    assert len(groups) == count
    for t in groups:
        assert t.is_associative()
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            assert not is_isomorphic(a, b)
    tops = [max(t.element_orders()) for t in groups]
    assert tops == sorted(tops)  # ascending largest element order


@pytest.mark.parametrize("n", range(1, 11))
def test_matches_reference_enumeration(n):
    """Each class matches exactly one first-occurrence class, and back."""
    mine, ref = enumerate_groups(n), reference_enumerate(n)
    for a in mine:
        assert sum(is_isomorphic(a, b) for b in ref) == 1
    for b in ref:
        assert sum(is_isomorphic(b, a) for a in mine) == 1


@pytest.mark.parametrize("n", sorted(TABLES_GOLDEN))
def test_tables_golden(n):
    tables = [t.table for t in enumerate_groups(n)]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == TABLES_GOLDEN[n]


@pytest.mark.parametrize("n", range(1, 17))
def test_sub_searches_match_full_table_search(n):
    """Each sub-search returns the full-table reference search's tables, in
    its order, in no more nodes."""
    for m in sub_searches(n):
        mine, ref = _Search(n, budget=10**9), ReferenceSearch(n, budget=10**9)
        assert [t.table for t in mine.sub_search(m)] == [
            t.table for t in ref.sub_search(m)
        ], m
        assert mine.nodes <= ref.nodes, m


def test_symmetric_sub_searches_listed():
    assert SYMMETRIC == [(6, 3), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4), (12, 6)]
    for n in range(2, 13):
        for m in sub_searches(n):
            assert (len(_relabellings(n, m)) > 0) == ((n, m) in SYMMETRIC)


@pytest.mark.parametrize("n,m", SYMMETRIC)
def test_sub_search_keeps_lex_least_of_each_orbit(n, m):
    """Up to n = 12 the relabellings are all of Pi minus the identity, so
    the pruned sub-search returns the lex-least table of each Pi-orbit of
    the unpruned one's tables of largest element order m, in lex order."""
    k = n // m
    identity = tuple(range(n))
    perms = [tuple(p) for p in _relabellings(n, m).tolist()]
    row1 = [c // m * m + (c % m + 1) % m for c in range(n)]
    # fixing 0 and commuting with row 1 makes pi an element of Pi
    assert len(set(perms)) == len(perms) == factorial(k - 1) * m ** (k - 1) - 1
    for pi in perms:
        assert sorted(pi) == list(identity) and pi != identity and pi[0] == 0
        assert all(pi[row1[x]] == row1[pi[x]] for x in range(n))
    unpruned = {
        t.table
        for t in _UnprunedSearch(n, budget=10**9).sub_search(m)
        if max(t.element_orders()) == m
    }
    leaders = sorted({min(relabel(t, pi) for pi in [identity, *perms]) for t in unpruned})
    assert set(leaders) <= unpruned
    pruned = _Search(n, budget=10**9).sub_search(m)
    assert [t.table for t in pruned] == leaders
    assert all(max(t.element_orders()) == m for t in pruned)


@pytest.mark.parametrize("n", range(2, 31))
def test_relabellings_stay_under_entry_budget(n):
    """|S| * n^2 bounds the permutation arrays and each node's gather; at
    order 30, m = 5, Pi has 5! * 5^5 = 375,000 elements."""
    for m in sub_searches(n):
        perms = _relabellings(n, m)
        assert len(perms) * n * n <= _SYMMETRY_ENTRIES
        assert (perms[:, :2] == [0, 1]).all()
        assert (perms.argsort(axis=1).argsort(axis=1) == perms).all()
    assert len(_relabellings(30, 5)) == _SYMMETRY_ENTRIES // 900


def test_associativity_check_matches_triple_loop():
    tables = [t for n in range(1, 17) for t in enumerate_groups(n)]
    for t in tables + [LOOP]:
        assert t.is_associative() == associative_by_loop(t)


def reference_generator_chain(t: CayleyTable) -> tuple[int, ...]:
    """Greedy generators, each subgroup closed by the engine's closure."""
    gens, closed = [], (0,)
    while len(closed) < t.n:
        gens.append(next(x for x in range(t.n) if x not in closed))
        closed = _closure(0, lambda a, b: t.table[a][b], gens, t.n, f"table:{t.n}").elements
    return tuple(gens)


def test_generator_chain_matches_closure_reference():
    tables = [t for n in range(1, 17) for t in enumerate_groups(n)]
    assert len(tables) == 42
    for t in tables:
        assert t.generator_chain == reference_generator_chain(t)


def test_search_without_propagation_fails_its_self_check(monkeypatch):
    """With propagation off, the first leaf is not associative, and the
    search raises there rather than emit it."""
    checked = []
    check = CayleyTable.is_associative

    def recording(self):
        checked.append(self)
        return check(self)

    monkeypatch.setattr(CayleyTable, "is_associative", recording)
    search = _NoPropagation(6, budget=10**9)
    with pytest.raises(SelfCheckFailed):
        search.sub_search(3)
    assert len(checked) == 1 and search.found == []
    assert not associative_by_loop(checked[0])


def test_sub_searches_share_one_budget():
    """Order 12 runs sub-searches for m = 3, 4, 6, 12; a budget that covers
    the largest of them alone but not their sum must still be exceeded."""
    nodes = []
    for m in (3, 4, 6, 12):
        search = _Search(12, budget=10**9)
        search.sub_search(m)
        nodes.append(search.nodes)
    assert max(nodes) < sum(nodes)
    with pytest.raises(BudgetExceeded):
        enumerate_groups(12, budget=max(nodes))
    assert len(enumerate_groups(12, budget=sum(nodes))) == 5


def test_pruning_keeps_node_counts_down():
    """The pruned searches take 348 and 638 nodes (576 and 990 by the
    full-table reference search); with no pruning orders 12 and 16 take
    7,248 and 28,814 by the reference."""
    assert len(enumerate_groups(12, budget=600)) == 5
    assert len(enumerate_groups(16, budget=1000)) == 14


def test_propagation_keeps_node_counts_down():
    """The representative-row search takes 348 nodes at order 12 and 9,408
    at order 24; with either the (pq,r) or the (p,qr) cell left out of the
    propagation it takes 9,720 or 9,792 at order 24."""
    assert len(enumerate_groups(12, budget=348)) == 5
    assert len(enumerate_groups(24, budget=9408, cap=24)) == 15


@pytest.mark.parametrize("n", [4, 8, 16])
def test_exponent_two_sub_search_stops_at_first_table(n):
    """Fixing row 1 and the diagonal leaves only elementary abelian tables,
    one class, so the m = 2 sub-search returns one."""
    tables = _Search(n, budget=10**9).sub_search(2)
    assert len(tables) == 1
    assert set(tables[0].element_orders()) == {1, 2}


def test_order_one_and_two():
    assert enumerate_groups(1)[0].table == ((0,),)
    assert enumerate_groups(2)[0].table == ((0, 1), (1, 0))


def test_order_six_structures():
    groups = enumerate_groups(6)
    degs = sorted(
        tuple(character_degrees(table_to_realization(t)).degrees) for t in groups
    )
    assert degs == [(1, 1, 1, 1, 1, 1), (1, 1, 2)]


def test_order_eight_profiles_distinct():
    profiles = {tuple(sorted(t.element_orders())) for t in enumerate_groups(8)}
    assert len(profiles) == 5
    assert (1, 2, 2, 2, 2, 2, 4, 4) in profiles  # dihedral
    assert (1, 2, 4, 4, 4, 4, 4, 4) in profiles  # quaternion


def test_deterministic_output():
    a = enumerate_groups(8)
    b = enumerate_groups(8)
    assert [t.table for t in a] == [t.table for t in b]


def test_table_to_realization():
    t = enumerate_groups(1)[0]
    assert enumerate_elements(table_to_realization(t)) == (0,)
    nonabelian = next(
        t
        for t in enumerate_groups(6)
        if sorted(t.element_orders()) == [1, 2, 2, 2, 3, 3]
    )
    from group_facts import derived_subgroup_order

    g = table_to_realization(nonabelian)
    assert sorted(enumerate_elements(g)) == list(range(6))
    assert derived_subgroup_order(g) == 3


def test_is_isomorphic_basic():
    c4 = from_spec("cyclic:4")
    klein = from_spec("prod(cyclic:2,cyclic:2)")
    assert is_isomorphic(c4, c4)
    assert not is_isomorphic(c4, klein)
    d8 = from_spec("xsp:2:1")
    q8 = next(
        t
        for t in enumerate_groups(8)
        if sorted(t.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    )
    assert not is_isomorphic(d8, q8)
    assert is_isomorphic(from_spec("named:S3"), from_spec("frob:3^1:2"))


@pytest.mark.parametrize(
    "text",
    [
        "cyclic:1",
        "cyclic:2",
        "cyclic:3",
        "cyclic:4",
        "cyclic:5",
        "cyclic:6",
        "cyclic:7",
        "cyclic:8",
        "named:S3",
        "xsp:2:1",
        "prod(cyclic:2,cyclic:2)",
        "prod(cyclic:2,cyclic:4)",
    ],
)
def test_catalog_realizations_are_found(text):
    mine = from_spec(text)
    matches = [t for t in enumerate_groups(mine.n) if is_isomorphic(mine, t)]
    assert len(matches) == 1


def test_degree_consistency_with_catalog():
    d8 = from_spec("xsp:2:1")
    match = next(t for t in enumerate_groups(8) if is_isomorphic(d8, t))
    assert character_degrees(table_to_realization(match)) == character_degrees(
        realize(parse_spec("xsp:2:1"))
    )


def test_budget_and_cap():
    with pytest.raises(BudgetExceeded):
        enumerate_groups(12, budget=50)
    with pytest.raises(BudgetExceeded):
        enumerate_groups(17)
    with pytest.raises(InvalidParam):
        enumerate_groups(0)


def test_table_validation():
    with pytest.raises(InvalidParam):
        CayleyTable(2, ((0, 1),))  # wrong shape
    with pytest.raises(InvalidParam):
        CayleyTable(2, ((1, 0), (0, 1)))  # 0 not the identity
    with pytest.raises(InvalidParam):
        CayleyTable(2, ((0, 1), (1, 1)))  # not Latin


def test_nonassociative_loop_detected():
    assert not LOOP.is_associative()
