"""Enumerator tests: counts, isomorphism, and catalog cross-checks.

Class counts for small orders are classical: (1,1,1,2,1,2,1,5,2,2) for
n = 1..10 and (1,5,1,2,1,14) for n = 11..16.
"""

import pytest

from chardeg.catalog import parse_spec, realize
from chardeg.degrees import character_degrees
from chardeg.errors import BudgetExceeded, InvalidParam, SelfCheckFailed
from chardeg.groups import enumerate_elements
from chardeg.smallgroups import (
    CayleyTable,
    _fingerprint,
    _Search,
    enumerate_groups,
    is_isomorphic,
    table_to_realization,
)

COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
}


class _FirstOccurrenceSearch(_Search):
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
    from chardeg.groups import derived_subgroup_order

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
    loop = CayleyTable(
        5,
        (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        ),
    )
    assert not loop.is_associative()
