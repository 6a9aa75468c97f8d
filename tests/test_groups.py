"""Group engine tests on small hand-built realizations."""

import pytest

from chardeg.errors import CapExceeded, SelfCheckFailed
from chardeg.groups import (
    GroupRealization,
    direct_product,
    element_order,
    enumerate_elements,
    exponent,
    derived_subgroup_order,
    group_data,
)


def ints_mod(n, expected=None):
    return GroupRealization(
        identity=0,
        multiply=lambda a, b: (a + b) % n,
        inverse=lambda a: (-a) % n,
        generators=[1 % n],
        descriptor=f"Z{n}",
        expected_order=n if expected is None else expected,
    )


def perm_group(gens, npts, name, expected):
    def mul(a, b):
        return tuple(a[x] for x in b)

    def inv(a):
        out = [0] * npts
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    return GroupRealization(
        identity=tuple(range(npts)),
        multiply=mul,
        inverse=inv,
        generators=[tuple(g) for g in gens],
        descriptor=name,
        expected_order=expected,
    )


def sym3():
    return perm_group([(1, 2, 0), (1, 0, 2)], 3, "S3", 6)


def test_cyclic_enumeration():
    g = ints_mod(12)
    els = enumerate_elements(g)
    assert els == tuple(range(12))
    assert element_order(g, 0) == 1
    assert element_order(g, 4) == 3
    assert element_order(g, 5) == 12
    assert exponent(g) == 12
    assert derived_subgroup_order(g) == 1


def test_trivial_group():
    g = GroupRealization(
        identity=0,
        multiply=lambda a, b: 0,
        inverse=lambda a: 0,
        generators=[],
        descriptor="1",
        expected_order=1,
    )
    assert enumerate_elements(g) == (0,)
    assert exponent(g) == 1
    assert derived_subgroup_order(g) == 1


def test_sym3_structure():
    g = sym3()
    els = enumerate_elements(g)
    assert len(els) == 6
    assert els[0] == g.identity  # the identity is discovered first
    assert element_order(g, (1, 0, 2)) == 2
    assert element_order(g, (1, 2, 0)) == 3
    assert exponent(g) == 6
    assert derived_subgroup_order(g) == 3
    data = group_data(g)
    assert (data.order, data.exponent, data.derived_order) == (6, 6, 3)
    assert data.abelianization_order == 2


def test_closure_contains_inverses_and_products():
    g = sym3()
    els = set(enumerate_elements(g))
    for a in els:
        assert g.inverse(a) in els
        for b in els:
            assert g.multiply(a, b) in els


def test_direct_product():
    g = direct_product(ints_mod(4), ints_mod(6))
    els = enumerate_elements(g)
    assert len(els) == 24
    assert g.identity == (0, 0)
    assert els[0] == (0, 0)
    assert exponent(g) == 12
    assert derived_subgroup_order(g) == 1


def test_direct_product_nonabelian():
    g = direct_product(sym3(), sym3())
    data = group_data(g)
    assert data.order == 36
    assert data.derived_order == 9
    assert data.abelianization_order == 4


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_elements(ints_mod(100), cap=10)


def test_expected_order_mismatch():
    with pytest.raises(SelfCheckFailed):
        enumerate_elements(ints_mod(12, expected=13))
