"""Group engine tests on small hand-built realizations, and the closure
over rows against the closure by multiply on catalog groups."""

import numpy as np
import pytest

from chardeg.catalog import parse_spec, realize
from chardeg.errors import CapExceeded, SelfCheckFailed
from chardeg.groups import (
    GroupRealization,
    _row_dtype,
    direct_product,
    element_order,
    enumerate_elements,
    exponent,
    derived_subgroup_order,
    group_data,
    index_tables,
)


def ints_mod(n, expected=None):
    return GroupRealization(
        identity=0,
        multiply=lambda a, b: (a + b) % n,
        generators=[1 % n],
        descriptor=f"Z{n}",
        expected_order=n if expected is None else expected,
    )


def perm_group(gens, npts, name, expected):
    def mul(a, b):
        return tuple(a[x] for x in b)

    return GroupRealization(
        identity=tuple(range(npts)),
        multiply=mul,
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
        assert any(g.multiply(a, b) == g.identity for b in els)
        for b in els:
            assert g.multiply(a, b) in els


def test_word_multiplies_out_to_its_element():
    g = sym3()
    t = index_tables(g)
    assert t.word(0) == []
    for x, e in enumerate(t.elements):
        y = g.identity
        for j in t.word(x):
            y = g.multiply(y, g.generators[j])
        assert y == e


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


# ------------------------------------------------- closure over rows

EQUIVALENCE_SPECS = [
    "psl2:7",
    "psl2:37",
    "frob:2^3:7",
    "frob:2^8:17",
    "named:G72Q",
    "affine:3^2:0,2,1,0;1,0,0,2",
    "prod(psl2:5,cyclic:3)",  # pairs: no act on either side
]


def without_act(g):
    """The same generators, closed by multiply one product at a time."""
    return GroupRealization(
        identity=g.identity,
        multiply=g.multiply,
        generators=g.generators,
        descriptor=g.descriptor,
        expected_order=g.expected_order,
    )


@pytest.mark.parametrize("text", EQUIVALENCE_SPECS)
def test_closure_over_rows_matches_multiply(text):
    g = realize(parse_spec(text))
    assert (g.act is None) == text.startswith("prod(")
    rows, ref = index_tables(g), index_tables(without_act(g))
    assert (rows.rows is None) == (g.act is None)
    assert rows.elements == ref.elements
    assert rows.right == ref.right
    assert rows.parent == ref.parent
    assert rows.via == ref.via
    for x in (0, 1, len(ref) // 2, len(ref) - 1):
        assert rows.element(x) == ref.elements[x]


@pytest.mark.parametrize("text", EQUIVALENCE_SPECS)
def test_closure_over_rows_cap_message_matches(text):
    g = realize(parse_spec(text))
    messages = []
    for h in (g, without_act(g)):
        with pytest.raises(CapExceeded) as err:
            index_tables(h, cap=20)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0] == f"{g.descriptor}: closure exceeded cap of 20 elements"


def test_row_dtype_holds_every_point():
    assert _row_dtype(1) == np.uint8
    assert _row_dtype(256) == np.uint8
    assert _row_dtype(257) == np.uint16
    assert _row_dtype(65536) == np.uint16
    assert _row_dtype(65537) == np.uint32
    assert index_tables(realize(parse_spec("frob:2^8:17"))).rows.dtype == np.uint8
    t = index_tables(realize(parse_spec("affine:257^1:16")))  # 257 points
    assert t.rows.dtype == np.uint16
    assert len(t) == 257 * 4
    assert max(max(e) for e in t.elements) == 256
