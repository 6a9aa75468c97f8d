"""Group engine tests on small hand-built realizations, and the closure
over integer codes against the closure by multiply on catalog groups."""

import numpy as np
import pytest

from chardeg import degrees, groups
from chardeg.catalog import parse_spec, realize
from chardeg.errors import CapExceeded, SelfCheckFailed
from chardeg.groups import (
    GroupRealization,
    direct_product,
    enumerate_elements,
    index_tables,
)

from chardeg.smallgroups import enumerate_groups, table_to_realization

from group_facts import derived_subgroup_order, element_order, exponent, group_data


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
    for x, e in enumerate(enumerate_elements(g)):
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


# ------------------------------------------------- closure over codes

EQUIVALENCE_SPECS = [
    "psl2:2",
    "psl2:3",
    "psl2:7",
    "psl2:37",
    "frob:2^3:7",
    "frob:2^8:17",
    "named:S3",
    "named:G72D",
    "named:G72Q",
    "affine:3^2:0,2,1,0;1,0,0,2",
    "affine:257^1:16",
    "xsp:2:1",
    "xsp:3:2",
    "xsp:2:2",
    "prod(psl2:5,cyclic:3)",
    "prod(xsp:3:2,cyclic:3)",
    "named:A4A4",
    "prod(prod(cyclic:2,cyclic:3),xsp:3:1)",
]


def without_coding(g):
    """The same generators, closed by multiply one product at a time."""
    return GroupRealization(
        identity=g.identity,
        multiply=g.multiply,
        generators=g.generators,
        descriptor=g.descriptor,
        expected_order=g.expected_order,
    )


@pytest.fixture
def coded(monkeypatch):
    """Close coded realizations over their codes whatever their order."""
    monkeypatch.setattr(groups, "_CODES_FROM", 0)


# The test names keep "rows" from the closure over rows of image tuples that
# the closure over codes replaced.
@pytest.mark.parametrize("text", EQUIVALENCE_SPECS)
def test_closure_over_rows_matches_multiply(text, coded):
    """The closure over codes gives the positions and tables of the closure
    by multiply, and its elements multiplied out along the tree are the
    ones the closure by multiply keeps."""
    g = realize(parse_spec(text))
    assert g.coding is not None  # every spec is coded
    codes, ref = index_tables(g), index_tables(without_coding(g))
    assert codes.elements is None
    assert codes.right.flags.c_contiguous
    for name in ("right", "parent", "via"):
        a, b = getattr(codes, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.intp, name
        assert np.array_equal(a, b), name
    assert enumerate_elements(g) == ref.elements


def assert_class_walks_agree(t):
    """The numpy walk over levels and the Python walk over positions give
    the same classes on the same tables."""
    levels, walk = degrees._level_classes(t), degrees._walk_classes(t)
    assert levels[:2] == walk[:2]  # sizes and inverse_class
    for a, b in zip(levels[2:], walk[2:]):  # class_at and reps
        assert a.dtype == b.dtype == np.intp
        assert np.array_equal(a, b)


@pytest.mark.parametrize("text", EQUIVALENCE_SPECS)
def test_class_walks_agree_over_codes(text, coded):
    t = index_tables(realize(parse_spec(text)))
    assert t.elements is None  # conjugacy_classes walks it by levels
    assert_class_walks_agree(t)


@pytest.mark.parametrize("order", [8, 12])
def test_class_walks_agree_on_cayley_tables(order):
    for table in enumerate_groups(order):
        t = index_tables(table_to_realization(table))
        assert t.elements is not None  # conjugacy_classes walks it in Python
        assert_class_walks_agree(t)


@pytest.mark.parametrize("text", EQUIVALENCE_SPECS)
def test_closure_over_rows_cap_message_matches(text, coded):
    g = realize(parse_spec(text))
    cap = min(20, g.expected_order // 2)
    messages = []
    for h in (g, without_coding(g)):
        with pytest.raises(CapExceeded) as err:
            index_tables(h, cap=cap)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0] == f"{g.descriptor}: closure exceeded cap of {cap} elements"


CODED_SPECS = [
    "psl2:2",
    "psl2:3",
    "psl2:5",
    "psl2:37",
    "frob:2^8:17",
    "frob:191^1:19",
    "frob:7^2:16",
    "named:S3",
    "named:A4",
    "named:G72D",
    "named:G72Q",
    "affine:3^2:0,2,1,0;1,0,0,2",
    "affine:257^1:16",
    "xsp:2:1",
    "xsp:3:2",
    "xsp:2:2",
    "prod(xsp:3:2,cyclic:3)",
    "named:A4A4",
    "prod(prod(cyclic:2,cyclic:3),xsp:3:1)",
]


def test_codes_lie_below_code_space(coded):
    """Each family's codes are exactly range(|G|): act maps every code below
    the order, each generator permutes the codes, and the closure reaches
    all of them."""
    for text in CODED_SPECS:
        g = realize(parse_spec(text))
        n = g.expected_order
        prods = g.coding(n)(np.arange(n))
        assert prods.shape == (n, len(g.generators)), text
        for col in prods.T:
            assert (np.sort(col) == np.arange(n)).all(), text
        assert len(index_tables(g)) == n, text
    # 257 points: the image tuples rebuilt from the codes keep point 256
    els = enumerate_elements(realize(parse_spec("affine:257^1:16")))
    assert len(els) == 257 * 4
    assert max(max(e) for e in els) == 256


def test_coded_closure_short_of_its_order_is_caught():
    """Adding 2 to the codes of Z70 reaches only the 35 even ones: the
    closure over codes ends short of the order, its tables are cut to the
    positions found, and index_tables' order check fires."""
    g = GroupRealization(
        identity=0,
        multiply=None,  # never called: 70 codes are closed over codes
        generators=[2],
        descriptor="Z70 by 2",
        expected_order=70,
        coding=lambda cap: lambda codes: ((codes + 2) % 70)[:, None],
    )
    with pytest.raises(SelfCheckFailed, match="Z70 by 2: realized 35 elements, expected 70"):
        index_tables(g)


def test_small_groups_close_by_multiply():
    """Below groups._CODES_FROM elements a level of numpy calls costs more
    than its few products, so small coded groups are closed by multiply."""
    small, large = realize(parse_spec("frob:2^3:7")), realize(parse_spec("frob:2^4:5"))
    assert (small.expected_order, large.expected_order) == (56, 80)
    assert index_tables(small).elements is not None
    assert index_tables(large).elements is None
    assert groups._CODES_FROM == 64


def test_product_factors_close_under_its_cap(monkeypatch):
    """A product closes its factors under its own cap, and a factor larger
    than that cap is reported as the product's closure exceeding it."""
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 100)
    monkeypatch.setattr(groups.index_tables, "__defaults__", (100,))
    text = "prod(cyclic:2,xsp:3:2)"
    assert len(index_tables(realize(parse_spec(text)), cap=486)) == 486
    for cap in (485, 200):  # 243 elements of xsp:3:2 fit under 485, not 200
        messages = []
        for h in (realize(parse_spec(text)), without_coding(realize(parse_spec(text)))):
            with pytest.raises(CapExceeded) as err:
                index_tables(h, cap=cap)
            messages.append(str(err.value))
        assert messages == [f"{text}: closure exceeded cap of {cap} elements"] * 2
