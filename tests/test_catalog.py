"""Spec grammar and realization tests.

Structure facts (orders, exponents, derived subgroup orders) were computed
independently with a general-purpose computer algebra system and frozen here.
"""

import hashlib

import pytest

from chardeg import catalog
from chardeg.catalog import (
    MAX_PROD_NESTING,
    Affine,
    Cyclic,
    Frob,
    Named,
    Prod,
    Psl2,
    Xsp,
    element_text,
    expected_order,
    named_witnesses,
    parse_spec,
    realize,
    spec_text,
    witnesses_for_degree,
)
from chardeg.errors import CapExceeded, InvalidParam, SpecSyntaxError
from chardeg.ffield import digits, multiplier, undigits
from chardeg.groups import enumerate_elements, index_tables

from group_facts import exponent, group_data

ROUND_TRIP = [
    "cyclic:1",
    "cyclic:60",
    "frob:2^3:7",
    "frob:191^1:19",
    "psl2:5",
    "xsp:3:2",
    "named:G72Q",
    "affine:3^1:2",
    "affine:3^2:0,2,1,0;1,0,0,2",
    "prod(named:A4,named:A4)",
    "prod(affine:2^1:1,cyclic:3)",
    "prod(prod(cyclic:2,cyclic:3),psl2:5)",
]


def test_parse_examples():
    assert parse_spec("psl2:5") == Psl2(5)
    assert parse_spec("frob:2^3:7") == Frob(2, 3, 7)
    assert parse_spec("prod(named:A4,named:A4)") == Prod(Named("A4"), Named("A4"))
    assert parse_spec("xsp:3:2") == Xsp(3, 2)
    assert parse_spec("cyclic:7") == Cyclic(7)
    assert parse_spec("affine:3^2:0,2,1,0;1,0,0,2") == Affine(
        3, 2, (((0, 2), (1, 0)), ((1, 0), (0, 2)))
    )


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_round_trip(text):
    spec = parse_spec(text)
    assert spec_text(spec) == text
    assert parse_spec(spec_text(spec)) == spec


def test_matrix_list_length_disambiguates_prod():
    # the matrix consumes exactly m*m entries, so the comma belongs to prod
    spec = parse_spec("prod(affine:2^1:1,cyclic:3)")
    assert spec == Prod(Affine(2, 1, (((1,),),)), Cyclic(3))


INVALID_PARAMS = [
    "frob:6^1:5",  # composite base
    "frob:2^3:5",  # 5 does not divide 7
    "frob:11^1:3",  # 3 does not divide 10
    "frob:2^3:1",  # multiplier order must be >= 2
    "psl2:10",
    "xsp:4:1",
    "xsp:3:0",
    "cyclic:0",
    "named:XX",
    "affine:3^1:0",  # singular
    "affine:3^1:5",  # entry out of range
    "affine:4^1:1",  # composite base
]

SYNTAX_ERRORS = [
    ("bogus", 0),
    ("frob:2^", 7),
    ("psl2:5x", 6),
    ("prod(cyclic:2,cyclic:3", 22),
    ("frob:2^3", 8),
    ("affine:3^2:1,0,0", 16),
    ("", 0),
]


@pytest.mark.parametrize("text", INVALID_PARAMS)
def test_invalid_params(text):
    with pytest.raises(InvalidParam):
        parse_spec(text)


@pytest.mark.parametrize("text,offset", SYNTAX_ERRORS)
def test_syntax_errors(text, offset):
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec(text)
    assert info.value.offset == offset


def nested(depth):
    return "prod(" * depth + "cyclic:1" + ",cyclic:1)" * depth


def test_parse_probes_golden():
    """Every prefix of the specs above and of prod( nested to the limit and
    one past it, alone and followed by "x", "," or ")", parses to the same
    canonical text or fails with the same error class, offset and message
    as when each family had its own parser branch and spec_text arm: the
    sha256 below was taken then."""
    out = []
    texts = ROUND_TRIP + INVALID_PARAMS + [t for t, _ in SYNTAX_ERRORS]
    texts += [nested(MAX_PROD_NESTING), nested(MAX_PROD_NESTING + 1)]
    for text in texts:
        for i in range(len(text) + 1):
            for tail in ("", "x", ",", ")"):
                try:
                    out.append((None, None, spec_text(parse_spec(text[:i] + tail))))
                except (InvalidParam, SpecSyntaxError) as exc:
                    out.append((type(exc).__name__, getattr(exc, "offset", None), str(exc)))
    assert len(out) == 9400
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "b239acfb7d63a543693b95189e092f79fd57b10ec950c8bf6d1e201d830f040b"


def test_element_text():
    """Generators as witness prints them, for families that witness does not
    reach at the default caps; the strings were taken when the CLI printed
    elements itself."""
    for text, want in [
        ("xsp:3:1", ["(1,0,0)", "(0,1,0)"]),
        ("cyclic:5", ["1"]),
        ("prod(cyclic:2,named:S3)", ["(1, ())", "(0, (0 1 2))", "(0, (1 2))"]),
    ]:
        spec = parse_spec(text)
        assert [element_text(spec, x) for x in realize(spec).generators] == want


def test_expected_orders():
    assert expected_order(parse_spec("frob:5^1:4")) == 20
    assert expected_order(parse_spec("psl2:19")) == 3420
    assert expected_order(parse_spec("xsp:2:1")) == 8
    assert expected_order(parse_spec("affine:3^1:2")) == 6
    assert expected_order(parse_spec("prod(cyclic:4,cyclic:6)")) == 24
    assert expected_order(parse_spec("named:A4A4")) == 144


def test_realize_orders_match_prediction():
    for text in ["cyclic:12", "frob:5^1:4", "psl2:7", "xsp:3:1", "named:S3"]:
        spec = parse_spec(text)
        g = realize(spec)
        assert len(enumerate_elements(g)) == expected_order(spec)


def test_realize_refuses_over_cap_before_building():
    # 196,608 permutations of 65,536 points would take gigabytes to enumerate
    with pytest.raises(CapExceeded):
        realize(parse_spec("frob:2^16:3"))
    with pytest.raises(CapExceeded):
        realize(parse_spec("prod(psl2:37,cyclic:2)"))  # 50,616 > 50,000
    g = realize(parse_spec("prod(psl2:37,cyclic:2)"), cap=60_000)
    assert g.expected_order == 50_616


def test_psl2_realizations():
    # orders follow the closed formula; small exponents frozen from oracle runs
    for p, expo in [(2, 6), (3, 6), (5, 30), (7, 84)]:
        g = realize(Psl2(p))
        assert len(enumerate_elements(g)) == expected_order(Psl2(p))
        assert exponent(g) == expo
    data = group_data(realize(Psl2(5)))
    assert data.derived_order == 60  # perfect
    assert data.abelianization_order == 1


def test_psl2_19_order():
    g = realize(Psl2(19))
    assert len(enumerate_elements(g)) == 3420


def test_frob_structure():
    data = group_data(realize(Frob(2, 3, 7)))
    assert data.order == 56
    assert data.derived_order == 8
    assert data.abelianization_order == 7  # cyclic complement
    data = group_data(realize(Frob(11, 1, 5)))
    assert (data.order, data.derived_order, data.abelianization_order) == (55, 11, 5)


def test_xsp_structure():
    # extraspecial: derived subgroup = center of size p, abelianization p^2n
    data = group_data(realize(Xsp(3, 1)))
    assert (data.order, data.exponent) == (27, 3)
    assert data.derived_order == 3
    assert data.abelianization_order == 9
    data = group_data(realize(Xsp(2, 1)))
    assert (data.order, data.exponent) == (8, 4)
    data = group_data(realize(Xsp(2, 2)))
    assert (data.order, data.derived_order, data.abelianization_order) == (32, 2, 16)


def test_named_witness_table():
    table = {(w.name, w.expected_order, w.degree_claim) for w in named_witnesses()}
    assert table == {
        ("S3", 6, 2),
        ("A4", 12, 3),
        ("C5C4", 20, 4),
        ("C11C5", 55, 5),
        ("C7C6", 42, 6),
        ("E8C7", 56, 7),
        ("G72D", 72, 4),
        ("G72Q", 72, 8),
        ("A4A4", 144, 9),
    }
    assert [w.name for w in witnesses_for_degree(8)] == ["G72D", "G72Q"]


@pytest.mark.parametrize("witness", named_witnesses(), ids=lambda w: w.name)
def test_named_witness_orders(witness):
    g = realize(witness.spec)
    assert g.descriptor == f"named:{witness.name}"
    assert len(enumerate_elements(g)) == witness.expected_order


@pytest.mark.parametrize("witness", named_witnesses(), ids=lambda w: w.name)
def test_witness_degree_claims(witness):
    """Each catalog witness must actually afford its claimed degree."""
    from chardeg.degrees import character_degrees

    g = realize(witness.spec)
    degrees = character_degrees(g)
    assert degrees.group_order == witness.expected_order
    assert witness.degree_claim in degrees.degrees


def test_named_structure_facts():
    assert group_data(realize(Named("A4"))).derived_order == 4
    assert group_data(realize(Named("S3"))).exponent == 6
    assert group_data(realize(Named("C7C6"))).abelianization_order == 6
    # both order-72 witnesses have four linear characters
    data = group_data(realize(Named("G72Q")))
    assert (data.order, data.derived_order, data.abelianization_order) == (72, 18, 4)
    data = group_data(realize(Named("G72D")))
    assert (data.order, data.derived_order, data.abelianization_order) == (72, 18, 4)


def _reference_affine_generators(q, m, mats):
    """Per-point images: translations by the unit vectors, then each matrix
    applied to digits(i) one vector at a time."""
    vecs = [digits(i, q, m) for i in range(q**m)]
    gens = [
        [undigits(tuple((c + (r == j)) % q for r, c in enumerate(v)), q) for v in vecs]
        for j in range(m)
    ]
    gens += [
        [
            undigits(tuple(sum(mat[r][c] * v[c] for c in range(m)) % q for r in range(m)), q)
            for v in vecs
        ]
        for mat in mats
    ]
    return [tuple(g) for g in gens]


@pytest.mark.parametrize(
    "text",
    [
        "named:S3",
        "named:A4",
        "named:G72D",
        "named:G72Q",
        "affine:3^2:0,2,1,0;1,0,0,2",
        "frob:2^8:17",
    ],
)
def test_affine_generators_match_per_point_images(text):
    spec = parse_spec(text)
    if isinstance(spec, Named):
        spec = catalog._NAMED[spec.name][0]
    if isinstance(spec, Frob):
        spec = Affine(spec.q, spec.m, (multiplier(spec.q, spec.m, spec.k),))
    g = realize(parse_spec(text))
    assert g.generators == _reference_affine_generators(spec.q, spec.m, spec.mats)
    assert all(type(x) is int for x in g.generators[-1])


@pytest.mark.parametrize("name", ["G72D", "G72Q"])
def test_order_72_witnesses_close_their_complement_once(name, monkeypatch):
    """The complement check's closure also predicts the order, so realize
    closes the matrices once rather than once more in expected_order."""
    from chardeg import groups

    closed = []
    closure = groups._closure

    def counted(*args, **kwargs):
        closed.append(args[4])
        return closure(*args, **kwargs)

    monkeypatch.setattr(groups, "_closure", counted)
    g = realize(Named(name))
    assert closed == ["matrix group over F_3"]
    assert g.expected_order == 72
    assert len(enumerate_elements(g)) == 72



@pytest.mark.parametrize(
    "text,want",
    [
        ("named:A4A4", ["matrix group over F_2", "named:A4A4", "named:A4"]),
        (
            "prod(frob:67^1:3,frob:67^1:3)",
            ["prod(frob:67^1:3,frob:67^1:3)", "frob:67^1:3", "matrix group over F_67"],
        ),
    ],
)
def test_square_closes_its_factor_once(text, want, monkeypatch):
    """prod(w, w) realizes w once and takes it as both factors, so w and
    its matrix group are each closed once."""
    from chardeg import groups

    closed = []
    closure = groups._closure

    def counted(*args, **kwargs):
        closed.append(args[4])
        return closure(*args, **kwargs)

    monkeypatch.setattr(groups, "_closure", counted)
    g = realize(parse_spec(text))
    assert len(index_tables(g)) == g.expected_order
    assert closed == want
