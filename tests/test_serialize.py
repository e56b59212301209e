"""JSON round-trips and input validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import (
    EquivariantGens,
    InvariantGens,
    MultiPoly,
    ParseError,
    PolyVectorField,
    ReducedSystem,
    invariant_ring_generators,
    variables,
)
from equivar import serialize as sz


def test_frac_round_trip():
    for c in (Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(22, 7)):
        assert sz.frac_from_json(sz.frac_to_str(c)) == c
    assert sz.frac_from_json(5) == 5


def test_frac_rejects_floats_and_decimals():
    with pytest.raises(ParseError):
        sz.frac_from_json(1.5)
    with pytest.raises(ParseError):
        sz.frac_from_json("1.5")
    with pytest.raises(ParseError):
        sz.frac_from_json("1e-3")
    with pytest.raises(ParseError):
        sz.frac_from_json(True)


@pytest.mark.parametrize("value, want", [
    ("3", Fraction(3)), ("-3", Fraction(-3)), ("+3", Fraction(3)), ("0", Fraction(0)),
    ("-0", Fraction(0)), (" 7 ", Fraction(7)), ("\t-7\n", Fraction(-7)), ("007", Fraction(7)),
    ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("+4/6", Fraction(2, 3)),
    ("0/5", Fraction(0)), ("-0/5", Fraction(0)), ("007/010", Fraction(7, 10)),
    ("12", Fraction(12)), ("12345678901234567890/3", Fraction(12345678901234567890, 3)),
    (5, Fraction(5)), (-2, Fraction(-2)), (0, Fraction(0)),
])
def test_frac_from_json_accepts(value, want):
    got = sz.frac_from_json(value)
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize("value, message", [
    ("1.5", "not a decimal-free rational string: '1.5'"),
    ("1e-3", "not a decimal-free rational string"),
    ("", "not a decimal-free rational string: ''"),
    (" ", "not a decimal-free rational string"),
    ("1/", "not a decimal-free rational string"),
    ("/2", "not a decimal-free rational string"),
    ("1/-2", "not a decimal-free rational string"),
    ("1/+2", "not a decimal-free rational string"),
    ("1 / 2", "not a decimal-free rational string"),
    ("1/2/3", "not a decimal-free rational string"),
    ("--1", "not a decimal-free rational string"),
    ("0x10", "not a decimal-free rational string"),
    ("1_000", "not a decimal-free rational string"),
    ("inf", "not a decimal-free rational string"),
    ("nan", "not a decimal-free rational string"),
    ("1/0", "zero denominator in rational: '1/0'"),
    ("-3/000", "zero denominator in rational: '-3/000'"),
    (True, "not a rational: True"),
    (False, "not a rational: False"),
    (1.5, "rationals must be integers or strings, got float"),
    (None, "rationals must be integers or strings, got NoneType"),
    ([1], "rationals must be integers or strings, got list"),
    # ASCII digits only: Arabic-Indic and fullwidth digits are refused
    ("\u0663/\u0664", "not a decimal-free rational string"),
    ("\uff13", "not a decimal-free rational string"),
])
def test_frac_from_json_rejects(value, message):
    with pytest.raises(ParseError) as err:
        sz.frac_from_json(value)
    assert message in str(err.value)


def test_poly_round_trip():
    x, y = variables(2)
    p = Fraction(1, 2) * x**2 - 3 * x * y + MultiPoly.constant(2, 7)
    doc = sz.poly_to_doc(p)
    assert doc["nvars"] == 2
    assert all(isinstance(t["c"], str) for t in doc["terms"])
    assert sz.poly_from_doc(doc) == p


def test_poly_terms_sorted_descending():
    x, y = variables(2)
    doc = sz.poly_to_doc(y**2 + x**2 + x * y)
    assert [t["e"] for t in doc["terms"]] == [[2, 0], [1, 1], [0, 2]]


def test_poly_doc_validation():
    with pytest.raises(ParseError):
        sz.poly_from_doc({"terms": []})
    with pytest.raises(ParseError):
        sz.poly_from_doc({"nvars": 2, "terms": [{"c": "1", "e": [1]}]})
    with pytest.raises(ParseError):
        sz.poly_from_doc({"nvars": 1, "terms": [{"c": "1", "e": [-1]}]})
    with pytest.raises(ParseError):
        sz.poly_from_doc({"nvars": -1, "terms": []})


@pytest.mark.parametrize("read, doc", [
    (sz.poly_from_doc, {"nvars": 1, "terms": [{"c": "2", "e": [True]}]}),
    (sz.poly_from_doc, {"nvars": 2, "terms": [{"c": "2", "e": [1, False]}]}),
    (sz.poly_from_doc, {"nvars": True, "terms": []}),
    (sz.poly_from_doc, {"nvars": True, "terms": [{"c": "2", "e": [1]}]}),
    (sz.field_from_doc, {"n": True, "comps": [{"nvars": 1, "terms": []}]}),
    (sz.reduced_from_doc, {"k": True, "comps": [{"nvars": 1, "terms": []}]}),
    (sz.group_from_doc, {"n": True, "generators": [[["-1"]]]}),
    (sz.group_from_doc, {"n": 1, "generators": [[["-1"]]], "cap": True}),
], ids=["exponent-true", "exponent-false", "nvars-empty", "nvars", "field-n", "reduced-k",
        "group-n", "group-cap"])
def test_booleans_are_not_ints(read, doc):
    # isinstance(True, int) holds, so each of these was once read as 1 or 0
    with pytest.raises(ParseError, match="bool|non-negative ints"):
        read(doc)


def test_poly_doc_merges_terms_as_the_constructor_does():
    terms = [("1", [1, 0]), ("-1", [1, 0]), ("0", [0, 1]), ("1/2", [0, 0]), ("1/3", [0, 0])]
    p = sz.poly_from_doc({"nvars": 2, "terms": [{"c": c, "e": e} for c, e in terms]})
    assert p == MultiPoly(2, [(e, Fraction(c)) for c, e in terms]) == MultiPoly.constant(2, Fraction(5, 6))
    assert all(type(c) is Fraction for c in p._terms.values())


def _spellings(c: Fraction):
    """The ways a document may write c: canonically, over a common factor,
    padded and signed, with leading zeros, or as a JSON int when integral."""
    k = st.integers(1, 4)
    sign = "+" if c >= 0 else "-"
    num, den = abs(c.numerator), c.denominator
    out = [
        st.just(str(c)),
        k.map(lambda k: f"{c.numerator * k}/{den * k}"),
        st.just(f" {sign}{num}/{den} "),
        st.just(f"{sign}00{num}/0{den}"),
    ]
    if den == 1:
        out.append(st.just(int(c)))
    return st.one_of(out)


@st.composite
def spelled_terms(draw):
    """(nvars, [(spelling, exponents, value)]): a few values and exponent
    tuples, each used several times, so equal coefficients recur in several
    spellings and equal exponents are summed, sometimes to zero."""
    nvars = draw(st.integers(0, 3))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    values = draw(st.lists(st.fractions(max_denominator=6).map(lambda c: c.limit_denominator(6)),
                           min_size=1, max_size=4))
    pool = draw(st.lists(exps, min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        c = draw(st.sampled_from(values))
        terms.append((draw(_spellings(c)), draw(st.sampled_from(pool)), c))
    return nvars, terms


@settings(max_examples=80, deadline=None)
@given(spelled_terms())
def test_poly_doc_parses_each_spelling_as_the_constructor(case):
    nvars, terms = case
    p = sz.poly_from_doc({"nvars": nvars, "terms": [{"c": c, "e": e} for c, e, _ in terms]})
    assert p == MultiPoly(nvars, [(e, value) for _, e, value in terms])
    assert all(type(c) is Fraction and c for c in p._terms.values())
    assert all(type(e) is tuple for e in p._terms)


@pytest.mark.parametrize("bad, message", [
    ("1.5", "not a decimal-free rational string: '1.5'"),
    ("1/0", "zero denominator in rational: '1/0'"),
    ("\u0663", "not a decimal-free rational string: '\u0663'"),
])
def test_repeated_bad_coefficient_raises_at_its_first_occurrence(bad, message):
    # the term between the two occurrences has a negative exponent, so a
    # reader that let the first one through would raise about the exponent
    terms = [{"c": "1", "e": [1]}, {"c": bad, "e": [0]}, {"c": "2", "e": [-1]}, {"c": bad, "e": [2]}]
    with pytest.raises(ParseError) as err:
        sz.poly_from_doc({"nvars": 1, "terms": terms})
    assert str(err.value) == message


def test_field_round_trip():
    x1, x2 = variables(2)
    v = PolyVectorField([x2, x1**3])
    assert sz.field_from_doc(sz.field_to_doc(v)) == v
    with pytest.raises(ParseError):
        sz.field_from_doc({"n": 2, "comps": [sz.poly_to_doc(x1)]})


def test_group_doc(z2_diag):
    doc = {"n": 2, "generators": [[["-1", "0"], ["0", "-1"]]]}
    g = sz.group_from_doc(doc)
    assert g.order == 2
    assert g.elements == z2_diag.elements


def test_group_doc_accepts_ints_and_cap():
    doc = {"n": 1, "generators": [[[-1]]], "cap": 10}
    assert sz.group_from_doc(doc).order == 2
    with pytest.raises(ParseError):
        sz.group_from_doc({"n": 1, "generators": []})
    with pytest.raises(ParseError):
        sz.group_from_doc({"n": 1, "generators": [[[0.5]]]})


def test_invariant_gens_round_trip(swap2):
    inv = invariant_ring_generators(swap2)
    doc = sz.invariant_gens_to_doc(inv)
    back = sz.invariant_gens_from_doc(doc, swap2)
    assert back.gens == inv.gens
    assert back.degrees == inv.degrees
    assert doc["dimensions"][2] == {"degree": 2, "dim": 2}


def _swap_gens_from_polys(swap2):
    # generators given as polynomials, as a document is read back: no degree
    # loop ran, so the set carries no bound
    x1, x2 = variables(2)
    return x1, x2, InvariantGens.from_polys(swap2, [x1 + x2, x1 * x2])


def test_invariant_gens_to_doc_refuses_a_set_no_loop_computed(swap2):
    _, _, inv = _swap_gens_from_polys(swap2)
    assert inv.bound is None
    with pytest.raises(ValueError, match="no degree loop computed this generator set"):
        sz.invariant_gens_to_doc(inv)


def test_equivariant_gens_to_doc_refuses_a_set_no_loop_computed(swap2):
    x1, x2, inv = _swap_gens_from_polys(swap2)
    eg = EquivariantGens([PolyVectorField([x1, x2])], inv)
    assert eg.bound is None
    with pytest.raises(ValueError, match="no degree loop computed this generator set"):
        sz.equivariant_gens_to_doc(eg)


def test_reduced_round_trip():
    comps = [MultiPoly(2, {(1, 0): 2, (2, 0): -2}), MultiPoly.zero(2)]
    rs = ReducedSystem(comps)
    back = sz.reduced_from_doc(sz.reduced_to_doc(rs))
    assert back == rs and type(back) is ReducedSystem and back.k == 2


def test_dumps_canonical():
    text = sz.dumps({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_parse_rational_vector():
    assert sz.parse_rational_vector("1/2,-3, 5") == [
        Fraction(1, 2),
        Fraction(-3),
        Fraction(5),
    ]
    with pytest.raises(ParseError):
        sz.parse_rational_vector("1.5")
    with pytest.raises(ParseError, match="not a decimal-free rational string"):
        sz.parse_rational_vector("1/2,\u0663/\u0664")
    with pytest.raises(ParseError):
        sz.parse_rational_vector("")
