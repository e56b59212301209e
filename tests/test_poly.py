"""Core polynomial arithmetic: worked examples plus algebraic laws."""

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import DimensionMismatch, MultiPoly, RatMatrix, variables, weighted_monomials, xilinear_monomials
from equivar.poly import ProductTable, _monomial_table, grlex_key, monomials_of_degree

from conftest import (
    coeffs,
    homogeneous_components,
    homogeneous_part,
    poly_cases,
    poly_to_vector,
    polys,
)


def test_add_cancels_to_zero():
    x, = variables(1)
    assert (x**2 + (-(x**2))).is_zero


def test_add_disjoint_supports():
    x, y = variables(2)
    assert x**2 + x * y + y**2 == MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def test_add_coefficient_arithmetic():
    x, = variables(1)
    half = MultiPoly(1, {(1,): Fraction(1, 2)})
    assert half + half == x


def test_add_rejects_mismatched_vars():
    x, = variables(1)
    y2 = MultiPoly.variable(2, 1)
    with pytest.raises(DimensionMismatch):
        x + y2


def test_mul_difference_of_squares():
    x, y = variables(2)
    assert (x + y) * (x - y) == x**2 - y**2


def test_mul_identity():
    x, y = variables(2)
    p = 3 * x**2 - y + MultiPoly.constant(2, Fraction(1, 7))
    assert p * MultiPoly.constant(2, 1) == p


def test_mul_monomials():
    x, y = variables(2)
    assert (x**2) * (y**2) == MultiPoly(2, {(2, 2): 1})


def test_mul_degree_additive():
    x, y = variables(2)
    a = x**3 + y
    b = x * y - y**2
    assert (a * b).total_degree() == a.total_degree() + b.total_degree()


def test_compose_linear_even_poly():
    x, = variables(1)
    neg = RatMatrix.from_rows([[-1]])
    assert (x**2).compose_linear(neg) == x**2
    assert x.compose_linear(neg) == -x


def test_compose_linear_swap_symmetric():
    x, y = variables(2)
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert (x * y).compose_linear(swap) == x * y
    assert x.compose_linear(swap) == y


def test_compose_linear_dimension_error():
    x, = variables(1)
    with pytest.raises(DimensionMismatch):
        x.compose_linear(RatMatrix.identity(2))


def test_diff_examples():
    x, y = variables(2)
    assert (x**2 * y).diff(0) == 2 * x * y
    assert (y**3).diff(0).is_zero
    assert (x**2 + x * y).diff(1) == x


def test_diff_index_out_of_range():
    x, = variables(1)
    with pytest.raises(IndexError):
        x.diff(1)


def test_homogeneous_part_examples():
    x, = variables(1)
    p = MultiPoly.constant(1, 1) + x + x**2
    assert homogeneous_part(p, 1) == x
    x2, y2 = variables(2)
    q = x2**2 * y2 + y2**3
    assert homogeneous_part(q, 3) == q
    assert homogeneous_part(x**2, 5).is_zero


def test_evaluate_examples():
    x, y = variables(2)
    assert (x**2 + y**2).evaluate([3, 4]) == 25
    assert (x * y).evaluate([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)
    assert MultiPoly.zero(2).evaluate([7, 9]) == 0


def test_monomials_of_degree_descending_grlex():
    monos = monomials_of_degree(2, 2)
    assert monos == [(2, 0), (1, 1), (0, 2)]
    assert monos == sorted(monos, key=grlex_key, reverse=True)
    assert monomials_of_degree(3, 2)[0] == (2, 0, 0)


def brute_monomials(weights, total):
    """Every exponent tuple of weighted total `total`, found by trying each
    tuple of exponents up to total // weight, sorted descending grlex."""
    tuples = product(*(range(total // w + 1) for w in weights))
    found = [e for e in tuples if sum(a * w for a, w in zip(e, weights)) == total]
    return sorted(found, key=lambda e: (sum(e), e), reverse=True)


@pytest.mark.parametrize("n", range(6))
def test_monomial_enumerator_matches_brute_force(n):
    for d in range(8):
        want = brute_monomials((1,) * n, d)
        assert monomials_of_degree(n, d) == want, (n, d)
        assert weighted_monomials((1,) * n, d) == want, (n, d)
        monos, keys, index = _monomial_table(n, d)
        assert list(monos) == want and len(keys) == len(index) == len(want)
        assert all(index[k] == j for j, k in enumerate(keys)), (n, d)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=5), st.integers(-1, 12))
def test_weighted_monomials_match_brute_force(weights, total):
    assert weighted_monomials(weights, total) == brute_monomials(weights, total)


def test_s6_rank_test_table_size():
    # S6's hsop rank test runs over every monomial of degree 16 in 6 variables
    monos, keys, index = _monomial_table(6, 16)
    assert len(monos) == len(keys) == len(index) == comb(21, 5) == 20349


def test_vector_round_trip():
    x, y = variables(2)
    p = x**2 - 3 * x * y
    basis = monomials_of_degree(2, 2)
    assert MultiPoly(2, zip(basis, poly_to_vector(p, basis))) == p


def test_leading_term_and_monic():
    x, y = variables(2)
    p = 2 * x * y + 4 * y**2
    assert p.leading_term() == ((1, 1), Fraction(2))
    assert p.monic() == x * y + 2 * y**2


# -- algebraic laws ----------------------------------------------------------

small_mats = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
).map(RatMatrix.from_rows)


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_canonical_form_matches_evaluation(a, b):
    # equal canonical forms iff equal as functions: check many rational points
    s = a + b
    points = [(Fraction(i, 3), Fraction(j, 2)) for i in range(-5, 6) for j in range(-5, 6)]
    for pt in points[:40]:
        assert s.evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


@settings(max_examples=60, deadline=None)
@given(polys(2), small_mats, small_mats)
def test_compose_linear_is_multiplicative(p, a, b):
    # q = p(A.) then q(B.) substitutes x -> Bx into p(A.), giving p((AB)x)
    assert p.compose_linear(a).compose_linear(b) == p.compose_linear(a @ b)


@settings(max_examples=60, deadline=None)
@given(polys(3))
def test_mixed_partials_commute(p):
    assert p.diff(0).diff(2) == p.diff(2).diff(0)


@settings(max_examples=60, deadline=None)
@given(polys(2))
def test_homogeneous_parts_sum_to_poly(p):
    total = MultiPoly.zero(2)
    for d in range(p.total_degree() + 1):
        total = total + homogeneous_part(p, d)
    assert total == p


@settings(max_examples=40, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# -- the public constructor validates ------------------------------------------


def test_constructor_rejects_bad_terms():
    with pytest.raises(DimensionMismatch):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(1, {(-1,): 1})
    with pytest.raises(TypeError):
        MultiPoly(1, {(1,): 0.5})


def test_constructor_rejects_float_exponents():
    with pytest.raises(TypeError):
        MultiPoly(1, {(1.5,): 1})
    with pytest.raises(TypeError):
        MultiPoly(1, {(1.0,): 1})


def test_constructor_rejects_string_exponents():
    with pytest.raises(TypeError):
        MultiPoly(2, {("1", "2"): 1})


def test_constructor_reads_numpy_int_exponents_as_ints():
    p = MultiPoly(2, {(np.int64(1), np.int32(2)): 3})
    assert p == MultiPoly(2, {(1, 2): 3})
    assert all(type(x) is int for e in p._terms for x in e)


# -- results built unchecked stay canonical ------------------------------------


def assert_canonical(p: MultiPoly) -> None:
    """p as the validating constructor would build it from its own terms."""
    assert p == MultiPoly(p.nvars, p._terms)
    for e, c in p._terms.items():
        assert type(e) is tuple and len(e) == p.nvars
        assert all(type(x) is int and x >= 0 for x in e)
        assert type(c) is Fraction and c != 0


@settings(max_examples=80, deadline=None)
@given(
    poly_cases(),
    st.integers(min_value=-3, max_value=3),
    coeffs,
    st.integers(min_value=0, max_value=3),
)
def test_unchecked_results_are_canonical(case, k, q, m):
    a, b, values, gens, f = case
    results = [
        a + b, a - b, a - a, (a + b) - b, -a,
        a * b, a * b - b * a, a * k, k * a, a * q, a * 0, a * Fraction(0),
        a**m, a.monic(), b.monic(),
        a.substitute(values), ProductTable(a.nvars, gens).substitute(f),
    ]
    results += [a.diff(i) for i in range(a.nvars)]
    results += [homogeneous_part(a, d) for d in range(a.total_degree() + 2)]
    results += homogeneous_components(a).values()
    for p in results:
        assert_canonical(p)
    assert (a - a).is_zero and (a * 0).is_zero
    assert ProductTable(a.nvars, gens).substitute(f) == f.substitute(gens)


def test_monomial_lists_are_fresh_copies():
    # the library keeps one monomial table per (n, d) for the whole process;
    # a caller that mutates what a public function returned must change
    # neither a later call's result nor the table's own products
    x, y = variables(2)
    table = ProductTable(2, [x + y, x * y])
    calls = {
        "monomials_of_degree": lambda: monomials_of_degree(3, 4),
        "weighted_monomials": lambda: weighted_monomials([1, 2, 2], 6),
        "xilinear_monomials": lambda: xilinear_monomials(2, 3),
    }
    for name, call in calls.items():
        want = list(call())
        for got in (call(), call()):
            assert got == want, name
            got.reverse()
            got[0] = (99,)
            got.append((7, 7))
        assert call() == want, name
        assert call() is not call(), name
    p = table.substitute(MultiPoly(2, {(1, 1): 1}))
    assert p == (x + y) * (x * y)
