"""Polynomial arithmetic held against sympy, an independent implementation.

Skipped when sympy is not installed; it is a test oracle only, never a
dependency of the library.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import MultiPoly
from equivar.poly import ProductTable

from conftest import coeffs, poly_cases

sympy = pytest.importorskip("sympy")


def symbols(n: int) -> tuple:
    return sympy.symbols(f"x1:{n + 1}")


def to_sympy(p: MultiPoly, xs) -> "sympy.Poly":
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.sorted_terms()}
    return sympy.Poly.from_dict(terms, *xs, domain="QQ")


def substituted(p: MultiPoly, values, xs) -> "sympy.Poly":
    """p(values) in xs, substituted and expanded by sympy."""
    ys = symbols(p.nvars)
    expr = to_sympy(p, ys).as_expr().xreplace(
        {y: to_sympy(v, xs).as_expr() for y, v in zip(ys, values)}
    )
    return sympy.Poly(sympy.expand(expr), *xs, domain="QQ")


def homogeneous_part(poly: "sympy.Poly", d: int, xs) -> "sympy.Poly":
    """The coefficient of t^d in poly(t x)."""
    t = sympy.Symbol("t")
    scaled = sympy.Poly(poly.as_expr().xreplace({x: t * x for x in xs}), t)
    return sympy.Poly(scaled.coeff_monomial(t**d), *xs, domain="QQ")


@settings(max_examples=40, deadline=None)
@given(poly_cases(), coeffs, st.integers(min_value=0, max_value=3))
def test_arithmetic_matches_sympy(case, q, m):
    a, b, values, gens, f = case
    xs = symbols(a.nvars)
    sa, sb = to_sympy(a, xs), to_sympy(b, xs)
    sq = sympy.Rational(q.numerator, q.denominator)
    assert to_sympy(a + b, xs) == sa + sb
    assert to_sympy(a - b, xs) == sa - sb
    assert to_sympy(-a, xs) == -sa
    assert to_sympy(a * b, xs) == sa * sb
    assert to_sympy(a * q, xs) == sa * sq
    assert to_sympy(a**m, xs) == sa**m
    for i, x in enumerate(xs):
        assert to_sympy(a.diff(i), xs) == sa.diff(x)
    for d in range(a.total_degree() + 1):
        assert to_sympy(a.homogeneous_part(d), xs) == homogeneous_part(sa, d, xs)
    if not a.is_zero:
        lc = sa.LC(order="grlex")
        assert to_sympy(a.monic(), xs) == sa * (1 / lc)
    assert to_sympy(a.substitute(values), xs) == substituted(a, values, xs)
    assert to_sympy(ProductTable(a.nvars, gens).substitute(f), xs) == substituted(f, gens, xs)


def test_evaluate_matches_sympy():
    xs = symbols(2)
    p = MultiPoly(2, {(3, 1): Fraction(-2, 3), (0, 2): 5, (0, 0): Fraction(1, 7)})
    point = (Fraction(3, 2), Fraction(-5, 4))
    want = to_sympy(p, xs).as_expr().subs(
        {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(xs, point)}
    )
    assert p.evaluate(point) == Fraction(int(want.p), int(want.q))
