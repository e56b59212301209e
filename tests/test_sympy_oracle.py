"""Polynomial arithmetic and exact linear algebra held against sympy, an
independent implementation.

Skipped when sympy is not installed; it is a test oracle only, never a
dependency of the library.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import MultiPoly, invariant_ring_generators, invariants
from equivar.linalg import RatMatrix, SparseEchelon, kernel_basis, kernel_rref, solve_free_zero
from equivar.poly import ProductTable

import conftest
from conftest import coeffs, det_one_minus_t, poly_cases

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
        assert to_sympy(conftest.homogeneous_part(a, d), xs) == homogeneous_part(sa, d, xs)
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


# ---------------------------------------------------------------------------
# linalg against sympy's Matrix.

entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@st.composite
def rational_matrices(draw, square=False):
    """1-5 rows of 1-5 entries, the last row sometimes a multiple of the first."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        k = draw(entries)
        rows[-1] = [k * x for x in rows[0]]
    return rows


def to_matrix(rows) -> "sympy.Matrix":
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def to_fractions(m: "sympy.Matrix") -> list[list[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_kernels_match_sympy(rows):
    ncols = len(rows[0])
    null = to_matrix(rows).nullspace()
    # one vector per free column, 1 there and 0 on the other free columns
    assert kernel_basis(rows, ncols) == [[x for x, in to_fractions(v)] for v in null]
    want = to_fractions(sympy.Matrix.hstack(*null).T.rref()[0]) if null else []
    assert kernel_rref(rows, ncols) == want


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_free_zero_matches_sympy(rows, data):
    ncols = len(rows[0])
    x0 = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    consistent = [sum((a * b for a, b in zip(r, x0)), Fraction(0)) for r in rows]
    drawn = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    got = solve_free_zero(rows, [consistent, drawn])
    a = to_matrix(rows)
    for b, x in zip([consistent, drawn], got):
        try:
            sol, params = a.gauss_jordan_solve(to_matrix([[c] for c in b]))
        except ValueError:  # sympy: no solution
            assert x is None
            continue
        # sympy's free parameters set to zero
        assert x == [y for y, in to_fractions(sol.subs({p: 0 for p in params}))]


@settings(max_examples=60, deadline=None)
@given(rational_matrices(square=True))
def test_inverse_matches_sympy(rows):
    m, a = RatMatrix.from_rows(rows), to_matrix(rows)
    if a.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse() == RatMatrix.from_rows(to_fractions(a.inv()))


@pytest.mark.parametrize("subset, spans", [((0, 2), True), ((0, 1), False)])
def test_ideal_spans_degree_matches_sympy_rank(z2_diag, subset, spans):
    # z2_diag's invariants x1^2, x1 x2, x2^2: x1^2, x2^2 span the cubics,
    # x1^2, x1 x2 vanish on x1 = 0 and do not.  The sparse rows the rank test
    # hands its SparseEchelon, as a sympy Matrix, have the rank sympy gives
    # the products m * theta_i it writes out itself; the passing subset stops
    # at full rank, the failing one hands over every row.
    thetas = [invariant_ring_generators(z2_diag).gens[i] for i in subset]
    rows = []

    class Recorder(SparseEchelon):
        def add(self, vec):
            rows.append(dict(vec))
            return super().add(vec)

    with mock.patch.object(invariants, "SparseEchelon", Recorder):
        assert invariants._ideal_spans_degree(thetas) is spans
    xs = symbols(2)
    degree = sum(t.total_degree() - 1 for t in thetas) + 1
    monomials = sorted(sympy.itermonomials(xs, degree, degree), key=str)
    products = [sympy.Poly(m * to_sympy(t, xs).as_expr(), *xs) for t in thetas
                for m in sympy.itermonomials(xs, degree - t.total_degree(), degree - t.total_degree())]
    want = sympy.Matrix([[p.coeff_monomial(m) for m in monomials] for p in products])
    got = sympy.Matrix([[row.get(k, 0) for k in range(len(monomials))] for row in rows])
    assert got.rank() == want.rank()
    assert (want.rank() == len(monomials)) is spans
    if not spans:
        assert len(rows) == len(products)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(square=True))
def test_det_one_minus_t_matches_charpoly(rows):
    # det(I - t M) = t^n charpoly(1/t): the charpoly's coefficients, leading first
    want = [Fraction(int(c.p), int(c.q)) for c in to_matrix(rows).charpoly().all_coeffs()]
    while want[-1] == 0:
        want.pop()
    assert det_one_minus_t(RatMatrix.from_rows(rows)) == want
