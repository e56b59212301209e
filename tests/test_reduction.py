"""Orbit-space reduction and the numeric relatedness witness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import (
    MultiPoly,
    NonFiniteState,
    NotInvariant,
    PolyVectorField,
    ReducedSystem,
    check_related,
    directional_derivatives,
    integrate_pair,
    invariant_ring_generators,
    reduce_field,
    variables,
)
from equivar.reduction import _compile_polys


@pytest.fixture(scope="module")
def cubic_line(z2_line):
    """X = x - x^3 on the line with p1 = x^2."""
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    return PolyVectorField([x - x**3]), inv


@pytest.fixture(scope="module")
def radial_plane(z2_diag):
    """X = (x (1 - r^2), y (1 - r^2)) with p = (x^2, xy, y^2)."""
    x1, x2 = variables(2)
    one = MultiPoly.constant(2, 1)
    r2 = x1**2 + x2**2
    inv = invariant_ring_generators(z2_diag)
    return PolyVectorField([x1 * (one - r2), x2 * (one - r2)]), inv


def test_reduce_cubic_line(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    # chain rule: 2x (x - x^3) = 2 x^2 - 2 x^4 = 2 P1 - 2 P1^2
    assert rs.comps == (MultiPoly(1, {(1,): 2, (2,): -2}),)


def test_reduce_radial_plane(radial_plane):
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    expected = []
    for i in range(3):
        e_lin = tuple(int(j == i) for j in range(3))
        terms = {e_lin: Fraction(2)}
        for j in (0, 2):  # P1 and P3 multiply in from r^2
            e = tuple(a + b for a, b in zip(e_lin, tuple(int(t == j) for t in range(3))))
            terms[e] = terms.get(e, Fraction(0)) - 2
        expected.append(MultiPoly(3, terms))
    assert rs.comps == tuple(expected)


def test_reduce_zero_field(sample_groups):
    for group in sample_groups.values():
        inv = invariant_ring_generators(group)
        rs = reduce_field(PolyVectorField.zero(group.n), inv)
        assert all(c.is_zero for c in rs.comps)


def test_reduce_rejects_non_invariant(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    with pytest.raises(NotInvariant):
        reduce_field(PolyVectorField([x**2]), inv)


def test_reduce_identity_by_independent_expansion(radial_plane):
    # re-verify sum_j X_j dp_i/dx_j == comps_i(p) by direct expansion
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    derivs = directional_derivatives(field, inv)
    for q, comp in zip(derivs, rs.comps):
        assert inv.substitute(comp) == q


def test_check_related_of_reduction(cubic_line, radial_plane):
    for field, inv in (cubic_line, radial_plane):
        rs = reduce_field(field, inv)
        assert check_related(field, rs, inv)


def test_check_related_wrong_system(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    field = PolyVectorField([x])
    chk = check_related(field, [MultiPoly.variable(1, 0)], inv)  # Y = P1, should be 2 P1
    assert not chk
    assert chk.index == 0
    assert chk.difference == x**2


def test_check_related_zero(z2_line):
    inv = invariant_ring_generators(z2_line)
    chk = check_related(PolyVectorField.zero(1), [MultiPoly.zero(1)], inv)
    assert chk


# -- numeric witness -----------------------------------------------------------


def test_integrate_cubic_defect_small(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    report = integrate_pair(field, rs, inv, [Fraction(1, 2)], 1.0, 1e-3)
    assert report.max_defect <= 1e-6
    assert len(report.t_grid) == 1001
    assert report.x_path.shape == (1001, 1)
    assert report.p_path.shape == (1001, 1)


def test_integrate_radial_defect_small(radial_plane):
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    report = integrate_pair(field, rs, inv, [Fraction(1, 2), Fraction(1, 3)], 1.0, 1e-3)
    assert report.max_defect <= 1e-6


def test_integrate_halving_fourth_order(cubic_line, radial_plane):
    # in the truncation-dominated step regime the defect drops by ~16x per
    # halving; require at least 8x
    for field, inv in (cubic_line, radial_plane):
        rs = reduce_field(field, inv)
        x0 = [Fraction(1, 2)] * inv.group.n
        coarse = integrate_pair(field, rs, inv, x0, 1.0, 2e-2).max_defect
        fine = integrate_pair(field, rs, inv, x0, 1.0, 1e-2).max_defect
        assert coarse / fine >= 8


def test_integrate_zero_field_zero_defect(z2_diag):
    inv = invariant_ring_generators(z2_diag)
    zero = PolyVectorField.zero(2)
    rs = reduce_field(zero, inv)
    report = integrate_pair(zero, rs, inv, [Fraction(1, 3), Fraction(2, 5)], 1.0, 1e-2)
    assert report.max_defect == 0.0


def test_integrate_fixed_point_zero_defect(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    report = integrate_pair(field, rs, inv, [0], 1.0, 1e-2)
    assert report.max_defect == 0.0


def test_orbit_consistency(radial_plane):
    # starting from x0 and from g x0 gives the same reduced path
    field, inv = radial_plane
    group = inv.group
    rs = reduce_field(field, inv)
    x0 = [Fraction(1, 2), Fraction(1, 3)]
    base = integrate_pair(field, rs, inv, x0, 1.0, 1e-2)
    for g in range(group.order):
        m = group.matrix(g)
        moved = [sum(m[i, k] * x0[k] for k in range(2)) for i in range(2)]
        rep = integrate_pair(field, rs, inv, moved, 1.0, 1e-2)
        assert float(np.max(np.abs(rep.p_path - base.p_path))) <= 1e-9


def test_non_finite_state(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    blowup = PolyVectorField([x**3])  # finite-time blowup from x0 = 2
    rs = reduce_field(blowup, inv)
    with pytest.raises(NonFiniteState) as err:
        integrate_pair(blowup, rs, inv, [2], 2.0, 1e-2)
    # the exact solution blows up at t = 1/8; RK4 at step 1e-2 overflows at step 15
    assert err.value.time == 0.15


def test_non_finite_state_in_one_component(z2_diag):
    # only the first component holds x1^3, so in the second the overflowing
    # monomial meets a zero coefficient: inf * 0.0 must still end the run
    x1, x2 = variables(2)
    inv = invariant_ring_generators(z2_diag)
    field = PolyVectorField([x1**3, -x2])
    rs = reduce_field(field, inv)
    with pytest.raises(NonFiniteState) as err:
        integrate_pair(field, rs, inv, [2, Fraction(1, 2)], 2.0, 1e-2)
    assert err.value.time == 0.15
    assert "full" in str(err.value)


# -- the compiled float evaluator against exact evaluation ----------------------


@st.composite
def poly_systems(draw):
    """A system of polynomials in 1-4 variables of degree up to 12, always
    with a zero and a constant component; the others either share monomials
    or have pairwise disjoint supports."""
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 12
    )
    monos = draw(st.lists(exps.map(tuple), min_size=1, max_size=12, unique=True))
    ncomps = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        owner = draw(st.lists(st.integers(0, ncomps - 1), min_size=len(monos), max_size=len(monos)))
        supports = [[e for e, o in zip(monos, owner) if o == i] for i in range(ncomps)]
    else:
        supports = [draw(st.lists(st.sampled_from(monos), unique=True)) for _ in range(ncomps)]
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool)
    comps = [MultiPoly(n, {e: draw(coeffs) for e in support}) for support in supports]
    comps.insert(draw(st.integers(0, len(comps))), MultiPoly.zero(n))
    comps.insert(draw(st.integers(0, len(comps))), MultiPoly.constant(n, draw(coeffs)))
    point = draw(st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=7)),
        min_size=n, max_size=n,
    ))
    return n, comps, point


@settings(max_examples=100, deadline=None)
@given(poly_systems())
def test_compiled_evaluator_matches_exact(system):
    n, comps, point = system
    got = _compile_polys(comps, n)(np.array([float(v) for v in point]))
    assert got.shape == (len(comps),)
    for p, value in zip(comps, got):
        scale = sum(abs(c * MultiPoly.monomial(e).evaluate(point)) for e, c in p)
        assert abs(value - float(p.evaluate(point))) <= 1e-12 * float(scale)


def test_integrate_validates_arguments(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    with pytest.raises(ValueError):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], -1.0, 1e-3)


def test_integrate_rejects_zero_steps_and_partial_steps(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    with pytest.raises(ValueError, match="no step"):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], 0.001, 0.5)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], 1.0, 0.3)
    # floating-point round-off in t_end / step is not a partial step
    assert len(integrate_pair(field, rs, inv, [Fraction(1, 2)], 0.3, 0.1).t_grid) == 4


def test_reduced_system_validation():
    with pytest.raises(Exception):
        ReducedSystem([MultiPoly.zero(2)])  # one component in two variables
