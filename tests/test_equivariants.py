"""Equivariant bases, module generators, and expression over the invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import (
    DimensionMismatchWithMolien,
    InvariantGens,
    MultiPoly,
    NoSolution,
    NotInvariant,
    PSI,
    THETA,
    PolyVectorField,
    RatMatrix,
    close_group,
    equivariant_basis,
    equivariant_module_generators,
    express_equivariant,
    invariant_ring_generators,
    is_invariant,
    molien_equivariant,
    pairing,
    reynolds,
    unpairing,
    variables,
    weighted_monomials,
    xilinear_monomials,
)
from equivar import equivariants
from equivar.invariants import _module_products
from equivar.linalg import Echelon
from equivar.poly import monomials_of_degree

from conftest import field_to_vector, monomial, poly_to_vector, power_product, random_field


def direct_theta_basis(group, m):
    """Independent oracle: average vector-field monomials under the pushforward."""
    n = group.n
    fields = []
    for alpha in monomials_of_degree(n, m):
        for i in range(n):
            comps = [
                monomial(alpha) if j == i else MultiPoly.zero(n)
                for j in range(n)
            ]
            fields.append(reynolds(group, THETA, PolyVectorField(comps)))
    return [f for f in fields if not f.is_zero]


def rebuild(eg, coeffs):
    """sum_a f_a(p(x)) V_a(x) for coefficients returned by express_equivariant."""
    out = PolyVectorField.zero(eg.group.n)
    for c, v in zip(coeffs, eg.vgens):
        out = out + v.scale(eg.invariant_gens.substitute(c))
    return out


def span_of(fields, monos):
    ech = Echelon()
    for f in fields:
        ech.add(field_to_vector(f, monos))
    return ech


# -- bases --------------------------------------------------------------------


def test_basis_z2_line(z2_line):
    x, = variables(1)
    assert equivariant_basis(z2_line, 1) == [PolyVectorField([x])]
    assert equivariant_basis(z2_line, 2) == []
    with pytest.raises(ValueError, match="non-negative"):
        equivariant_basis(z2_line, -1)


def test_basis_swap_degree0(swap2):
    one = MultiPoly.constant(2, 1)
    assert equivariant_basis(swap2, 0) == [PolyVectorField([one, one])]


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_basis_size_matches_equivariant_molien(sample_groups, gname):
    group = sample_groups[gname]
    series = molien_equivariant(group)
    for m in range(2 * group.order + 1):
        basis = equivariant_basis(group, m)
        assert len(basis) == series.coefficient(m)
        for v in basis:
            assert is_invariant(group, v, THETA)
            assert is_invariant(group, pairing(v), PSI)


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_psi_route_equals_direct_theta_route(sample_groups, gname):
    # the two construction routes must span identical subspaces
    group = sample_groups[gname]
    for m in range(2 * group.order + 1):
        monos = xilinear_monomials(group.n, m)
        via_psi = equivariant_basis(group, m)
        via_theta = direct_theta_basis(group, m)
        a = span_of(via_psi, monos)
        b = span_of(via_theta, monos)
        assert a.rank == b.rank
        both = span_of(via_psi + via_theta, monos)
        assert both.rank == a.rank


def test_averaged_xilinear_unpairs_to_invariant_field(sample_groups):
    rng = random.Random(5)
    for group in sample_groups.values():
        n = group.n
        for _ in range(8):
            # random xi-linear phase polynomial
            terms = {}
            for _ in range(4):
                alpha = [0] * n
                for _ in range(rng.randint(0, 3)):
                    alpha[rng.randrange(n)] += 1
                i = rng.randrange(n)
                xi = tuple(int(j == i) for j in range(n))
                terms[tuple(alpha) + xi] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            q = MultiPoly(2 * n, terms)
            averaged = reynolds(group, PSI, q)
            assert is_invariant(group, unpairing(averaged), THETA)


# -- module generators -----------------------------------------------------------


def test_module_generators_z2_line(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    eg = equivariant_module_generators(inv)
    assert eg.vgens == (PolyVectorField([x]),)
    assert eg.degrees == (1,)
    with pytest.raises(ValueError, match="non-negative"):
        equivariant_module_generators(inv, degree_bound=-1)


def test_module_generators_z2_diag(z2_diag):
    inv = invariant_ring_generators(z2_diag)
    eg = equivariant_module_generators(inv)
    assert eg.degrees == (1, 1, 1, 1)
    x1, x2 = variables(2)
    zero = MultiPoly.zero(2)
    assert set(eg.vgens) == {
        PolyVectorField([x1, zero]),
        PolyVectorField([zero, x1]),
        PolyVectorField([x2, zero]),
        PolyVectorField([zero, x2]),
    }


def test_module_generators_swap(swap2):
    inv = invariant_ring_generators(swap2)
    eg = equivariant_module_generators(inv)
    one = MultiPoly.constant(2, 1)
    x1, x2 = variables(2)
    assert eg.degrees == (0, 1)
    assert eg.vgens == (PolyVectorField([one, one]), PolyVectorField([x1, x2]))


def test_module_generators_c4(c4):
    inv = invariant_ring_generators(c4)
    eg = equivariant_module_generators(inv)
    assert sorted(eg.degrees) == [1, 1, 3, 3]
    for v in eg.vgens:
        assert is_invariant(c4, v, THETA)


def test_module_completeness_at_each_degree(sample_groups):
    # dim(products span) + (new generators) accounts for the whole fixed space
    from equivar import invariant_basis

    for group in sample_groups.values():
        inv = invariant_ring_generators(group)
        eg = equivariant_module_generators(inv)
        series = molien_equivariant(group)
        for m in range(group.order):
            monos = xilinear_monomials(group.n, m)
            span = Echelon()
            for w, m_w in zip(eg.vgens, eg.degrees):
                if m_w > m:
                    continue
                for b in invariant_basis(group, m - m_w):
                    span.add(field_to_vector(w.scale(b), monos))
            assert span.rank == series.coefficient(m)


COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3, 7]))


@st.composite
def module_inputs(draw):
    """1-3 variables, 1-3 invariant generators of degrees 1-3 and 1-3 fields
    of degrees 0-2, all with some non-integral coefficients, and some field
    components zero."""
    n = draw(st.integers(1, 3))

    def homogeneous(d, min_size):
        support = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                                min_size=min_size, max_size=3, unique=True))
        return MultiPoly(n, {e: draw(COEFFS) for e in support})

    gens = [homogeneous(draw(st.integers(1, 3)), 1) for _ in range(draw(st.integers(1, 3)))]
    fields, field_degrees = [], []
    for _ in range(draw(st.integers(1, 3))):
        m_w = draw(st.integers(0, 2))
        comps = [homogeneous(m_w, 0) for _ in range(n)]
        if all(c.is_zero for c in comps):
            comps[draw(st.integers(0, n - 1))] = homogeneous(m_w, 1)
        fields.append(PolyVectorField(comps))
        field_degrees.append(m_w)
    return gens, fields, field_degrees, draw(st.integers(0, 6))


@settings(max_examples=40, deadline=None)
@given(module_inputs())
def test_module_products_match_power_product(inputs):
    gens, fields, field_degrees, m = inputs
    n = gens[0].nvars
    inv = InvariantGens(close_group([RatMatrix.identity(n)]), gens)
    labels, cols, dens = _module_products(inv._table, [f.comps for f in fields], m)
    assert labels == [
        (j, a) for j, m_w in enumerate(field_degrees) for a in weighted_monomials(inv.degrees, m - m_w)
    ]
    monos = xilinear_monomials(n, m)
    for (j, a), col, den in zip(labels, cols, dens):
        want = poly_to_vector(pairing(fields[j].scale(power_product(gens, a))), monos)
        assert [Fraction(x, den) for x in col] == want


def test_module_generator_with_a_zero_component():
    # under the reflection diag(-1, 1) the fields are free over Q[x2, x1^2]
    # on (0, 1) and (x1, 0): a generator's degree is its largest component
    # degree, so the zero component of (0, 1), of degree -1, counts for nothing
    group = close_group([RatMatrix.from_rows([[-1, 0], [0, 1]])])
    eg = equivariant_module_generators(invariant_ring_generators(group))
    x1, x2 = variables(2)
    zero, one = MultiPoly.zero(2), MultiPoly.constant(2, 1)
    assert eg.vgens == (PolyVectorField([zero, one]), PolyVectorField([x1, zero]))
    assert eg.degrees == (0, 1)
    labels, cols, dens = _module_products(eg.invariant_gens._table, [v.comps for v in eg.vgens], 2)
    # P1^2 W1 = (0, x2^2), P2 W1 = (0, x1^2) and P1 W2 = (x1 x2, 0), component
    # i of monomial alpha in row 2 alpha + i, over x1^2, x1 x2, x2^2
    assert labels == [(0, (2, 0)), (0, (0, 1)), (1, (1, 0))]
    assert cols == [[0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    assert dens == [1, 1, 1]
    p1, p2 = variables(2)
    field = PolyVectorField([x1 * x2 + 2 * x1, x2**2 + x1**2 + 3 * one])
    assert express_equivariant(eg, field) == [p1**2 + p2 + 3 * one, p1 + 2 * one]


def test_module_over_incomplete_invariants(c4):
    # cut off at degree 2 the invariants generate only Q[x1^2 + x2^2]; the
    # module generators are taken over that ring, the one express_equivariant
    # solves over, so every equivariant field up to the bound is reached
    inv = invariant_ring_generators(c4, degree_bound=2)
    assert inv.degrees == (2,)
    eg = equivariant_module_generators(inv, degree_bound=7)
    assert eg.degrees == (1, 1, 3, 3, 5, 5, 7, 7)
    for m in range(8):
        for field in equivariant_basis(c4, m):
            assert rebuild(eg, express_equivariant(eg, field)) == field


# -- expression --------------------------------------------------------------------


def test_express_equivariant_z2_cubic(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    eg = equivariant_module_generators(inv)
    coeffs = express_equivariant(eg, PolyVectorField([x - x**3]))
    assert coeffs == [MultiPoly(1, {(0,): 1, (1,): -1})]  # 1 - P1


def test_express_equivariant_swap(swap2):
    x1, x2 = variables(2)
    inv = invariant_ring_generators(swap2)
    eg = equivariant_module_generators(inv)
    coeffs = express_equivariant(eg, PolyVectorField([x2, x1]))
    # (y, x) = (x + y) (1,1) - (x, y)
    assert coeffs[0] == MultiPoly.variable(2, 0)
    assert coeffs[1] == MultiPoly.constant(2, -1)


def test_express_equivariant_zero(sample_groups):
    for group in sample_groups.values():
        inv = invariant_ring_generators(group)
        eg = equivariant_module_generators(inv)
        coeffs = express_equivariant(eg, PolyVectorField.zero(group.n))
        assert all(c.is_zero for c in coeffs)


def test_express_equivariant_not_invariant(swap2):
    x1, _ = variables(2)
    inv = invariant_ring_generators(swap2)
    eg = equivariant_module_generators(inv)
    with pytest.raises(NotInvariant):
        express_equivariant(eg, PolyVectorField([x1, MultiPoly.zero(2)]))


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_express_equivariant_round_trip(sample_groups, gname):
    group = sample_groups[gname]
    inv = invariant_ring_generators(group)
    eg = equivariant_module_generators(inv)
    rng = random.Random(77)
    for _ in range(8):
        raw = random_field(rng, group.n, 4)
        field = reynolds(group, THETA, raw)
        assert rebuild(eg, express_equivariant(eg, field)) == field


def test_express_equivariant_with_non_integral_products(z2_diag):
    # invariant generators with denominators give module columns over
    # denominators other than 1, so the solution of the integer system must
    # be scaled back before it means anything
    x1, x2 = variables(2)
    inv = InvariantGens.from_polys(
        z2_diag, [x1**2 + Fraction(1, 3) * x1 * x2, x1 * x2 - Fraction(5, 2) * x2**2, x2**2]
    )
    eg = equivariant_module_generators(inv)
    rng = random.Random(5)
    for _ in range(5):
        field = reynolds(z2_diag, THETA, random_field(rng, 2, 5))
        assert rebuild(eg, express_equivariant(eg, field)) == field


def test_folded_module_span_check_raises(c4, monkeypatch):
    # a degree-3 basis of the right size with one field that is not
    # equivariant passes the fixed-space count; only the span check catches
    # it (at degree 3 the two linear generators times the quadratic
    # invariant span 2 of Molien's 4, so the loop computes the fixed space)
    x1, _ = variables(2)
    bad = PolyVectorField([x1**3, MultiPoly.zero(2)])
    assert not is_invariant(c4, bad, THETA)
    real = equivariants.fixed_basis

    def patched(group, action, d):
        basis = real(group, action, d)
        return basis[:-1] + [pairing(bad)] if d == 3 else basis

    monkeypatch.setattr(equivariants, "fixed_basis", patched)
    inv = invariant_ring_generators(c4)
    assert len(equivariant_basis(c4, 3)) == molien_equivariant(c4).coefficient(3)
    with pytest.raises(DimensionMismatchWithMolien,
                       match="^degree 3: module span has dimension 5, Molien says 4$"):
        equivariant_module_generators(inv, degree_bound=3)


def test_equivariant_gens_read_group_and_degrees_off_their_inputs(c4):
    # the group is the invariant generators', each degree its field's
    inv = invariant_ring_generators(c4)
    eg = equivariant_module_generators(inv)
    rebuilt = equivariants.EquivariantGens(eg.vgens, inv)
    assert rebuilt.group is inv.group
    assert rebuilt.degrees == eg.degrees == (1, 1, 3, 3)
    with pytest.raises(TypeError):
        equivariants.EquivariantGens(c4, eg.vgens, eg.degrees, inv)


def test_express_equivariant_no_solution_messages(z2_diag):
    # over -I every linear field is equivariant; a module of one linear
    # generator misses (x2, 0), and one of a cubic generator has no product
    # of degree 1 at all
    x1, x2 = variables(2)
    zero = MultiPoly.zero(2)
    inv = invariant_ring_generators(z2_diag)
    linear = equivariants.EquivariantGens([PolyVectorField([x1, zero])], inv)
    with pytest.raises(NoSolution, match="^degree-1 component is outside the module span$"):
        express_equivariant(linear, PolyVectorField([x2, zero]))
    cubic = equivariants.EquivariantGens([PolyVectorField([x1**3, zero])], inv)
    with pytest.raises(NoSolution, match="^no module products exist at degree 1$"):
        express_equivariant(cubic, PolyVectorField([x1, zero]) + PolyVectorField([x1**3, zero]))
