"""Invariant ring generators, expression, and relations."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import (
    DimensionMismatchWithMolien,
    InvariantGens,
    MultiPoly,
    NoSolution,
    NotInvariant,
    PHI_DAGGER,
    RatMatrix,
    RelationSet,
    close_group,
    express,
    invariant_basis,
    invariant_ring_generators,
    is_invariant,
    molien,
    relations,
    variables,
    weighted_monomials,
)
from equivar import invariants
from equivar.poly import ProductTable
from equivar.linalg import Echelon
from equivar.poly import monomials_of_degree

from conftest import fixed_space_dim, poly_to_vector, power_product, random_poly

P1 = ["P1"]
P2 = ["P1", "P2"]
P3 = ["P1", "P2", "P3"]


# -- bases ---------------------------------------------------------------------


def test_invariant_basis_examples(z2_line, z2_diag):
    x, = variables(1)
    assert invariant_basis(z2_line, 2) == [x**2]
    assert invariant_basis(z2_line, 3) == []

    x1, x2 = variables(2)
    assert invariant_basis(z2_diag, 2) == [x1**2, x1 * x2, x2**2]
    with pytest.raises(ValueError, match="non-negative"):
        invariant_basis(z2_line, -1)


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_basis_size_matches_oracle_and_molien(sample_groups, gname):
    group = sample_groups[gname]
    series = molien(group)
    for d in range(7):
        basis = invariant_basis(group, d)
        assert len(basis) == fixed_space_dim(group, d) == series.coefficient(d)
        for b in basis:
            assert b.is_homogeneous()
            assert is_invariant(group, b, PHI_DAGGER)


# -- ring generators --------------------------------------------------------------


def test_generators_z2_line(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    assert inv.gens == (x**2,)
    assert inv.degrees == (2,)


def test_generators_z2_diag(z2_diag):
    x1, x2 = variables(2)
    inv = invariant_ring_generators(z2_diag)
    assert inv.gens == (x1**2, x1 * x2, x2**2)
    assert inv.degrees == (2, 2, 2)


def test_generators_swap(swap2):
    inv = invariant_ring_generators(swap2)
    assert inv.degrees == (1, 2)
    x1, x2 = variables(2)
    assert inv.gens[0] == x1 + x2


def test_generators_c4(c4):
    inv = invariant_ring_generators(c4)
    assert sorted(inv.degrees) == [2, 4, 4]
    x1, x2 = variables(2)
    assert inv.gens[0] == x1**2 + x2**2
    for g in inv.gens:
        assert is_invariant(c4, g, PHI_DAGGER)


def test_c4_products_span_through_degree_8(c4):
    # completeness beyond the Noether bound: products of the generators fill
    # every invariant graded piece through degree 8
    inv = invariant_ring_generators(c4)
    series = molien(c4)
    for d in range(1, 9):
        basis_monos = monomials_of_degree(2, d)
        span = Echelon()
        for a in weighted_monomials(inv.degrees, d):
            span.add(poly_to_vector(power_product(inv.gens, a), basis_monos))
        assert span.rank == series.coefficient(d)


def test_generators_deterministic(c4):
    a = invariant_ring_generators(c4)
    b = invariant_ring_generators(c4)
    assert a.gens == b.gens and a.degrees == b.degrees


def test_generator_bound_override(z2_line):
    inv = invariant_ring_generators(z2_line, degree_bound=6)
    assert inv.degrees == (2,)  # nothing new shows up through degree 6


# -- Hilbert map --------------------------------------------------------------------


def test_hilbert_map_examples(z2_line, z2_diag):
    inv1 = invariant_ring_generators(z2_line)
    assert inv1.hilbert_map([3]) == (9,)

    inv2 = invariant_ring_generators(z2_diag)
    assert inv2.hilbert_map([1, 2]) == (1, 2, 4)
    assert inv2.hilbert_map([0, 0]) == (0, 0, 0)


# -- express ---------------------------------------------------------------------------


def test_express_square(z2_line):
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    f = express(inv, x**4)
    assert f == MultiPoly(1, {(2,): 1})  # P1^2


def test_express_z2_diag_tie_break(z2_diag):
    # underdetermined because P1 P3 == P2^2; the free-coordinate-zero rule
    # keeps the graded-lex earlier product P1 P3
    x1, x2 = variables(2)
    inv = invariant_ring_generators(z2_diag)
    q = x1**4 + 2 * x1**2 * x2**2 + x2**4
    f = express(inv, q)
    assert f == MultiPoly(3, {(2, 0, 0): 1, (1, 0, 1): 2, (0, 0, 2): 1})
    assert inv.substitute(f) == q


def test_express_not_invariant(z2_diag):
    x1, _ = variables(2)
    inv = invariant_ring_generators(z2_diag)
    with pytest.raises(NotInvariant) as err:
        express(inv, x1**3)
    assert err.value.generator_index in z2_diag.gen_indices
    assert not err.value.difference.is_zero


def test_express_incomplete_generators_raise(z2_line):
    x, = variables(1)
    partial = InvariantGens.from_polys(z2_line, [x**4])
    with pytest.raises(NoSolution):
        express(partial, x**2)


def test_express_all_raises_first_failure_in_polynomial_order(z2_diag):
    # one elimination per degree serves every polynomial, but the error is
    # the one that solving them in turn, each degree ascending, meets first
    x, y = variables(2)

    def express_all(inv, qs):
        return invariants._express_all(inv, [inv._table.columns([q]) for q in qs])

    partial = InvariantGens.from_polys(z2_diag, [x**2])
    qs = [x**2 + x**4, x**2 + y**4, y**2 + x**3]
    with pytest.raises(NoSolution, match="^degree-4 component is outside the generator span$"):
        express_all(partial, qs)
    with pytest.raises(NoSolution, match="^no generator products exist at degree 3$"):
        express_all(partial, [x**4, x**3 + y**4])
    full = invariant_ring_generators(z2_diag)
    qs = [x**2 + y**4, y**2, x**4 + x * y**3, MultiPoly.zero(2)]
    assert express_all(full, qs) == [express(full, q) for q in qs]


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_express_round_trip_random(sample_groups, gname):
    # push random P-polynomials through substitution, express the result,
    # substitute back: must reproduce exactly
    group = sample_groups[gname]
    inv = invariant_ring_generators(group)
    rng = random.Random(101)
    for _ in range(10):
        f0 = random_poly(rng, inv.k, 3)
        q = inv.substitute(f0)
        f = express(inv, q)
        assert inv.substitute(f) == q


# -- relations ------------------------------------------------------------------------------


def test_relations_free_ring(z2_line):
    inv = invariant_ring_generators(z2_line)
    assert len(relations(inv, 8)) == 0


def test_relations_z2_diag(z2_diag):
    inv = invariant_ring_generators(z2_diag)
    rset = relations(inv, 4)
    assert len(rset) == 1
    # P1 P3 - P2^2, normalized monic in graded-lex
    assert rset.rels[0] == MultiPoly(3, {(1, 0, 1): 1, (0, 2, 0): -1})
    assert rset.weighted_degrees == (4,)
    assert inv.substitute(rset.rels[0]).is_zero


@pytest.mark.parametrize("name, bound", [("z2_diag", 8), ("c4", 12), ("swap2", 6)])
def test_relation_set_reads_its_weighted_degrees_off_the_relations(name, bound, request):
    # each relation is weighted homogeneous, so the weight of its leading
    # exponents is the weighted degree at which relations found it
    inv = invariant_ring_generators(request.getfixturevalue(name))
    rset = relations(inv, bound)
    assert RelationSet(inv, rset.rels).weighted_degrees == rset.weighted_degrees
    for rel, w in zip(rset.rels, rset.weighted_degrees):
        assert {sum(x * d for x, d in zip(a, inv.degrees)) for a, _ in rel} == {w}


def test_degrees_and_monomials_cannot_be_restated(c4):
    # C4's degrees are (2, 4, 4); the set and the fixed space derive theirs,
    # so a caller has no way to hand them a contradicting list
    inv = invariant_ring_generators(c4)
    with pytest.raises(TypeError):
        InvariantGens(c4, inv.gens, [2, 2, 4])
    with pytest.raises(TypeError):
        InvariantGens(c4, inv.gens, [2, 4, 4])
    with pytest.raises(TypeError):
        invariants.fixed_basis(c4, PHI_DAGGER, monomials_of_degree(2, 4)[::-1])


def test_relations_multiples_are_dropped(z2_diag):
    inv = invariant_ring_generators(z2_diag)
    rset = relations(inv, 8)
    # P-multiples of the degree-4 relation must not reappear at 6 or 8
    assert rset.weighted_degrees == (4,)


def test_relations_explicit_swap_gens(swap2):
    # elementary symmetric generators are algebraically independent
    x1, x2 = variables(2)
    gens = InvariantGens.from_polys(swap2, [x1 + x2, x1 * x2])
    assert gens.degrees == (1, 2)
    assert len(relations(gens, 6)) == 0


def test_relations_substitute_to_zero(c4):
    inv = invariant_ring_generators(c4)
    rset = relations(inv, 8)
    assert len(rset) >= 1
    for r in rset:
        assert inv.substitute(r).is_zero


def test_relations_bound_precondition(z2_diag):
    inv = invariant_ring_generators(z2_diag)
    with pytest.raises(ValueError):
        relations(inv, 3)


# -- explicit construction -------------------------------------------------------------------


def test_from_polys_validates(z2_line):
    x, = variables(1)
    with pytest.raises(NotInvariant):
        InvariantGens.from_polys(z2_line, [x])
    with pytest.raises(ValueError):
        InvariantGens.from_polys(z2_line, [x**2 + x**4])  # not homogeneous
    with pytest.raises(ValueError, match="positive degree"):
        InvariantGens.from_polys(z2_line, [MultiPoly.constant(1, 1), x**2])  # degree 0


@pytest.mark.parametrize("gen", ["x1^2 + x2^2 + x1^4 + x2^4", "1", "0"])
def test_constructor_refuses_generators_that_are_not_homogeneous(c4, gen):
    # the product table files each generator's columns under its one
    # degree; a mixed-degree one made substitute die on a missing key
    x1, x2 = variables(2)
    p = {"x1^2 + x2^2 + x1^4 + x2^4": x1**2 + x2**2 + x1**4 + x2**4,
         "1": MultiPoly.constant(2, 1), "0": MultiPoly.zero(2)}[gen]
    with pytest.raises(ValueError, match="is not homogeneous of positive degree$"):
        InvariantGens(c4, [p])
    with pytest.raises(ValueError, match="is not homogeneous of positive degree$"):
        InvariantGens.from_polys(c4, [p])


def test_from_polys_normalizes_order_and_scale(swap2):
    x1, x2 = variables(2)
    gens = InvariantGens.from_polys(swap2, [3 * x1 * x2, x1 + x2])
    assert gens.degrees == (1, 2)
    assert gens.gens == (x1 + x2, x1 * x2)


def test_weighted_monomials_order():
    # descending graded-lex: higher total degree first, then lex
    assert weighted_monomials((1, 2), 2) == [(2, 0), (0, 1)]
    assert weighted_monomials((2, 2, 2), 4) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert weighted_monomials((2,), 3) == []


# -- product table against the power_product oracle ------------------------------------

COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3, 7]))


@st.composite
def generator_sets(draw):
    """1-4 variables, 1-3 homogeneous generators of degrees 1-3 with some
    non-integral coefficients."""
    n = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(n, draw(st.integers(1, 3)))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        gens.append(MultiPoly(n, {e: draw(COEFFS) for e in support}))
    return n, gens


@settings(max_examples=25, deadline=None)
@given(generator_sets(), st.data())
def test_product_table_matches_power_product(gs, data):
    # every product of weighted degree <= 8, asked for in a random order, with
    # the last generators appended only after some columns have been read
    n, gens = gs
    degrees = [p.total_degree() for p in gens]
    exps = [a for d in range(9) for a in weighted_monomials(degrees, d)]
    order = data.draw(st.permutations(exps))
    split = data.draw(st.integers(1, len(gens)))
    table = ProductTable(n, gens[:split])
    for a in order:
        if not any(a[split:]):
            table.column(a[:split])
    for p in gens[split:]:
        table.append(p)
    for a in order:
        d = sum(x * w for x, w in zip(a, degrees))
        nums, den = table.column(a)
        want = poly_to_vector(power_product(gens, a), monomials_of_degree(n, d))
        assert [Fraction(x, den) for x in nums] == want


@settings(max_examples=25, deadline=None)
@given(generator_sets(), st.data())
def test_substitute_matches_polynomial_substitution(gs, data):
    # the set reads its degrees off the generators, and express solves over
    # the products of those degrees: it writes f(p) back over p
    n, gens = gs
    inv = InvariantGens(close_group([RatMatrix.identity(n)]), gens)
    assert inv.degrees == tuple(p.total_degree() for p in gens)
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(gens)), COEFFS, max_size=6))
    f = MultiPoly(len(gens), terms)
    q = inv.substitute(f)
    assert q == f.substitute(list(gens))
    assert inv.substitute(express(inv, q)) == q


def test_express_and_relations_with_non_integral_generators(z2_diag):
    # generators with denominators give product columns over denominators
    # other than 1, so solutions and kernels of the integer system must be
    # scaled back before they mean anything
    x1, x2 = variables(2)
    inv = InvariantGens.from_polys(
        z2_diag, [x1**2 + Fraction(1, 3) * x1 * x2, x1 * x2 - Fraction(5, 2) * x2**2, x2**2]
    )
    rng = random.Random(7)
    for _ in range(5):
        q = inv.substitute(random_poly(rng, inv.k, 3))
        assert inv.substitute(express(inv, q)) == q
    rels = relations(inv, 4)
    assert len(rels) == 1
    assert inv.substitute(rels.rels[0]).is_zero


def test_folded_span_check_raises(c4, monkeypatch):
    # a degree-4 basis of the right size with one element that is not
    # invariant passes the fixed-space count; only the span check catches it
    # (at degree 4 the square of C4's quadratic generator spans 1 of
    # Molien's 3, so the loop computes the fixed space there)
    x1, _ = variables(2)
    assert not is_invariant(c4, x1**4, PHI_DAGGER)
    real = invariants.fixed_basis

    def patched(group, action, d):
        basis = real(group, action, d)
        return basis[:-1] + [x1**4] if d == 4 else basis

    monkeypatch.setattr(invariants, "fixed_basis", patched)
    assert len(invariant_basis(c4, 4)) == molien(c4).coefficient(4)
    with pytest.raises(DimensionMismatchWithMolien,
                       match="^degree 4: generator products span dimension 4, Molien says 3$"):
        invariant_ring_generators(c4, degree_bound=4)


def test_loop_table_survives_handover(c4):
    inv = invariant_ring_generators(c4)
    fresh = InvariantGens(c4, inv.gens)
    memo = dict(inv._table._cols)
    assert len(memo) > 1 and len(fresh._table._cols) == 1
    for a, col in memo.items():
        assert fresh._table.column(a) == col
    rng = random.Random(5)
    for _ in range(5):
        f = random_poly(rng, inv.k, 3)
        assert inv.substitute(f) == fresh.substitute(f)
    assert relations(inv, 8).rels == relations(fresh, 8).rels


def test_loop_table_out_of_generator_order_is_an_internal_error(c4):
    real = invariants._graded_generators

    def reordered(*args):
        gens, *rest = real(*args)
        return gens[::-1], *rest

    with mock.patch.object(invariants, "_graded_generators", side_effect=reordered), \
            pytest.raises(RuntimeError, match="not over the generators in order"):
        invariant_ring_generators(c4)
