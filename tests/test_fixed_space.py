"""The generator-only fixed spaces and the bucketed Molien sums against oracles.

invariant_basis and equivariant_basis use the generators only: orbit sums
for groups of monomial matrices, and the integer kernel of rho_d(g) - I for
all other groups.  The oracle for both is the definition: Reynolds-average
every monomial over the whole group and row-reduce.  The Molien series,
summed once per distinct det(I - t g^-1), is held against the plain sum over
every element.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equivar import (
    PHI_DAGGER,
    PSI,
    ClosureExceedsCap,
    MatGroup,
    MolienSeries,
    MultiPoly,
    RatMatrix,
    close_group,
    equivariant_basis,
    invariant_basis,
    molien,
    molien_equivariant,
    monomials_of_degree,
    reynolds,
    unpairing,
    xilinear_monomials,
)
from equivar.linalg import rref
from equivar.molien import det_one_minus_t
from equivar.poly import poly_to_vector, vector_to_poly

MAX_DEGREE = 4


def reynolds_basis(group: MatGroup, action: str, monos) -> list[MultiPoly]:
    """rref of the Reynolds averages of every monomial in monos."""
    vectors = [
        poly_to_vector(reynolds(group, action, MultiPoly.monomial(e)), monos) for e in monos
    ]
    rows, _ = rref(vectors)
    return [vector_to_poly(r, monos, len(monos[0])) for r in rows]


def _upoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _upoly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def elementwise_series(group: MatGroup, weight) -> MolienSeries:
    """(1/|G|) sum_g weight(g) / det(I - t g^-1), one term per element."""
    num, den = [Fraction(0)], [Fraction(1)]
    for g in range(group.order):
        d_g = det_one_minus_t(group.matrix(group.inverse_index(g)))
        num = _upoly_add(_upoly_mul(num, d_g), [weight(g) * c for c in den])
        den = _upoly_mul(den, d_g)
    return MolienSeries([c / group.order for c in num], den)


def assert_matches_oracles(group: MatGroup, max_degree: int = MAX_DEGREE) -> None:
    n = group.n
    # neither route may average over the group
    with mock.patch("equivar.actions.reynolds", side_effect=AssertionError("Reynolds route")):
        inv = {d: invariant_basis(group, d) for d in range(1, max_degree + 1)}
        eq = {m: equivariant_basis(group, m) for m in range(max_degree)}
    for d, basis in inv.items():
        assert basis == reynolds_basis(group, PHI_DAGGER, monomials_of_degree(n, d)), d
    # field degree m is phase degree m + 1
    for m, basis in eq.items():
        oracle = reynolds_basis(group, PSI, xilinear_monomials(n, m))
        assert basis == [unpairing(q) for q in oracle], m
    assert molien(group) == elementwise_series(group, lambda g: Fraction(1))
    assert molien_equivariant(group) == elementwise_series(
        group, lambda g: group.matrix(g).trace()
    )


@st.composite
def signed_permutation_groups(draw):
    """Groups of order <= 48 generated by signed permutations of Q^2..Q^4."""
    n = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        gens.append(RatMatrix.from_rows(
            [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        ))
    try:
        return close_group(gens, cap=48)
    except ClosureExceedsCap:
        assume(False)


@settings(max_examples=10, deadline=None)
@given(signed_permutation_groups())
def test_signed_permutation_groups_match_oracles(group):
    assert_matches_oracles(group)


def test_scaled_monomial_matches_oracles():
    # order 2, but the coefficients 2 and 1/2 make orbit sums non-uniform
    group = close_group([RatMatrix.from_rows([[0, 2], [Fraction(1, 2), 0]])])
    assert group.order == 2
    assert_matches_oracles(group)
    x1, x2 = (MultiPoly.variable(2, i) for i in range(2))
    assert invariant_basis(group, 1) == [x1 + x2 * 2]


def test_z2_line_odd_degrees_cancel(z2_line):
    assert_matches_oracles(z2_line, max_degree=6)
    for d in (1, 3, 5):
        assert invariant_basis(z2_line, d) == []
    for m in (1, 3, 5):
        assert len(equivariant_basis(z2_line, m)) == 1
    for m in (0, 2, 4):
        assert equivariant_basis(z2_line, m) == []


# Non-monomial groups: the kernel route.

BASE_GROUPS = {
    "C2": [[[0, 1], [1, 0]]],
    "C3": [[[0, -1], [1, -1]]],
    "C4": [[[0, -1], [1, 0]]],
    "D4": [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
    "S3": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
}


@st.composite
def rational_conjugates(draw):
    """T g T^-1 over the generators of a small group, T random and rational."""
    gens = [RatMatrix.from_rows(g) for g in BASE_GROUPS[draw(st.sampled_from(sorted(BASE_GROUPS)))]]
    n = gens[0].rows
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    t = RatMatrix.from_rows([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)])
    try:
        t_inv = t.inverse()
    except ValueError:
        assume(False)
    return close_group([t @ g @ t_inv for g in gens])


@settings(max_examples=12, deadline=None)
@given(rational_conjugates())
def test_rational_conjugates_match_oracles(group):
    assert_matches_oracles(group)


def test_non_integral_conjugate_matches_oracles():
    # D4 conjugated by [[2, 1], [0, 1]]: entries 1/2 and -5/2, so the action
    # blocks are scaled by powers of 2 before elimination
    t = RatMatrix.from_rows([[2, 1], [0, 1]])
    gens = [t @ RatMatrix.from_rows(g) @ t.inverse() for g in BASE_GROUPS["D4"]]
    assert any(c.denominator != 1 for g in gens for c in g.entries)
    group = close_group(gens)
    assert group.order == 8
    assert_matches_oracles(group, max_degree=5)
