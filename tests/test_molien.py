"""Dimension series against hand-computed values and a rank oracle."""

from fractions import Fraction

import pytest

from equivar import DimensionMismatchWithMolien, RatMatrix, close_group, molien, molien_equivariant
from equivar.molien import MolienSeries, det_one_minus_t

from conftest import field_action_matrix, fixed_space_dim


def F(n, d=1):
    return Fraction(n, d)


def test_det_one_minus_t():
    rot = RatMatrix.from_rows([[0, -1], [1, 0]])
    # det(I - t R) = 1 + t^2 for a quarter turn
    assert det_one_minus_t(rot) == [F(1), F(0), F(1)]
    assert det_one_minus_t(RatMatrix.identity(2)) == [F(1), F(-2), F(1)]
    assert det_one_minus_t(RatMatrix.from_rows([[-1]])) == [F(1), F(1)]


def test_series_expansion():
    # 1 / (1 - t^2) = 1 + t^2 + t^4 + ...
    s = MolienSeries([F(1)], [F(1), F(0), F(-1)])
    assert s.coefficients(6) == [1, 0, 1, 0, 1, 0, 1]


def test_non_dimension_coefficient_is_a_domain_error():
    # 1 / (2 - t) = 1/2 + t/4 + ...: no coefficient counts dimensions
    s = MolienSeries([F(1)], [F(2), F(-1)])
    with pytest.raises(DimensionMismatchWithMolien, match="1/2 at degree 0"):
        s.coefficient(0)
    with pytest.raises(DimensionMismatchWithMolien):
        MolienSeries([F(-1)], [F(1)]).coefficient(0)


def test_series_reduces_fraction():
    # (1 - t) / (1 - t)^2 == 1 / (1 - t)
    s = MolienSeries([F(1), F(-1)], [F(1), F(-2), F(1)])
    assert s.numer == (F(1),)
    assert s.denom == (F(1), F(-1))


def test_molien_z2_line(z2_line):
    s = molien(z2_line)
    assert s.numer == (F(1),)
    assert s.denom == (F(1), F(0), F(-1))
    assert s.coefficients(7) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_molien_z2_diag(z2_diag):
    s = molien(z2_diag)
    # (1 + t^2) / (1 - t^2)^2, so three quadratic invariants
    assert s.numer == (F(1), F(0), F(1))
    assert s.denom == (F(1), F(0), F(-2), F(0), F(1))
    assert s.coefficient(2) == 3


def test_molien_trivial_group():
    for n in (1, 2, 3):
        triv = close_group([RatMatrix.identity(n)])
        s = molien(triv)
        # 1 / (1 - t)^n counts all monomials
        assert s.coefficients(4) == [
            len(list(_monos(n, d))) for d in range(5)
        ]


def _monos(n, d):
    from equivar import monomials_of_degree

    return monomials_of_degree(n, d)


def test_molien_equivariant_z2_line(z2_line):
    s = molien_equivariant(z2_line)
    assert s.numer == (F(0), F(1))
    assert s.denom == (F(1), F(0), F(-1))
    assert s.coefficients(6) == [0, 1, 0, 1, 0, 1, 0]


def test_molien_equivariant_swap(swap2):
    s = molien_equivariant(swap2)
    assert s.numer == (F(1),)
    assert s.denom == (F(1), F(-2), F(1))
    assert s.coefficients(5) == [1, 2, 3, 4, 5, 6]


def test_molien_equivariant_trivial():
    triv = close_group([RatMatrix.identity(3)])
    s = molien_equivariant(triv)
    assert s.coefficient(0) == 3
    assert s.coefficient(1) == 9


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_molien_matches_fixed_space_oracle(sample_groups, gname):
    group = sample_groups[gname]
    s = molien(group)
    for d in range(9):
        assert s.coefficient(d) == fixed_space_dim(group, d)


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_equivariant_molien_matches_fixed_space_oracle(sample_groups, gname):
    group = sample_groups[gname]
    s = molien_equivariant(group)
    for d in range(7):
        assert s.coefficient(d) == _equivariant_dim(group, d)


def _equivariant_dim(group, d):
    from equivar.equivariants import xilinear_monomials
    from equivar.linalg import rref

    basis = xilinear_monomials(group.n, d)
    stacked = []
    for g in group.gen_indices:
        m = field_action_matrix(group, g, d)
        for i, row in enumerate(m):
            stacked.append([c - Fraction(int(i == j)) for j, c in enumerate(row)])
    rows, _ = rref(stacked)
    return len(basis) - len(rows)
