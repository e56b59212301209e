"""Larger and non-orthogonal groups: classical results as frozen oracles."""

import pytest

from equivar import (
    RatMatrix,
    close_group,
    equivariant_module_generators,
    invariant_ring_generators,
    molien,
    relations,
    variables,
)
from equivar.actions import PolyVectorField, THETA, is_invariant
from equivar.invariants import express


@pytest.fixture(scope="module")
def sheared_swap():
    # conjugate of the coordinate swap by a shear: not orthogonal, still finite
    t = RatMatrix.from_rows([[1, 1], [0, 1]])
    s = RatMatrix.from_rows([[0, 1], [1, 0]])
    return close_group([t @ s @ t.inverse()])


@pytest.fixture(scope="module")
def d4():
    r = RatMatrix.from_rows([[0, -1], [1, 0]])
    m = RatMatrix.from_rows([[1, 0], [0, -1]])
    return close_group([r, m])


@pytest.fixture(scope="module")
def s3():
    c3 = RatMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    s12 = RatMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    return close_group([c3, s12])


def test_non_orthogonal_group(sheared_swap):
    assert sheared_swap.order == 2
    # Molien depends only on conjugacy: same series as the plain swap
    assert molien(sheared_swap).coefficients(6) == [1, 1, 2, 2, 3, 3, 4]
    inv = invariant_ring_generators(sheared_swap)
    assert inv.degrees == (1, 2)
    eg = equivariant_module_generators(inv)
    assert eg.degrees == (0, 1)
    assert len(relations(inv, 6)) == 0


def test_d4_two_generators(d4):
    assert d4.order == 8
    assert len(d4.gen_indices) == 2
    x1, x2 = variables(2)
    inv = invariant_ring_generators(d4)
    assert inv.degrees == (2, 4)
    assert inv.gens[0] == x1**2 + x2**2
    eg = equivariant_module_generators(inv)
    assert eg.degrees == (1, 3)
    # x^2 y^2 is invariant and a polynomial in the two generators
    f = express(inv, x1**2 * x2**2)
    assert inv.substitute(f) == x1**2 * x2**2


def test_s3_power_sums(s3):
    assert s3.order == 6
    x1, x2, x3 = variables(3)
    inv = invariant_ring_generators(s3)
    assert inv.degrees == (1, 2, 3)
    assert inv.gens == (
        x1 + x2 + x3,
        x1**2 + x2**2 + x3**2,
        x1**3 + x2**3 + x3**3,
    )
    # symmetric polynomial ring is free
    assert len(relations(inv, 6)) == 0


def test_s3_equivariants(s3):
    x1, x2, x3 = variables(3)
    inv = invariant_ring_generators(s3)
    eg = equivariant_module_generators(inv)
    assert eg.degrees == (0, 1, 2)
    assert eg.vgens[1] == PolyVectorField([x1, x2, x3])
    assert eg.vgens[2] == PolyVectorField([x1**2, x2**2, x3**2])
    for v in eg.vgens:
        assert is_invariant(s3, v, THETA)
