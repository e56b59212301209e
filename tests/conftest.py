"""Shared fixtures: the four desk-scale sample groups and brute-force oracles.

The oracles here recompute dimensions and fixed spaces by stacking action
matrices and rank-counting, independently of both the production
fixed-space route (orbit sums or the generator kernel) and the Molien series,
so the three agree only if all are right.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from equivar import (
    MatGroup,
    MultiPoly,
    PolyVectorField,
    RatMatrix,
    act_phi_dagger,
    act_theta,
    close_group,
    monomials_of_degree,
    pairing,
)
from equivar.equivariants import xilinear_monomials
from equivar.linalg import rref
from equivar.poly import poly_to_vector


@pytest.fixture(scope="session")
def z2_line() -> MatGroup:
    """{+-1} acting on the line."""
    return close_group([RatMatrix.from_rows([[-1]])])


@pytest.fixture(scope="session")
def z2_diag() -> MatGroup:
    """{+-I} acting on the plane."""
    return close_group([RatMatrix.from_rows([[-1, 0], [0, -1]])])


@pytest.fixture(scope="session")
def swap2() -> MatGroup:
    """Coordinate swap on the plane."""
    return close_group([RatMatrix.from_rows([[0, 1], [1, 0]])])


@pytest.fixture(scope="session")
def c4() -> MatGroup:
    """Quarter-turn rotations of the plane."""
    return close_group([RatMatrix.from_rows([[0, -1], [1, 0]])])


@pytest.fixture(scope="session")
def sample_groups(z2_line, z2_diag, swap2, c4):
    return {"z2_line": z2_line, "z2_diag": z2_diag, "swap2": swap2, "c4": c4}


def poly_action_matrix(group: MatGroup, g: int, degree: int) -> list[list[Fraction]]:
    """Matrix of the polynomial action of element g on the degree-d monomials."""
    basis = monomials_of_degree(group.n, degree)
    cols = [
        poly_to_vector(act_phi_dagger(group, g, MultiPoly.monomial(e)), basis)
        for e in basis
    ]
    return [[col[r] for col in cols] for r in range(len(basis))]


def field_action_matrix(group: MatGroup, g: int, degree: int) -> list[list[Fraction]]:
    """Matrix of the pushforward action of g on degree-d vector-field monomials."""
    basis = xilinear_monomials(group.n, degree)
    cols = []
    for e in basis:
        alpha, xi = e[: group.n], e[group.n :]
        comps = [
            MultiPoly.monomial(alpha) if xi[i] == 1 else MultiPoly.zero(group.n)
            for i in range(group.n)
        ]
        moved = act_theta(group, g, PolyVectorField(comps))
        cols.append(poly_to_vector(pairing(moved), basis))
    return [[col[r] for col in cols] for r in range(len(basis))]


def fixed_space_dim(group: MatGroup, degree: int, action_matrix=poly_action_matrix) -> int:
    """dim of the fixed space at one degree: nullity of stacked (M_g - I)."""
    if degree == 0:
        return 1
    stacked: list[list[Fraction]] = []
    size = None
    for g in group.gen_indices:
        m = action_matrix(group, g, degree)
        size = len(m)
        for i, row in enumerate(m):
            stacked.append([c - Fraction(int(i == j)) for j, c in enumerate(row)])
    rows, _ = rref(stacked)
    return size - len(rows)


def random_poly(rng, nvars: int, max_degree: int) -> MultiPoly:
    """Small random polynomial with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(d):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(nvars, terms)


def random_field(rng, n: int, max_degree: int) -> PolyVectorField:
    return PolyVectorField([random_poly(rng, n, max_degree) for _ in range(n)])
