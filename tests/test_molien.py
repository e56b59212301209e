"""Dimension series against hand-computed values and a rank oracle."""

import importlib
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    DimensionMismatchWithMolien,
    MatGroup,
    RatMatrix,
    close_group,
    molien,
    molien_equivariant,
)
from equivar import serialize as sz
from equivar.molien import MolienSeries

from conftest import (
    MIXED_GROUPS,
    det_one_minus_t,
    field_action_matrix,
    fixed_space_dim,
    mixed_group,
    rref,
)

# the package's `molien` attribute is the function of that name
molien_module = importlib.import_module("equivar.molien")

GROUPS_DIR = os.path.join(os.path.dirname(__file__), "golden", "groups")


def F(n, d=1):
    return Fraction(n, d)


def test_det_one_minus_t():
    rot = RatMatrix.from_rows([[0, -1], [1, 0]])
    # det(I - t R) = 1 + t^2 for a quarter turn
    assert det_one_minus_t(rot) == [F(1), F(0), F(1)]
    assert det_one_minus_t(RatMatrix.identity(2)) == [F(1), F(-2), F(1)]
    assert det_one_minus_t(RatMatrix.from_rows([[-1]])) == [F(1), F(1)]


def _qt_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qt_det(rows):
    """Determinant of a matrix over Q[t] by cofactor expansion along row 0."""
    if len(rows) == 1:
        return rows[0][0]
    total = [F(0)]
    for j, entry in enumerate(rows[0]):
        minor = _qt_mul(entry, _qt_det([r[:j] + r[j + 1:] for r in rows[1:]]))
        sign = 1 if j % 2 == 0 else -1
        total = [
            (total[i] if i < len(total) else 0) + sign * (minor[i] if i < len(minor) else 0)
            for i in range(max(len(total), len(minor)))
        ]
    return total


@st.composite
def rational_matrices(draw, max_n=5):
    """Square rational matrices of size 1..max_n; about half are made
    singular by replacing the last row with a multiple of the first."""
    n = draw(st.integers(1, max_n))
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 5))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        c = draw(entry)
        rows[-1] = [c * x for x in rows[0]]
    return RatMatrix.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
@example(RatMatrix.from_rows([[0, 0], [0, 0]]))
@example(RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example(RatMatrix.from_rows([[F(1, 2), F(1, 3)], [F(3, 2), 1]]))
def test_det_one_minus_t_matches_cofactor_oracle(m):
    n = m.rows
    rows = [[[F(int(i == j)), -m[i, j]] for j in range(n)] for i in range(n)]
    want = _qt_det(rows)
    while want and want[-1] == 0:
        want.pop()
    assert det_one_minus_t(m) == want


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


def test_non_integral_determinant_is_an_internal_error():
    # not a group: 1/2 has infinite order, so det(I - t/2) = 1 - t/2 is not
    # integral, and the series must not be summed from truncated coefficients;
    # the elements are [1] and [1/2], rows (1, (1,)) and (2, (1,)) as (D, A)
    group = MatGroup(1, [(1, (1,)), (2, (1,))], [(0,), (1,)], [1])
    with pytest.raises(DimensionMismatchWithMolien, match="is not integral"):
        molien(group)


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
    from equivar import xilinear_monomials

    basis = xilinear_monomials(group.n, d)
    stacked = []
    for g in group.gen_indices:
        m = field_action_matrix(group, g, d)
        for i, row in enumerate(m):
            stacked.append([c - Fraction(int(i == j)) for j, c in enumerate(row)])
    rows, _ = rref(stacked)
    return len(basis) - len(rows)


# -- the integer reduction against the Fraction Euclid it replaced --------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _udivmod(a, b):
    """Quotient and remainder over Q, by long division on Fraction lists."""
    rem = list(a)
    quot = [F(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b) and _trim(rem):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] -= factor * cb
        _trim(rem)
    return _trim(quot), rem


def _ugcd(a, b):
    """The monic gcd over Q, by Euclid on Fraction coefficient lists."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _udivmod(a, b)[1]
    return [x / a[-1] for x in a] if a else a


def _fraction_reduction(numer, denom):
    """(numer, denom) as MolienSeries reduced them in Fraction arithmetic:
    cancel the monic gcd, then scale the denominator's constant term to 1."""
    num = _trim([F(x) for x in numer])
    den = _trim([F(x) for x in denom])
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = _ugcd(num, den) if num else []
    if len(g) > 1:
        num = _udivmod(num, g)[0]
        den = _udivmod(den, g)[0]
    if den[0] == 0:
        raise ValueError("denominator vanishes at t=0")
    return tuple(_trim([x / den[0] for x in num])), tuple(_trim([x / den[0] for x in den]))


def _outcome(build):
    try:
        return build()
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def assert_matches_fraction_reduction(numer, denom):
    def built():
        s = MolienSeries(numer, denom)
        return s.numer, s.denom

    assert _outcome(built) == _outcome(lambda: _fraction_reduction(numer, denom))


def _handed_over(group, equivariant):
    """The series of the group and the unreduced (numer, denom) it was built from."""
    calls = []
    real = molien_module.MolienSeries

    def record(numer, denom):
        calls.append((numer, denom))
        return real(numer, denom)

    with mock.patch.object(molien_module, "MolienSeries", side_effect=record):
        series = molien_module._averaged_series(group, equivariant)
    (numer, denom), = calls
    return series, numer, denom


SERIES_GROUPS = [f"file:{name[:-5]}" for name in sorted(os.listdir(GROUPS_DIR))] + [
    f"mixed:{name}" for name in sorted(MIXED_GROUPS)
]


@pytest.mark.parametrize("source", SERIES_GROUPS)
def test_group_series_match_fraction_reduction(source):
    kind, name = source.split(":")
    if kind == "file":
        group = sz.group_from_doc(sz.load_json(os.path.join(GROUPS_DIR, name + ".json")))
    else:
        group = mixed_group(name)
    for equivariant in (False, True):
        series, numer, denom = _handed_over(group, equivariant)
        assert all(type(x) is int for x in list(numer) + list(denom))
        assert (series.numer, series.denom) == _fraction_reduction(numer, denom)
        assert all(type(x) is Fraction for x in series.numer + series.denom)
        assert series.denom[0] == 1
        for degrees in ([1], [2, 2], [2, 4], [2, 4, 6], [3, 4, 6], [2, 6, 8, 12]):
            assert series.hsop_numerator(degrees) == _fraction_hsop_numerator(series, degrees)


def _fraction_hsop_numerator(series, degrees):
    """hsop_numerator by long division in Fractions."""
    num = list(series.numer)
    for d in degrees:
        num = _qt_mul(num, [F(1)] + [F(0)] * (d - 1) + [F(-1)])
    quot, rem = _udivmod(_trim(num), list(series.denom))
    return None if rem else quot


def _int_polys(max_degree):
    return st.lists(st.integers(-6, 6), min_size=1, max_size=max_degree + 1)


@settings(max_examples=200, deadline=None)
@given(_int_polys(4), _int_polys(4), _int_polys(3), st.integers(1, 12), st.booleans())
def test_planted_common_factor_matches_fraction_reduction(a, b, c, scale, as_fractions):
    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    numer, denom = mul(a, c), mul(b, c)
    if as_fractions:
        numer = [F(x, scale) for x in numer]
    else:
        denom = [scale * x for x in denom]
    assert_matches_fraction_reduction(numer, denom)


@pytest.mark.parametrize("numer, denom", [
    ([1], [2, -1]),
    ([F(1), F(-1)], [F(1), F(-2), F(1)]),
    ([F(1, 2), F(-1, 2)], [F(2, 3), F(-4, 3), F(2, 3)]),
    ([0, 1], [0, 1, 1]),
    ([0, 1], [0, 0, 1]),
    ([], [3, 1]),
    ([1], []),
])
def test_non_monic_and_edge_cases_match_fraction_reduction(numer, denom):
    assert_matches_fraction_reduction(numer, denom)
