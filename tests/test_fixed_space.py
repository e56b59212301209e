"""The generator-only fixed spaces and the bucketed Molien sums against oracles.

invariant_basis and equivariant_basis use the generators only: the orbit
sums of the monomial generators, cut down by the integer kernel of
rho_d(g) - I of the others.  The oracle for both is the definition:
Reynolds-average every monomial over the whole group and row-reduce.  The Molien series,
summed once per distinct det(I - t g), is held against the plain sum of
1 / det(I - t g^-1) over every element.

Both run on Python ints where the data allow: the orbit sums while the
monomial generators' entries are integers, the Molien sums always, since
det(I - t g) is integral for g of finite order.  Each is held against the
Fraction routine it replaced.
"""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    PHI_DAGGER,
    PSI,
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
from equivar.actions import _orbit_sums, _relabelling, _relabellings, _substitution_matrix
from equivar.molien import _averaged_series
from equivar.serialize import group_from_doc

from conftest import (
    BASE_GROUPS,
    MIXED_GROUPS,
    det_one_minus_t,
    field_action_matrix,
    mixed_generating_sets,
    mixed_group,
    monomial,
    poly_action_matrix,
    poly_to_vector,
    rational_conjugates,
    rref,
    signed_permutation_groups,
    signed_permutations,
)

MAX_DEGREE = 4


def reynolds_basis(group: MatGroup, action: str, monos) -> list[MultiPoly]:
    """rref of the Reynolds averages of every monomial in monos."""
    vectors = [
        poly_to_vector(reynolds(group, action, monomial(e)), monos) for e in monos
    ]
    rows, _ = rref(vectors)
    return [MultiPoly(len(monos[0]), zip(monos, r)) for r in rows]


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
        d_g = det_one_minus_t(group.inverse(g))
        num = _upoly_add(_upoly_mul(num, d_g), [weight(g) * c for c in den])
        den = _upoly_mul(den, d_g)
    return MolienSeries([c / group.order for c in num], den)


def assert_matches_oracles(group: MatGroup, max_degree: int = MAX_DEGREE) -> None:
    n = group.n
    # the fixed spaces may not average over the group
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


# Groups with no monomial generator: only the kernel acts.

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


# Generating sets that mix monomial and non-monomial matrices: the orbit sums
# of the monomial generators, restricted to the kernel of the others.

def _d4_frac_with_minus_identity() -> list[RatMatrix]:
    return [RatMatrix.from_rows([[-1, 0], [0, -1]])] + [
        RatMatrix.from_rows(g) for g in MIXED_GROUPS["D4_frac"]
    ]


@settings(max_examples=10, deadline=None)
@given(mixed_generating_sets())
@example([RatMatrix.from_rows(g) for g in MIXED_GROUPS["D6_hex"]])
@example(_d4_frac_with_minus_identity())
def test_mixed_generating_sets_match_oracles(gens):
    assert_matches_oracles(close_group(gens))


_HALF = Fraction(1, 2)
F4_GENERATORS = [
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[_HALF - int(i != j) for j in range(4)] for i in range(4)],
]


def generator_kernel_basis(group: MatGroup, action_matrix, degree: int, monos) -> list[MultiPoly]:
    """rref of the common kernel of A_g - I over the generators, with A_g
    built by act_phi_dagger or act_theta in Fraction arithmetic."""
    size = len(monos)
    stacked = []
    for g in group.gen_indices:
        for i, row in enumerate(action_matrix(group, g, degree)):
            stacked.append([c - int(i == j) for j, c in enumerate(row)])
    rows, pivots = rref(stacked)
    kernel = []
    for f in (f for f in range(size) if f not in pivots):
        v = [Fraction(int(j == f)) for j in range(size)]
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        kernel.append(v)
    return [MultiPoly(len(monos[0]), zip(monos, r)) for r in rref(kernel)[0]]


def test_f4_matches_oracles():
    # B4's three monomial generators and the reflection I - J/2; order 1152
    # makes Reynolds averaging slow, so it checks degree 2 only, and the
    # stacked generator kernel of the act_* matrices the degrees above
    group = close_group([RatMatrix.from_rows(g) for g in F4_GENERATORS])
    assert group.order == 1152
    n = group.n
    with mock.patch("equivar.actions.reynolds", side_effect=AssertionError("Reynolds route")):
        inv = {d: invariant_basis(group, d) for d in range(1, 7)}
        eq = {m: equivariant_basis(group, m) for m in range(4)}
    assert inv[2] == reynolds_basis(group, PHI_DAGGER, monomials_of_degree(n, 2))
    assert [len(inv[d]) for d in inv] == [0, 1, 0, 1, 0, 2]
    for d, basis in inv.items():
        monos = monomials_of_degree(n, d)
        assert basis == generator_kernel_basis(group, poly_action_matrix, d, monos), d
    assert [len(eq[m]) for m in eq] == [0, 1, 0, 1]
    for m, basis in eq.items():
        monos = xilinear_monomials(n, m)
        oracle = generator_kernel_basis(group, field_action_matrix, m, monos)
        assert basis == [unpairing(q) for q in oracle], m


# ---------------------------------------------------------------------------
# The integer orbit sums against the Fraction routine they replaced.


def fraction_orbit_sums(forms, monos):
    """The orbit sums with every coefficient a Fraction: c *= a**k for each
    variable of each form, starting from Fraction(1) on the first monomial."""
    nvars = len(monos[0])
    index = {e: j for j, e in enumerate(monos)}
    seen, out = set(), []
    for lead in monos:
        if lead in seen:
            continue
        coef, stack, cancels = {lead: Fraction(1)}, [lead], False
        while stack:
            e = stack.pop()
            for form in forms:
                exps, c = [0] * nvars, coef[e]
                for (j, a), k in zip(form, e):
                    if k:
                        exps[j] = k
                        c *= a**k
                image = tuple(exps)
                if image not in coef:
                    coef[image] = c
                    stack.append(image)
                elif coef[image] != c:
                    cancels = True
        seen.update(coef)
        if not cancels:
            out.append([(index[e], c) for e, c in coef.items()])
    return out


SCALED_ENTRIES = [Fraction(x) for x in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-1, 3)]


@st.composite
def scaled_monomial_forms(draw):
    """One to three monomial forms on 1-4 variables, entries among +-1, +-2,
    3, 1/2 and -1/3, with every monomial of one degree."""
    n = draw(st.integers(1, 4))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        forms.append(tuple((perm[i], draw(st.sampled_from(SCALED_ENTRIES))) for i in range(n)))
    return forms, monomials_of_degree(n, draw(st.integers(1, 5)))


def _forms(group: MatGroup, action: str):
    """(column, entry) of the one nonzero in each row, for the substitution
    matrix of each monomial generator."""
    monomial = [g for g, r in _relabellings(group, action).items() if r is not None]
    mats = [_substitution_matrix(group, action, g) for g in monomial]
    return [tuple(next((j, a) for j, a in enumerate(m.row(i)) if a) for i in range(m.rows)) for m in mats]


def _form_matrix(form) -> RatMatrix:
    """The matrix with entry a at (i, j) for the i-th pair (j, a) of a form."""
    return RatMatrix.from_rows([[a if k == j else 0 for k in range(len(form))] for j, a in form])


def assert_orbit_sums_match(forms, monos):
    fast = _orbit_sums([_relabelling(_form_matrix(form)) for form in forms], monos)
    assert fast == fraction_orbit_sums(forms, monos)
    if all(a.denominator == 1 for form in forms for _, a in form):
        assert all(type(c) is int for s in fast for _, c in s)


@settings(max_examples=60, deadline=None)
@given(scaled_monomial_forms())
@example(([((1, Fraction(2)), (0, Fraction(1, 2)))], monomials_of_degree(2, 3)))
@example(([((1, Fraction(3)), (0, Fraction(1, 3)))], monomials_of_degree(2, 4)))
def test_orbit_sums_match_fraction_routine(case):
    assert_orbit_sums_match(*case)


@settings(max_examples=30, deadline=None)
@given(signed_permutations(), st.integers(0, 4))
def test_orbit_sums_of_signed_permutations_match_fraction_routine(gens, d):
    # both actions: x -> g^-1 x on monomials of degree d + 1, and the phase
    # action (x, xi) -> (g^-1 x, g^T xi) on the xi-linear ones of degree d
    group = close_group(gens)
    assert_orbit_sums_match(_forms(group, PHI_DAGGER), monomials_of_degree(group.n, d + 1))
    assert_orbit_sums_match(_forms(group, PSI), xilinear_monomials(group.n, d))


def test_phase_orbit_sums_of_scaled_monomial_match_fraction_routine():
    group = close_group([RatMatrix.from_rows([[0, 3], [Fraction(1, 3), 0]])])
    for d in range(5):
        assert_orbit_sums_match(_forms(group, PSI), xilinear_monomials(2, d))


# ---------------------------------------------------------------------------
# The integer Molien sums against a per-element Fraction sum.

GROUPS_DIR = Path(__file__).parent / "golden" / "groups"
# W(E6) is left out: its 51,840 elements take about 100 s in the per-element
# Fraction sums below; its series is held by its golden.
SERIES_GROUPS = sorted(p.name for p in GROUPS_DIR.glob("*.json") if p.name != "e6.json") + sorted(MIXED_GROUPS)


def _group(name: str) -> MatGroup:
    if name in MIXED_GROUPS:
        return mixed_group(name)
    return group_from_doc(json.loads((GROUPS_DIR / name).read_text()))


def _expand(numer, denom, upto: int) -> list[Fraction]:
    """The first upto + 1 power-series coefficients of numer / denom, denom[0] == 1."""
    out = []
    for k in range(upto + 1):
        acc = Fraction(numer[k]) if k < len(numer) else Fraction(0)
        for j in range(1, min(k, len(denom) - 1) + 1):
            acc -= denom[j] * out[k - j]
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def _inverse_series(d: tuple, upto: int) -> list[Fraction]:
    return _expand([1], d, upto)


@pytest.mark.parametrize("name", SERIES_GROUPS)
def test_det_one_minus_t_is_integral(name):
    group = _group(name)
    for m in group.elements:
        assert all(c.denominator == 1 for c in det_one_minus_t(m))


@pytest.mark.parametrize("name", SERIES_GROUPS)
def test_averaged_series_matches_elementwise_fraction_sum(name):
    # F4 and S6 are too large for one fraction over every element, so the
    # sum of w_g / det(I - t g) is compared as power series, far enough to
    # tell two rational functions apart: p/q - P/Q, with Q dividing the
    # product of the distinct det(I - t g), is zero when its numerator is
    # zero up to max(deg p, deg q - 1) + deg Q
    group = _group(name)
    dets = [det_one_minus_t(m) for m in group.elements]
    deg_q = sum(len(d) - 1 for d in {tuple(d) for d in dets})
    for equivariant in (False, True):
        series = _averaged_series(group, equivariant)
        upto = max(len(series.numer) - 1, len(series.denom) - 2) + deg_q
        want = [Fraction(0)] * (upto + 1)
        for m, d_g in zip(group.elements, dets):
            weight = m.trace() if equivariant else Fraction(1)
            if weight:
                for k, y in enumerate(_inverse_series(tuple(d_g), upto)):
                    want[k] += weight * y
        assert _expand(series.numer, series.denom, upto) == [x / group.order for x in want]
