"""Orbit-space reduction and the numeric relatedness witness."""

import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from equivar import (
    DimensionMismatch,
    InvariantGens,
    MultiPoly,
    NoSolution,
    NonFiniteState,
    NotInvariant,
    PolyVectorField,
    RatMatrix,
    ReducedSystem,
    check_related,
    close_group,
    integrate_pair,
    invariant_ring_generators,
    reduce_field,
    variables,
)
from equivar import serialize as sz
from equivar import reduction
from equivar.poly import monomials_of_degree
from equivar.reduction import _MAX_STEPS, _STRAIGHT_LINE_TERMS, _rk4_kernel

from conftest import compile_polys, directional_derivatives, monomial

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")


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


def test_reduce_field_rechecks_the_identity(radial_plane, monkeypatch):
    # reduce_field re-checks what the solve returns with the same identity
    # loop as check_related: a wrong second component is reported by index
    field, inv = radial_plane
    solve = reduction._express_all

    def wrong_second(inv, derivs):
        comps = solve(inv, derivs)
        return [comps[0], comps[1] + MultiPoly.constant(inv.k, 1), *comps[2:]]

    monkeypatch.setattr(reduction, "_express_all", wrong_second)
    with pytest.raises(NoSolution, match="internal: reduced component 1 fails the defining identity"):
        reduce_field(field, inv)
    chk = check_related(field, wrong_second(inv, inv._table.directional(field.comps)), inv)
    assert (chk.index, chk.difference) == (1, MultiPoly.constant(2, -1))


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


def test_finite_states_whose_sum_overflows_are_not_divergence():
    # the zero field on the trivial group of Q^1 from 10^308: every state is
    # finite, but their float sum overflows, so the run's quick check (the
    # sum of all states) fails and the row-by-row scan must find nothing
    x, = variables(1)
    inv = InvariantGens.from_polys(close_group([RatMatrix.from_rows([[1]])]), [x])
    zero = PolyVectorField.zero(1)
    report = integrate_pair(zero, [MultiPoly.zero(1)], inv, [10**308], 1.0, 1e-2)
    assert report.max_defect == 0.0
    assert (report.x_path == 1e308).all() and (report.p_path == 1e308).all()
    assert sum(report.x_path.ravel().tolist()) == float("inf")


# -- the compiled float evaluator against exact evaluation ----------------------


@st.composite
def exponents(draw, n, total):
    """An exponent vector in n variables of degree at most total, drawn
    without filtering: each entry is bounded by what the earlier ones left."""
    e = []
    for _ in range(n):
        e.append(draw(st.integers(min_value=0, max_value=total - sum(e))))
    return tuple(draw(st.permutations(e)))


@st.composite
def poly_systems(draw, square=False):
    """A system of polynomials in 1-4 variables of degree up to 12, always
    with a zero and a constant component; the others either share monomials
    or have pairwise disjoint supports.  A square system (a vector field)
    has one component per variable, each drawn from such a system."""
    n = draw(st.integers(min_value=1, max_value=4))
    monos = draw(st.lists(exponents(n, 12), min_size=1, max_size=12, unique=True))
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
    if square:
        comps = [draw(st.sampled_from(comps)) for _ in range(n)]
    point = draw(st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=7)),
        min_size=n, max_size=n,
    ))
    return n, comps, point


def assert_matches_exact(comps, point, got):
    assert got.shape == (len(comps),)
    for p, value in zip(comps, got):
        scale = sum(abs(c * monomial(e).evaluate(point)) for e, c in p)
        assert abs(value - float(p.evaluate(point))) <= 1e-12 * float(scale)


def floats(point):
    return np.array([float(v) for v in point])


def lone_rk4(f, y0, nsteps, step):
    """Classical RK4 for one system alone, from its own evaluator, in numpy
    array arithmetic: the nsteps + 1 states, non-finite ones included."""
    out = np.empty((nsteps + 1, len(y0)))
    out[0] = y = np.array(y0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps):
            k1 = np.array(f(y))
            k2 = np.array(f(y + 0.5 * step * k1))
            k3 = np.array(f(y + 0.5 * step * k2))
            k4 = np.array(f(y + step * k3))
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i + 1] = y
    return out


def kernel_path(first, second, start, nsteps, step):
    """The RK4 kernel's path over two vector fields stacked as its x and P
    blocks, as one array; sigma is the constant map to the P block's start,
    so the kernel starts P there."""
    n = len(first)
    sigma = [MultiPoly.constant(n, Fraction(v)) for v in start[n:]]
    with np.errstate(over="ignore", invalid="ignore"):
        states, _ = _rk4_kernel(first, second, sigma)(np.asarray(start[:n], dtype=float).tolist(), nsteps, step)
    return np.array(states).reshape(nsteps + 1, -1)


def assert_blocks_run_alone(first, second, start, nsteps, step):
    """Assert that each block of the kernel's path is bit for bit the lone
    RK4 path of its system, from its lone evaluator (so a block reads only
    its own coordinates), and return the path."""
    path = kernel_path(first, second, start, nsteps, step)
    n = len(first)
    for comps, y0, block in ((first, start[:n], path[:, :n]), (second, start[n:], path[:, n:])):
        alone = lone_rk4(compile_polys(comps, len(comps)), y0, nsteps, step)
        assert np.array_equal(block, alone, equal_nan=True)
    return path


@settings(max_examples=100, deadline=None)
@given(poly_systems(), poly_systems(square=True), poly_systems(square=True), st.sampled_from([1.0, 0.1, 1e-3]))
def test_compiled_evaluator_matches_exact(system, field, other, step):
    n, comps, point = system
    assert_matches_exact(comps, point, np.array(compile_polys(comps, n)(floats(point))))
    # as one of the kernel's two blocks, in either order and whatever the
    # other's width, a vector field runs as it does alone
    (n, comps, point), (m, other_comps, other_point) = field, other
    assert_blocks_run_alone(comps, other_comps, floats(point + other_point), 3, step)
    assert_blocks_run_alone(other_comps, comps, floats(other_point + point), 3, step)


@st.composite
def sized_maps(draw, terms, square=False):
    """A map of exactly `terms` terms: 4-6 components in 2-4 variables, or a
    vector field in 3-4 variables when square, each term a distinct
    (component, monomial) pair of degree at most 12, with a point to
    evaluate it at.  Tests drawing these skip shrinking: a failing 300-term
    map shrinks for minutes and stays as hard to read."""
    n = draw(st.integers(min_value=3 if square else 2, max_value=4))
    ncomps = n if square else draw(st.integers(min_value=4, max_value=6))
    monos = [e for d in range(13) for e in monomials_of_degree(n, d)]
    rnd = draw(st.randoms(use_true_random=False))
    pairs = rnd.sample([(i, e) for i in range(ncomps) for e in monos], terms)
    coeffs = [Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 4)) for _ in pairs]
    comps = [MultiPoly(n, {e: c for (i, e), c in zip(pairs, coeffs) if i == k}) for k in range(ncomps)]
    point = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7), min_size=n, max_size=n))
    return n, comps, point


@settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data(), offset=st.sampled_from([-1, 0, 1]))
def test_evaluator_choice_at_the_term_limit(data, offset):
    # maps just below, exactly at and just above the limit take the
    # straight-line and the numpy evaluator as the limit says, and both match
    # exact evaluation
    n, comps, point = data.draw(sized_maps(_STRAIGHT_LINE_TERMS + offset))
    evaluate = compile_polys(comps, n)
    assert evaluate.__name__ == ("straight_line" if offset <= 0 else "power_table")
    assert_matches_exact(comps, point, np.array(evaluate(floats(point))))


@settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_stacked_blocks_across_the_term_limit(data):
    # one block on each side of the limit, the large one on the numpy
    # evaluator inside the kernel: in either order each block's path equals
    # its lone path, bit for bit; the large field starts within 1/2 of the
    # origin, where it stays finite
    n, large, point = data.draw(sized_maps(_STRAIGHT_LINE_TERMS + 1, square=True))
    m, small, other_point = data.draw(poly_systems(square=True))
    assert compile_polys(large, n).__name__ == "power_table"
    x, y = floats(point) / 4, floats(other_point)
    path = assert_blocks_run_alone(large, small, np.concatenate([x, y]), 5, 1e-2)
    assert np.isfinite(path[:, :n]).all()
    assert_blocks_run_alone(small, large, np.concatenate([y, x]), 5, 1e-2)


def non_finite_runs():
    """The non-finite cases of the tests above: (group fixture, field,
    reduced or None for the reduced field, x0, t_end, step), each ending in
    NonFiniteState."""
    x, = variables(1)
    x1, x2 = variables(2)
    cube = [MultiPoly(1, {(3,): 1})]
    return [
        ("z2_line", PolyVectorField([x**3]), None, [2], 2.0, 1e-2),
        ("z2_line", PolyVectorField([-x]), cube, [2], 1.0, 1e-3),
        ("z2_line", PolyVectorField([-x]), cube, [10**200], 1.0, 1e-3),
        ("z2_line", PolyVectorField([x**3]), cube, [2], 2.0, 1e-2),
        # numpy's matrix-vector product makes every component nan when one
        # monomial overflows (inf * 0.0), straight-line code only those
        # holding it: the row is non-finite at the same step either way
        ("z2_diag", PolyVectorField([x1**3, -x2]), None, [2, Fraction(1, 2)], 2.0, 1e-2),
    ]


@pytest.mark.parametrize("case", range(len(non_finite_runs())))
def test_non_finite_state_on_the_numpy_side(request, monkeypatch, case):
    # with every map on the numpy evaluator the run stops with the same
    # label and at the same time as on the straight-line evaluator
    group, field, comps, x0, t_end, step = non_finite_runs()[case]
    inv = invariant_ring_generators(request.getfixturevalue(group))
    comps = comps or reduce_field(field, inv).comps
    errors = []
    for limit in (_STRAIGHT_LINE_TERMS, 0):
        monkeypatch.setattr(reduction, "_STRAIGHT_LINE_TERMS", limit)
        assert compile_polys(comps, inv.k).__name__ == ("power_table" if limit == 0 else "straight_line")
        with pytest.raises(NonFiniteState) as err:
            integrate_pair(field, comps, inv, x0, t_end, step)
        errors.append((str(err.value), err.value.time))
    assert errors[0] == errors[1]


# -- the stacked RK4 pass against two separate loops ----------------------------


def separate_rk4(field, comps, inv, x0, t_end, step):
    """Both systems integrated one after the other, each from its own
    evaluator and checked for finiteness after every step, then the defect
    row by row: the reference that integrate_pair's one generated kernel
    must match bit for bit."""
    nsteps = int(round(t_end / step))

    def path(f, y0, label):
        out = lone_rk4(f, y0, nsteps, step)
        for i in range(1, nsteps + 1):
            if not np.all(np.isfinite(out[i])):
                raise NonFiniteState(f"{label} trajectory became non-finite at t={i * step}", i * step)
        return out

    sigma = compile_polys(inv.gens, field.n)
    x0_float = floats(x0)
    x_path = path(compile_polys(field.comps, field.n), x0_float, "full")
    with np.errstate(over="ignore"):
        p0 = np.array(sigma(x0_float))
    p_path = path(compile_polys(comps, inv.k), p0, "reduced")
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for xi, pi in zip(x_path, p_path):
            defect = max(defect, float(np.max(np.abs(np.array(sigma(xi)) - pi))))
    return x_path, p_path, defect


def assert_matches_separate_loops(field, comps, inv, x0, t_end, step):
    # at the default term limit and at 0, where every block and sigma take
    # the numpy evaluator inside the kernel (and in the reference)
    for limit in (_STRAIGHT_LINE_TERMS, 0):
        with mock.patch.object(reduction, "_STRAIGHT_LINE_TERMS", limit):
            assert_matches_separate_loops_once(field, comps, inv, x0, t_end, step)


def assert_matches_separate_loops_once(field, comps, inv, x0, t_end, step):
    try:
        x_path, p_path, defect = separate_rk4(field, comps, inv, x0, t_end, step)
    except NonFiniteState as want:
        with pytest.raises(NonFiniteState) as err:
            integrate_pair(field, comps, inv, x0, t_end, step)
        assert str(err.value) == str(want)
        assert err.value.time == want.time
        return
    report = integrate_pair(field, comps, inv, x0, t_end, step)
    # the report builds its arrays on first read, as the eager ones were
    # built, and hands out the same arrays from then on
    assert report.samples == len(x_path)
    assert np.array_equal(report.t_grid, np.arange(len(x_path), dtype=float) * step)
    assert np.array_equal(report.x_path, x_path)
    assert np.array_equal(report.p_path, p_path)
    assert report.x_path is report.x_path and report.t_grid is report.t_grid
    assert report.max_defect == defect


@pytest.mark.parametrize(
    "group, field, x0",
    [("z2_line", "cubic_line_field", "1/2"), ("z2_diag", "radial_plane_field", "1/2,1/3"),
     ("swap", "radial_plane_field", "1/2,-1/3"), ("c4", "radial_plane_field", "-3/4,1/5")],
)
def test_stacked_rk4_matches_separate_loops_on_demo_fields(group, field, x0):
    inv = invariant_ring_generators(sz.group_from_doc(sz.load_json(os.path.join(DATA, f"{group}.json"))))
    field = sz.field_from_doc(sz.load_json(os.path.join(DATA, f"{field}.json")))
    rs = reduce_field(field, inv)
    assert_matches_separate_loops(field, rs.comps, inv, sz.parse_rational_vector(x0), 1.0, 1e-3)


@pytest.fixture(scope="module")
def sample_invs(sample_groups):
    return [invariant_ring_generators(g) for g in sample_groups.values()]


def small_polys(nvars, count):
    """count polynomials in nvars variables, each of up to 4 terms of degree
    at most 4."""
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool)
    poly = st.dictionaries(exponents(nvars, 4), coeffs, max_size=4).map(lambda t: MultiPoly(nvars, t))
    return st.lists(poly, min_size=count, max_size=count)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_rk4_matches_separate_loops_on_drawn_systems(sample_invs, data):
    # a drawn field and a drawn, unrelated reduced system: the two blocks are
    # independent, so the stacked pass must reproduce each loop whether or
    # not either system diverges
    inv = data.draw(st.sampled_from(sample_invs))
    n = inv.group.n
    field = PolyVectorField(data.draw(small_polys(n, n)))
    comps = data.draw(small_polys(inv.k, inv.k))
    x0 = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                            min_size=n, max_size=n))
    step = data.draw(st.sampled_from([0.5, 0.1, 0.05]))
    nsteps = data.draw(st.integers(1, 30))
    assert_matches_separate_loops(field, comps, inv, x0, nsteps * step, step)


def test_sigma_alone_above_the_term_limit():
    # -I on Q^4 with generators the sums of all monomials of degrees 2 and
    # 12 (10 + 455 terms): sigma alone takes the numpy evaluator inside the
    # kernel.  X = -x pushes down to Y = (-2 P1, -12 P2) exactly.
    inv = InvariantGens.from_polys(
        close_group([RatMatrix.from_rows([[-1 if i == j else 0 for j in range(4)] for i in range(4)])]),
        [sum((monomial(e) for e in monomials_of_degree(4, d)), MultiPoly.zero(4)) for d in (2, 12)],
    )
    field = PolyVectorField([-v for v in variables(4)])
    P1, P2 = variables(2)
    reduced = [P1 * -2, P2 * -12]
    assert check_related(field, reduced, inv)
    assert compile_polys(inv.gens, 4).__name__ == "power_table"
    assert compile_polys(field.comps, 4).__name__ == compile_polys(reduced, 2).__name__ == "straight_line"
    x0 = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 8), Fraction(1, 2)]
    assert integrate_pair(field, reduced, inv, x0, 1.0, 1e-2).max_defect < 1e-8
    assert_matches_separate_loops(field, reduced, inv, x0, 1.0, 1e-2)


def test_rows_with_a_nan_gap_count_for_nothing(z2_line, monkeypatch):
    # X = x from 5 and the generators x^2, x^400: the path stays finite, but
    # from t = 0.17 on x^400 overflows.  The numpy evaluator then returns
    # (nan, inf) (0.0 * inf in the matrix-vector product), so those rows
    # count for nothing and the defect stays finite; straight-line code
    # returns (x^2, inf), an infinite gap that counts.
    x, = variables(1)
    inv = InvariantGens.from_polys(z2_line, [x**2, x**400])
    field = PolyVectorField([x])
    P1, _ = variables(2)
    reduced = [P1 * 2, MultiPoly.zero(2)]
    assert_matches_separate_loops(field, reduced, inv, [5], 1.0, 1e-2)
    assert integrate_pair(field, reduced, inv, [5], 1.0, 1e-2).max_defect == float("inf")
    monkeypatch.setattr(reduction, "_STRAIGHT_LINE_TERMS", 0)
    assert np.isfinite(integrate_pair(field, reduced, inv, [5], 1.0, 1e-2).max_defect)


def test_non_finite_only_in_reduced(z2_line):
    # X = -x decays; the unrelated Y = P1^3 from P1 = 4 blows up at t = 1/32
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    field = PolyVectorField([-x])
    cube = [MultiPoly(1, {(3,): 1})]
    with pytest.raises(NonFiniteState) as err:
        integrate_pair(field, cube, inv, [2], 1.0, 1e-3)
    assert "reduced" in str(err.value)
    assert 1 / 32 < err.value.time < 0.04
    assert_matches_separate_loops(field, cube, inv, [2], 1.0, 1e-3)
    # a start whose Hilbert-map image overflows is caught after the first step
    with pytest.raises(NonFiniteState) as err:
        integrate_pair(field, cube, inv, [10**200], 1.0, 1e-3)
    assert "reduced" in str(err.value) and err.value.time == 1e-3
    assert_matches_separate_loops(field, cube, inv, [10**200], 1.0, 1e-3)


def test_non_finite_in_both_reports_full(z2_line):
    # X = x^3 from 2 overflows at t = 0.15 (see test_non_finite_state); the
    # unrelated Y = P1^3 from P1 = 4 does so earlier, yet the full system's
    # divergence is the one reported, at its own time
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    field = PolyVectorField([x**3])
    cube = [MultiPoly(1, {(3,): 1})]
    with pytest.raises(NonFiniteState) as reduced_only:
        integrate_pair(PolyVectorField([-x]), cube, inv, [2], 2.0, 1e-2)
    assert reduced_only.value.time < 0.15
    with pytest.raises(NonFiniteState) as err:
        integrate_pair(field, cube, inv, [2], 2.0, 1e-2)
    assert "full" in str(err.value)
    assert err.value.time == 0.15
    assert_matches_separate_loops(field, cube, inv, [2], 2.0, 1e-2)


@pytest.mark.parametrize("diverging", ["full", "reduced"])
def test_overflow_in_one_block_leaves_the_other_finite(diverging):
    # one system overflows (y' = y^3 from 4), the other decays (y' = 1/2 - y);
    # in the kernel, on either evaluator, the decaying block's path stays
    # finite and equals its lone RK4 path
    cube = [MultiPoly(1, {(3,): 1})]
    decay = [MultiPoly(1, {(1,): -1, (0,): Fraction(1, 2)})]
    blocks = (cube, decay) if diverging == "full" else (decay, cube)
    start = [4.0, 1.0] if diverging == "full" else [1.0, 4.0]
    blown, kept = (0, 1) if diverging == "full" else (1, 0)
    for limit in (_STRAIGHT_LINE_TERMS, 0):
        with mock.patch.object(reduction, "_STRAIGHT_LINE_TERMS", limit):
            path = kernel_path(*blocks, start, 200, 1e-2)
            alone = lone_rk4(compile_polys(decay, 1), start[kept:kept + 1], 200, 1e-2)
        assert not np.isfinite(path[-1, blown])
        assert np.all(np.isfinite(path[:, kept]))
        assert np.array_equal(path[:, kept], alone[:, 0])


def test_integrate_validates_arguments(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    with pytest.raises(ValueError):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], -1.0, 1e-3)
    for t_end, step in ((float("inf"), 1e-3), (float("nan"), 1e-3), (1.0, float("nan")),
                        (1.0, float("inf"))):
        with pytest.raises(ValueError, match="finite and positive"):
            integrate_pair(field, rs, inv, [Fraction(1, 2)], t_end, step)
    with pytest.raises(DimensionMismatch, match="x0 has length 2, field dimension is 1"):
        integrate_pair(field, rs, inv, [Fraction(1, 2), 1], 1.0, 0.1)


def test_integrate_rejects_values_beyond_double_range(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    big = PolyVectorField([field[0] * 10**400])
    with pytest.raises(ValueError, match="coefficient -?1000.* lies beyond the double range"):
        integrate_pair(big, rs, inv, [Fraction(1, 2)], 1.0, 0.1)
    with pytest.raises(ValueError, match="x0 entry .*401 characters"):
        integrate_pair(field, rs, inv, [Fraction(10**400)], 1.0, 0.1)


def kernel_never_built(*args):
    raise AssertionError("the kernel was built")


@pytest.mark.parametrize("bad, message", [
    (float("inf"), "x0 entry inf is not finite"),
    (float("-inf"), "x0 entry -inf is not finite"),
    (float("nan"), "x0 entry nan is not finite"),
    (10**400, r"x0 entry 1000.*\(401 characters\) lies beyond the double range"),
], ids=["inf", "-inf", "nan", "1e400"])
def test_integrate_rejects_starts_that_are_not_finite_doubles(radial_plane, monkeypatch, bad, message):
    # each start value is converted once, before the kernel is generated,
    # and the ValueError names the entry, wherever it sits in x0
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    monkeypatch.setattr(reduction, "_rk4_kernel", kernel_never_built)
    for x0 in ([bad, Fraction(1, 2)], [Fraction(1, 2), bad]):
        with pytest.raises(ValueError, match=message):
            integrate_pair(field, rs, inv, x0, 1.0, 0.1)


def test_integrate_accepts_ints_fractions_floats_and_rational_strings(radial_plane):
    # every spelling of the same start gives the same run, bit for bit
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    want = integrate_pair(field, rs, inv, [Fraction(1, 2), Fraction(1)], 1.0, 0.1)
    for x0 in ([0.5, 1], ["1/2", "1"], [Fraction(1, 2), 1.0], ["0.5", Fraction(2, 2)]):
        got = integrate_pair(field, rs, inv, x0, 1.0, 0.1)
        assert np.array_equal(got.x_path, want.x_path) and np.array_equal(got.p_path, want.p_path)
        assert got.max_defect == want.max_defect


@pytest.mark.parametrize("limit", [_STRAIGHT_LINE_TERMS, 0])
def test_each_map_is_generated_once_per_run(radial_plane, monkeypatch, limit):
    # X, Y and sigma each pass through the code generator exactly once:
    # sigma(x0) comes from the kernel's own sigma code, not a second evaluator
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    generated = []
    generate = reduction._map_lines

    def spy(polys, *args):
        generated.append(list(polys))
        return generate(polys, *args)

    monkeypatch.setattr(reduction, "_STRAIGHT_LINE_TERMS", limit)
    monkeypatch.setattr(reduction, "_map_lines", spy)
    integrate_pair(field, rs, inv, [Fraction(1, 2), Fraction(1, 3)], 1.0, 0.1)
    assert len(generated) == 3
    assert all(list(m) in generated for m in (field.comps, rs.comps, inv.gens))


def test_integrate_rejects_zero_steps_and_partial_steps(cubic_line):
    field, inv = cubic_line
    rs = reduce_field(field, inv)
    with pytest.raises(ValueError, match="no step"):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], 0.001, 0.5)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], 1.0, 0.3)
    # floating-point round-off in t_end / step is not a partial step
    assert len(integrate_pair(field, rs, inv, [Fraction(1, 2)], 0.3, 0.1).t_grid) == 4


def test_integrate_rejects_runs_beyond_the_step_limit(cubic_line, monkeypatch):
    # refused before anything is allocated or compiled: at 10^12 steps (or
    # an overflowing t_end / step) the step grid alone would not fit
    field, inv = cubic_line
    rs = reduce_field(field, inv)

    def fail(*args):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(reduction, "_rk4_kernel", fail)
    for t_end, step in ((1e6, 1e-6), (1e300, 1e-300), (_MAX_STEPS + 1.0, 1.0), (1.0, 1 / (_MAX_STEPS + 1))):
        with pytest.raises(ValueError, match=f"more than {_MAX_STEPS} steps"):
            integrate_pair(field, rs, inv, [Fraction(1, 2)], t_end, step)
    # exactly _MAX_STEPS steps is allowed
    with pytest.raises(AssertionError, match="the kernel was built"):
        integrate_pair(field, rs, inv, [Fraction(1, 2)], float(_MAX_STEPS), 1.0)


def test_reduced_system_validation(radial_plane):
    with pytest.raises(Exception):
        ReducedSystem([MultiPoly.zero(2)])  # one component in two variables
    # Y is the PolyVectorField of dimension k = 3 in P1, P2, P3
    field, inv = radial_plane
    rs = reduce_field(field, inv)
    assert isinstance(rs, PolyVectorField) and rs.k == rs.n == inv.k == 3
    plain = PolyVectorField(rs.comps)
    assert rs == plain and hash(rs) == hash(plain) and rs[1] == rs.comps[1]
    assert repr(rs) == ("ReducedSystem(-2*P1^2 - 2*P1*P3 + 2*P1, -2*P1*P2 - 2*P2*P3 + 2*P2, "
                        "-2*P1*P3 - 2*P3^2 + 2*P3)")
    with pytest.raises(AttributeError, match="ReducedSystem is immutable"):
        rs.source = (field, inv)
    # a sequence given as Y meets the constructor's rule, then the count check
    y = MultiPoly.variable(4, 0)
    for use in (lambda ys: check_related(field, ys, inv),
                lambda ys: integrate_pair(field, ys, inv, [1, 2], 1.0, 0.1)):
        with pytest.raises(DimensionMismatch, match="component has 4 variables, expected 3"):
            use([y, y, y])
        with pytest.raises(DimensionMismatch, match="reduced system has 2 components, expected 3"):
            use([MultiPoly.zero(2)] * 2)
        with pytest.raises(ValueError, match="at least one component"):
            use([])
    # with no generators there is no orbit-space coordinate to reduce to
    with pytest.raises(ValueError, match="at least one component"):
        reduce_field(field, InvariantGens.from_polys(inv.group, []))


def test_field_of_another_dimension_is_refused(c4):
    # C4 acts on the plane and has three invariants (degrees 2, 4, 4), so a
    # reduced system of three components fits it; the field does not, and
    # both checks refuse it as reduce_field does, before any derivative
    inv = invariant_ring_generators(c4)
    x1, x2, x3 = variables(3)
    p1, p2, p3 = variables(3)
    reduced = [-2 * p1, -4 * p2, -4 * p3]
    (t,) = variables(1)
    for field, n in ((PolyVectorField([-x1, -x2, x3**2]), 3), (PolyVectorField([-t]), 1)):
        for use in (lambda: reduce_field(field, inv),
                    lambda: check_related(field, reduced, inv),
                    lambda: integrate_pair(field, reduced, inv, [Fraction(1, 2)] * n, 1.0, 0.1)):
            with pytest.raises(DimensionMismatch, match=f"^field dimension {n}, group acts on 2$"):
                use()
