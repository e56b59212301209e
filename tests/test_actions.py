"""The three actions, averaging, invariance checks, and the pairing."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from equivar import (
    PHI_DAGGER,
    PSI,
    THETA,
    DimensionMismatch,
    InvariantGens,
    MultiPoly,
    NotInvariant,
    NotXiLinear,
    PolyVectorField,
    RatMatrix,
    act_phi_dagger,
    act_psi,
    act_theta,
    close_group,
    equivariant_module_generators,
    express,
    express_equivariant,
    infer_action,
    invariant_ring_generators,
    is_invariant,
    pairing,
    reduce_field,
    reynolds,
    unpairing,
    variables,
)
from equivar.actions import _require_invariant

from equivar.poly import ProductTable

from conftest import BASE_GROUPS, MIXED_GROUPS, random_field, random_poly


def xi_degree(exps, n):
    """The degree of a phase monomial in its xi block."""
    return sum(exps[n:])


def is_xi_linear(q):
    """True when every term of the phase polynomial q has xi-degree one."""
    if q.nvars % 2 != 0:
        return False
    n = q.nvars // 2
    return all(xi_degree(e, n) == 1 for e, _ in q.sorted_terms())


def neg_index(group):
    return group.gen_indices[0]


# -- scalar action -----------------------------------------------------------


def test_phi_dagger_on_line(z2_line):
    x, = variables(1)
    g = neg_index(z2_line)
    assert act_phi_dagger(z2_line, g, x) == -x
    assert act_phi_dagger(z2_line, g, x**2) == x**2


def test_phi_dagger_c4_substitution_oracle(c4):
    # (g.p)(x) = p(g^-1 x) with g^-1 = [[0,1],[-1,0]]: x1 -> x2, x2 -> -x1
    x1, x2 = variables(2)
    g = c4.gen_indices[0]
    assert act_phi_dagger(c4, g, x1) == x2
    assert act_phi_dagger(c4, g, x2) == -x1


# -- pushforward on fields ---------------------------------------------------


def test_theta_on_line(z2_line):
    x, = variables(1)
    g = neg_index(z2_line)
    assert act_theta(z2_line, g, PolyVectorField([x])) == PolyVectorField([x])
    one = MultiPoly.constant(1, 1)
    assert act_theta(z2_line, g, PolyVectorField([one])) == PolyVectorField([-one])


def test_theta_swap_substitution_oracle(swap2):
    x1, x2 = variables(2)
    g = swap2.gen_indices[0]
    zero = MultiPoly.zero(2)
    moved = act_theta(swap2, g, PolyVectorField([x1, zero]))
    assert moved == PolyVectorField([zero, x2])


# -- phase action -------------------------------------------------------------


def test_psi_on_line(z2_line):
    g = neg_index(z2_line)
    x, xi = variables(2)  # 2 phase variables for n=1
    assert act_psi(z2_line, g, x * xi) == x * xi
    assert act_psi(z2_line, g, xi) == -xi


def test_psi_c4_pairing_invariant(c4):
    # x1 xi1 + x2 xi2 pairs the identity field, which commutes with rotations
    q = MultiPoly(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    g = c4.gen_indices[0]
    assert act_psi(c4, g, q) == q


def test_psi_preserves_bidegree(c4):
    rng = random.Random(7)
    for _ in range(20):
        q = random_poly(rng, 4, 4)
        for g in range(c4.order):
            moved = act_psi(c4, g, q)
            before = {(sum(e[:2]), xi_degree(e, 2)) for e, _ in q.sorted_terms()}
            after = {(sum(e[:2]), xi_degree(e, 2)) for e, _ in moved.sorted_terms()}
            assert after <= before


# -- action laws --------------------------------------------------------------


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_action_laws(sample_groups, gname):
    group = sample_groups[gname]
    n = group.n
    rng = random.Random(hash(gname) & 0xFFFF)
    for _ in range(30):
        g = rng.randrange(group.order)
        h = rng.randrange(group.order)
        gh = group.elements.index(group.matrix(g) @ group.matrix(h))

        p = random_poly(rng, n, 4)
        assert act_phi_dagger(group, gh, p) == act_phi_dagger(
            group, g, act_phi_dagger(group, h, p)
        )

        v = random_field(rng, n, 4)
        assert act_theta(group, gh, v) == act_theta(group, g, act_theta(group, h, v))

        q = random_poly(rng, 2 * n, 4)
        assert act_psi(group, gh, q) == act_psi(group, g, act_psi(group, h, q))


# -- Reynolds averaging --------------------------------------------------------


def test_reynolds_examples(z2_line, swap2):
    x, = variables(1)
    assert reynolds(z2_line, PHI_DAGGER, x**2 + x**3) == x**2
    assert reynolds(z2_line, PHI_DAGGER, x).is_zero

    x1, x2 = variables(2)
    zero = MultiPoly.zero(2)
    avg = reynolds(swap2, THETA, PolyVectorField([x1, zero]))
    assert avg == PolyVectorField([x1 * Fraction(1, 2), x2 * Fraction(1, 2)])


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_reynolds_idempotent_and_invariant(sample_groups, gname):
    group = sample_groups[gname]
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(rng, group.n, 4)
        avg = reynolds(group, PHI_DAGGER, p)
        assert reynolds(group, PHI_DAGGER, avg) == avg
        assert is_invariant(group, avg, PHI_DAGGER)

        v = random_field(rng, group.n, 3)
        avg_v = reynolds(group, THETA, v)
        assert reynolds(group, THETA, avg_v) == avg_v
        assert is_invariant(group, avg_v, THETA)

        q = random_poly(rng, 2 * group.n, 3)
        avg_q = reynolds(group, PSI, q)
        assert reynolds(group, PSI, avg_q) == avg_q
        assert is_invariant(group, avg_q, PSI)


# -- invariance checks ----------------------------------------------------------


def test_every_refusal_carries_the_first_failing_generator_and_difference(c4):
    x1, x2 = variables(2)
    p, field = x1**2, PolyVectorField([x1, 2 * x2])
    inv = invariant_ring_generators(c4)
    eg = equivariant_module_generators(inv)
    assert _require_invariant(c4, x1**2 + x2**2, PHI_DAGGER, "unused") is None
    refusals = [
        (lambda: _require_invariant(c4, p, PHI_DAGGER, "some message"), p, "some message"),
        (lambda: express(inv, p), p, "polynomial is not invariant"),
        (lambda: InvariantGens.from_polys(c4, [p]), p, f"generator {p!r} is not invariant"),
        (lambda: reduce_field(field, inv), field, "field is not equivariant"),
        (lambda: express_equivariant(eg, field), field, "field is not equivariant"),
    ]
    for refuse, obj, message in refusals:
        chk = is_invariant(c4, obj)
        with pytest.raises(NotInvariant) as err:
            refuse()
        assert str(err.value) == message
        assert (err.value.generator_index, err.value.difference) == (chk.generator_index, chk.difference)
        assert not chk.difference.is_zero


def test_is_invariant_examples(z2_line, swap2):
    x, = variables(1)
    assert is_invariant(z2_line, x**2, PHI_DAGGER)
    chk = is_invariant(z2_line, x**3 + x**2, PHI_DAGGER)
    assert not chk
    assert chk.generator_index == z2_line.gen_indices[0]
    assert chk.difference == 2 * x**3

    x1, x2 = variables(2)
    assert is_invariant(swap2, PolyVectorField([x2, x1]), THETA)


@pytest.mark.parametrize("action, kind", [
    (THETA, "MultiPoly"), (PSI, "PolyVectorField"), (PHI_DAGGER, "PolyVectorField"),
])
def test_is_invariant_action_object_mismatch(c4, action, kind):
    x1, x2 = variables(2)
    obj = x1**2 + x2**2 if kind == "MultiPoly" else PolyVectorField([x1, x2])
    # raised before any image is computed
    with mock.patch.object(ProductTable, "substitute", side_effect=AssertionError("substituted")), \
            pytest.raises(DimensionMismatch, match=f"action {action} does not act on a {kind}"):
        is_invariant(c4, obj, action)


ACT = {PHI_DAGGER: act_phi_dagger, THETA: act_theta, PSI: act_psi}


@pytest.mark.parametrize("action, message", [
    (PHI_DAGGER, "polynomial has 3 variables, group acts on 2"),
    (PSI, "phase polynomial has 3 variables, expected 4"),
    (THETA, "field dimension 3, group acts on 2"),
])
def test_is_invariant_size_mismatch_in_act_wording(c4, action, message):
    xs = variables(3)
    obj = PolyVectorField(xs) if action == THETA else xs[0] ** 2
    with mock.patch.object(ProductTable, "substitute", side_effect=AssertionError("substituted")), \
            pytest.raises(DimensionMismatch, match=f"^{message}$"):
        is_invariant(c4, obj, action)
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        ACT[action](c4, 1, obj)


def invariance_by_act(group, action, obj):
    """(invariant, first moving generator, obj minus its image) by act_*."""
    for g in group.gen_indices:
        moved = ACT[action](group, g, obj)
        if moved != obj:
            return False, g, obj - moved
    return True, None, None


@pytest.mark.parametrize("name", ["C4", "S3", *sorted(MIXED_GROUPS)])
def test_is_invariant_matches_act_loop(name):
    group = close_group([RatMatrix.from_rows(g) for g in {**BASE_GROUPS, **MIXED_GROUPS}[name]])
    n = group.n
    rng = random.Random(name)
    draws = {
        PHI_DAGGER: lambda: random_poly(rng, n, 4),
        THETA: lambda: random_field(rng, n, 3),
        PSI: lambda: random_poly(rng, 2 * n, 3),
    }
    moved = 0
    for _ in range(4):
        for action, draw in draws.items():
            obj = draw()
            fixed = reynolds(group, action, obj)
            # the Reynolds image is fixed; adding obj back mostly breaks that
            for candidate in (fixed, fixed + obj):
                with mock.patch.object(MultiPoly, "compose_linear", side_effect=AssertionError):
                    chk = is_invariant(group, candidate, action)
                expected = invariance_by_act(group, action, candidate)
                assert (bool(chk), chk.generator_index, chk.difference) == expected
                moved += not expected[0]
    assert moved >= 6


def test_infer_action(z2_line):
    x, = variables(1)
    assert infer_action(z2_line, x) == PHI_DAGGER
    assert infer_action(z2_line, MultiPoly.zero(2)) == PSI
    assert infer_action(z2_line, PolyVectorField([x])) == THETA


# -- pairing ---------------------------------------------------------------------


def test_pairing_examples():
    x, = variables(1)
    assert pairing(PolyVectorField([x])) == MultiPoly(2, {(1, 1): 1})

    q = MultiPoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})  # x1 xi2 + x2 xi1
    x1, x2 = variables(2)
    assert unpairing(q) == PolyVectorField([x2, x1])

    bad = MultiPoly(4, {(1, 0, 1, 1): 1})  # x1 xi1 xi2
    assert not is_xi_linear(bad)
    with pytest.raises(NotXiLinear):
        unpairing(bad)


def test_pairing_round_trip(sample_groups):
    rng = random.Random(23)
    for group in sample_groups.values():
        for _ in range(10):
            v = random_field(rng, group.n, 4)
            assert unpairing(pairing(v)) == v


@pytest.mark.parametrize("gname", ["z2_line", "z2_diag", "swap2", "c4"])
def test_theta_invariance_iff_psi_invariance(sample_groups, gname):
    group = sample_groups[gname]
    rng = random.Random(31)
    for _ in range(15):
        v = random_field(rng, group.n, 4)
        assert bool(is_invariant(group, v, THETA)) == bool(
            is_invariant(group, pairing(v), PSI)
        )
        avg = reynolds(group, THETA, v)
        assert is_invariant(group, pairing(avg), PSI)
