"""The hsop certificate that ends the generator loops, against Noether's bound.

A certified run must return exactly the generators the run to |G| (and
|G| - 1 for the fields) returns; conjugating a group by a rational matrix must
keep every count the certificate reads, and the stop degree it certifies.
Either loop computes a fixed space only where the generator products fall
short of Molien, and must return what a loop computing one at every degree
returns.
"""

import os
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    RatMatrix,
    close_group,
    equivariant_module_generators,
    express,
    invariant_ring_generators,
    molien,
    molien_equivariant,
    variables,
)
from equivar import equivariants, invariants
from equivar import serialize as sz
from equivar.invariants import _ideal_spans_degree, find_hsop

import conftest
from conftest import (
    BASE_GROUPS,
    MIXED_GROUPS,
    closed_or_reject,
    conjugators,
    graded_generators_every_degree,
    pool_group,
    rational_conjugates,
    signed_permutation_groups,
    signed_permutations,
)

# A4 on Q^3: the cyclic shift and diag(-1, -1, 1).  Its invariant ring is free
# over the hsop of degrees 2, 3, 4 with one secondary invariant of degree 6,
# so its certified bound (6) exceeds every hsop degree and is below |G| = 12.
A4 = close_group([
    RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    RatMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
])

# C5 on Q^4 by the companion matrix, and its conjugate by a fixed dense T:
# the generator kernel in four variables makes it the slowest of the small
# groups, so the tests below take it once, as an explicit example, and draw
# the others at random.
C5_GENS = [RatMatrix.from_rows(g) for g in BASE_GROUPS["C5"]]
T = RatMatrix.from_rows([[1, Fraction(1, 2), 0, 2], [0, 1, Fraction(-3, 2), 1],
                         [1, 0, 1, Fraction(1, 3)], [2, 1, 0, 1]])
C5_CONJ = close_group([T @ g @ T.inverse() for g in C5_GENS])
SMALL = sorted(set(BASE_GROUPS) - {"C5"})

# Q8 on Q^4: left multiplication by i and by j on the quaternions a + bi + cj + dk.
Q8 = close_group([
    RatMatrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    RatMatrix.from_rows([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
])


def test_ideal_spans_degree():
    x1, x2 = variables(2)
    # x1^2, x2^2: D = 3, and x1^3, x1^2 x2, x1 x2^2, x2^3 are all multiples
    assert _ideal_spans_degree([x1**2, x2**2])
    # x1^2, x1 x2 vanish on the line x1 = 0
    assert not _ideal_spans_degree([x1**2, x1 * x2])
    assert _ideal_spans_degree([x1**2 + x2**2, x1 * x2])


def test_find_hsop_skips_a_subset_that_fails_the_rank_test(z2_diag):
    inv = invariant_ring_generators(z2_diag)  # x1^2, x1 x2, x2^2
    # (0, 1) passes the one cheap condition, N = 1 + t^2, but not the rank test
    assert find_hsop(inv.gens, molien(z2_diag), 10) == ((0, 2), 2)
    # deg N = 2 does not beat a limit of 2, so nothing is tried
    with mock.patch.object(invariants, "_ideal_spans_degree", side_effect=AssertionError):
        assert find_hsop(inv.gens, molien(z2_diag), 2) is None


@settings(max_examples=300, deadline=None)
@example("s4", [1, 2, 3, 4])
@example("b3", [2, 4, 6, 1])
@example("bt", [4, 4, 6, 6])
@example("d4_conj", [2, 4, 1, 1])
@given(st.sampled_from(sorted(conftest.POOL)), st.lists(st.integers(1, 8), min_size=4, max_size=4))
def test_hsop_numerator_at_one_is_fixed_by_the_degrees(name, degrees):
    # find_hsop tests no N(1): wherever N(t) = M(t) prod (1 - t^d_i) is a
    # polynomial, N(1) = rank * prod d_i / |G|, since only the identity gives
    # the Molien series a pole of order n at t = 1, of weight 1 in the ring's
    # series and tr I = n in the fields'
    group = pool_group(name)
    ds = degrees[:group.n]
    for series, rank in ((molien(group), 1), (molien_equivariant(group), group.n)):
        numer = series.hsop_numerator(ds)
        if numer is not None:
            assert sum(numer) * group.order == rank * prod(ds)


@pytest.mark.parametrize("name, degrees", [("s4", [1, 2, 3, 4]), ("b3", [2, 4, 6]), ("bt", [4, 4, 6, 6])])
def test_hsop_degrees_give_a_polynomial_numerator(name, degrees):
    # the identity above is exercised: these are the degrees of an hsop
    group = pool_group(name)
    assert molien(group).hsop_numerator(degrees) is not None
    assert molien_equivariant(group).hsop_numerator(degrees) is not None


def test_a4_stops_at_the_secondary_degree():
    inv = invariant_ring_generators(A4)
    assert inv.degrees == (2, 3, 4, 6)
    assert (inv.bound, inv.stop, inv.hsop) == (6, "hsop", (0, 1, 2))
    eg = equivariant_module_generators(inv)
    assert (eg.bound, eg.stop, eg.hsop) == (5, "hsop", (0, 1, 2))


def test_q8_stops_at_noether_without_a_rank_test():
    # Q8's first hsop has degrees 2, 4, 4, 4 and certifies 10 / 9, which does
    # not beat Noether's 8 / 7: the degree sums alone rule every subset out
    with mock.patch.object(invariants, "_ideal_spans_degree", side_effect=AssertionError):
        inv = invariant_ring_generators(Q8)
        eg = equivariant_module_generators(inv)
    assert (inv.bound, inv.stop, inv.hsop) == (8, "noether", None)
    assert (eg.bound, eg.stop, eg.hsop) == (7, "noether", None)


def test_explicit_bound_computes_no_certificate():
    # find_hsop has one call site, the degree loop both commands share
    with mock.patch("equivar.invariants.find_hsop", side_effect=AssertionError):
        inv = invariant_ring_generators(A4, degree_bound=4)
        eg = equivariant_module_generators(inv, degree_bound=3)
    assert (inv.bound, inv.stop, inv.hsop) == (4, "explicit", None)
    assert (eg.bound, eg.stop, eg.hsop) == (3, "explicit", None)


def small_groups():
    """Signed permutation groups of order <= 12 on Q^2, Q^3 and rational
    conjugates of C2, C3, C4, C6, D4 and S3."""
    return st.one_of(
        signed_permutation_groups(max_n=3, cap=12),
        rational_conjugates(names=SMALL),
    )


@settings(max_examples=15, deadline=None)
@example(A4)
@example(C5_CONJ)
@given(small_groups())
def test_certified_run_equals_noether_run(group):
    inv = invariant_ring_generators(group)
    noether = invariant_ring_generators(group, degree_bound=group.order)
    assert inv.gens == noether.gens
    assert inv.bound <= group.order
    eg = equivariant_module_generators(inv)
    eg_noether = equivariant_module_generators(noether, degree_bound=group.order - 1)
    assert eg.vgens == eg_noether.vgens
    assert eg.bound <= group.order - 1


@st.composite
def conjugated_groups(draw):
    """(G, T G T^-1, T^-1): G is C2, C3, C4, C6, D4, S3 or a group of signed
    permutations of order <= 12, T random and rational."""
    kind = draw(st.sampled_from(SMALL + ["signed"]))
    if kind == "signed":
        gens = draw(signed_permutations(max_n=3))
    else:
        gens = [RatMatrix.from_rows(g) for g in BASE_GROUPS[kind]]
    t, t_inv = draw(conjugators(gens[0].rows))
    return closed_or_reject(gens, 12), close_group([t @ g @ t_inv for g in gens]), t_inv


@settings(max_examples=15, deadline=None)
@example((close_group(C5_GENS), C5_CONJ, T.inverse()))
@given(conjugated_groups())
def test_conjugation_keeps_series_degrees_and_stop(groups):
    group, conj, t_inv = groups
    assert molien(conj) == molien(group)
    assert molien_equivariant(conj) == molien_equivariant(group)
    inv, inv_conj = invariant_ring_generators(group), invariant_ring_generators(conj)
    eg = equivariant_module_generators(inv)
    eg_conj = equivariant_module_generators(inv_conj)
    assert inv_conj.degrees == inv.degrees
    assert eg_conj.degrees == eg.degrees
    assert (inv_conj.bound, inv_conj.stop) == (inv.bound, inv.stop)
    assert (eg_conj.bound, eg_conj.stop) == (eg.bound, eg.stop)
    for p in inv.gens:
        # q(x) = p(T^-1 x) is invariant under T G T^-1
        q = p.compose_linear(t_inv)
        assert inv_conj.substitute(express(inv_conj, q)) == q


GROUPS_DIR = os.path.join(os.path.dirname(__file__), "golden", "groups")


@pytest.mark.parametrize("name, inv_bound, eq_bound", [
    ("s4", None, None),
    ("b3", None, None),
    ("d4_conj", None, None),
    ("c6_hex", None, None),
    ("s4", 6, 4),
    ("c6_hex", 3, 4),
])
def test_no_fixed_space_above_the_reported_bound(name, inv_bound, eq_bound):
    # every degree at which either loop computes a fixed space is recorded:
    # a loop that computes one degree past the bound it reports returns the
    # same generators, so only the degrees show it
    group = sz.group_from_doc(sz.load_json(os.path.join(GROUPS_DIR, f"{name}.json")))
    seen = {"inv": [], "eq": []}

    def record(key, basis):
        def wrapper(group, d):
            seen[key].append(d)
            return basis(group, d)
        return wrapper

    with mock.patch.object(invariants, "invariant_basis", record("inv", invariants.invariant_basis)), \
            mock.patch.object(equivariants, "equivariant_basis", record("eq", equivariants.equivariant_basis)):
        inv = invariant_ring_generators(group, degree_bound=inv_bound)
        eg = equivariant_module_generators(inv, degree_bound=eq_bound)
    # a fixed space is computed where the products fall short of Molien, and
    # only there, once each: exactly the degrees of the new generators
    assert seen["inv"] == sorted(set(inv.degrees))
    assert seen["eq"] == sorted(set(eg.degrees))
    assert max(seen["inv"]) <= inv.bound
    assert max(seen["eq"]) <= eg.bound
    if inv_bound is not None:
        assert (inv.bound, eg.bound) == (inv_bound, eq_bound)


POOL = {name: close_group([RatMatrix.from_rows(g) for g in gens])
        for name, gens in {**BASE_GROUPS, **MIXED_GROUPS}.items()}


@settings(max_examples=30, deadline=None)
@example(Q8, 8, 7)
@example(C5_CONJ, 5, 4)
@given(
    st.one_of(st.sampled_from(sorted(POOL)).map(POOL.get), rational_conjugates(names=SMALL)),
    st.one_of(st.none(), st.integers(1, 8)),
    st.one_of(st.none(), st.integers(0, 7)),
)
def test_products_first_matches_every_degree_loop(group, inv_bound, eq_bound):
    # the loop that computes each fixed space only where the products fall
    # short returns what the one computing it at every degree returns
    def run():
        inv = invariant_ring_generators(group, degree_bound=inv_bound)
        eg = equivariant_module_generators(inv, degree_bound=eq_bound)
        docs = (sz.invariant_gens_to_doc(inv), sz.equivariant_gens_to_doc(eg))
        return inv.gens, eg.vgens, [sz.dumps(doc) for doc in docs]

    got = run()
    with mock.patch.object(invariants, "_graded_generators", graded_generators_every_degree), \
            mock.patch.object(equivariants, "_graded_generators", graded_generators_every_degree):
        assert run() == got
