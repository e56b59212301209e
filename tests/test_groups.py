"""Group closure and element bookkeeping."""

import pytest
from hypothesis import assume, example, given, settings

from equivar import (
    ClosureExceedsCap,
    DimensionMismatch,
    NonInvertibleGenerator,
    RatMatrix,
    close_group,
)

from conftest import (
    MIXED_GROUPS,
    mixed_generating_sets,
    rational_conjugates,
    signed_permutation_groups,
)


def product_index(group, i, j):
    return group.elements.index(group.matrix(i) @ group.matrix(j))


def test_z2_closure(z2_line):
    assert z2_line.order == 2
    assert z2_line.matrix(0) == RatMatrix.identity(1)


def test_c4_closure_matches_power_oracle(c4):
    # independent oracle: powers of the rotation until the identity returns
    r = RatMatrix.from_rows([[0, -1], [1, 0]])
    powers = [RatMatrix.identity(2)]
    while True:
        nxt = powers[-1] @ r
        if nxt == powers[0]:
            break
        powers.append(nxt)
    assert c4.order == len(powers) == 4
    assert set(c4.elements) == set(powers)


def test_swap_closure(swap2):
    assert swap2.order == 2


def test_identity_first_and_generator_indices(c4):
    assert c4.matrix(0) == RatMatrix.identity(2)
    r = RatMatrix.from_rows([[0, -1], [1, 0]])
    assert [c4.matrix(i) for i in c4.gen_indices] == [r]


def test_cayley_closure(sample_groups):
    for group in sample_groups.values():
        for i in range(group.order):
            for j in range(group.order):
                assert product_index(group, i, j) in range(group.order)


def test_inverses_present_and_involutive(sample_groups):
    for group in sample_groups.values():
        for i in range(group.order):
            j = group.elements.index(group.inverse(i))
            assert product_index(group, i, j) == 0
            assert product_index(group, j, i) == 0
            assert group.inverse(j) == group.matrix(i)
        assert group.inverse(0) == group.matrix(0)


def test_c4_inverse_of_rotation_is_cube(c4):
    r_idx = c4.gen_indices[0]
    # multiplication-table oracle: find the index with r * x = identity
    expected = next(
        j for j in range(c4.order) if product_index(c4, r_idx, j) == 0
    )
    assert c4.inverse(r_idx) == c4.matrix(expected)
    # and r^-1 == r^3
    r = c4.matrix(r_idx)
    assert c4.inverse(r_idx) == r @ r @ r


def test_z2_inverse_is_self(z2_line):
    neg = z2_line.gen_indices[0]
    assert z2_line.inverse(neg) == z2_line.matrix(neg)


def test_element_orders_divide_group_order(sample_groups):
    for group in sample_groups.values():
        for i in range(group.order):
            k, j = 1, i
            while j != 0:
                j = product_index(group, j, i)
                k += 1
            assert group.order % k == 0


def test_transpose_of(c4, swap2):
    r_idx = c4.gen_indices[0]
    assert c4.matrix(r_idx).transpose() == RatMatrix.from_rows([[0, 1], [-1, 0]])
    s_idx = swap2.gen_indices[0]
    assert swap2.matrix(s_idx).transpose() == swap2.matrix(s_idx)
    assert c4.matrix(0).transpose() == RatMatrix.identity(2)


def test_non_invertible_generator_rejected():
    with pytest.raises(NonInvertibleGenerator):
        close_group([RatMatrix.from_rows([[1, 1], [1, 1]])])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        close_group([RatMatrix.from_rows([[1]]), RatMatrix.identity(2)])
    with pytest.raises(DimensionMismatch):
        close_group([RatMatrix(1, 2, [1, 0])])


def test_zero_size_generators_rejected():
    # a 0x0 "group" used to close, and the invariant ring of it then failed
    # with a bare IndexError
    with pytest.raises(DimensionMismatch):
        close_group([RatMatrix(0, 0, [])])


def test_cap_exceeded():
    # infinite group: shear of infinite order
    with pytest.raises(ClosureExceedsCap):
        close_group([RatMatrix.from_rows([[1, 1], [0, 1]])], cap=50)


def test_deterministic_element_order(c4):
    again = close_group([RatMatrix.from_rows([[0, -1], [1, 0]])])
    assert again.elements == c4.elements


# close_group runs on integer keys and inverts only the generators; the
# oracle is the plain closure in Fraction RatMatrix arithmetic, with the
# index of every element's inverse looked up in its element list.

def fraction_closure(gens):
    """(elements, gen_indices, inverse indices) of a BFS closure over Fraction."""
    identity = RatMatrix.identity(gens[0].rows)
    elements, seen, frontier = [identity], {identity: 0}, [identity]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = x @ g
                if y not in seen:
                    seen[y] = len(elements)
                    elements.append(y)
                    new_frontier.append(y)
        frontier = new_frontier
    return elements, [seen[g] for g in gens], [seen[m.inverse()] for m in elements]


def assert_closure_matches_oracle(group):
    gens = [group.matrix(i) for i in group.gen_indices]
    elements, gen_indices, inverses = fraction_closure(gens)
    assert list(group.elements) == elements
    assert list(group.gen_indices) == gen_indices
    assert [group.inverse(i) for i in range(group.order)] == [elements[j] for j in inverses]


@settings(max_examples=20, deadline=None)
@given(signed_permutation_groups())
def test_signed_permutation_closure_matches_oracle(group):
    assert_closure_matches_oracle(group)


@settings(max_examples=20, deadline=None)
@given(rational_conjugates())
def test_rational_conjugate_closure_matches_oracle(group):
    assume(any(c.denominator != 1 for m in group.elements for c in m.entries))
    assert_closure_matches_oracle(group)


@settings(max_examples=20, deadline=None)
@given(mixed_generating_sets())
@example([RatMatrix.from_rows(g) for g in MIXED_GROUPS["D4_frac"]])
def test_mixed_generating_set_closure_matches_oracle(gens):
    assert_closure_matches_oracle(close_group(gens))
