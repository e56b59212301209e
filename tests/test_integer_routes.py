"""The orbit-space jobs on integer columns, against the Fraction routes
they replaced.

Each X(p_i) = sum_j X_j dp_i/dx_j is built as integer columns
(ProductTable.directional) and compared with Y_i(p) summed in the same
form; the oracle multiplies the field by the partial derivatives in
Fraction arithmetic (poly.dot), substitutes through ProductTable.substitute
and compares MultiPoly values.  relations builds kernel vectors only where
the multiples of the lower relations lead fewer free columns than the
kernel has; the oracle (conftest.relations_every_kernel) reads the kernel
at every degree and spans every multiple.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from equivar import (
    MultiPoly,
    PolyVectorField,
    check_related,
    invariant_ring_generators,
    reduce_field,
    relations,
)
from equivar import invariants
from equivar.serialize import group_from_doc, invariant_gens_from_doc

from conftest import (
    GROUPS_DIR,
    POOL,
    coeffs,
    directional_derivatives,
    pool_generators,
    relations_every_kernel,
    sparse_polys,
)

GOLDEN_DIR = GROUPS_DIR.parent


def related_by_fractions(field, reduced, inv):
    """check_related's verdict, failing index and difference through
    Fraction polynomials: the first i with X(p_i) != Y_i(p), compared as
    MultiPoly values, and X(p_i) - Y_i(p)."""
    for i, (lhs, y_i) in enumerate(zip(directional_derivatives(field, inv), reduced)):
        rhs = inv._table.substitute(y_i)
        if lhs != rhs:
            return False, i, lhs - rhs
    return True, None, None


@pytest.mark.parametrize("name", sorted(POOL))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_integer_identity_matches_fraction_route(name, data):
    # an equivariant field over the module generators with its reduction, the
    # reduction with one coefficient perturbed, and a field and system drawn
    # at random, which are almost never related
    inv, eg = pool_generators(name)
    n, k = inv.group.n, inv.k
    field = PolyVectorField.zero(n)
    for v in eg.vgens:
        field = field + v.scale(inv.substitute(data.draw(sparse_polys(k, 1))))
    reduced = list(reduce_field(field, inv).comps)
    i = data.draw(st.integers(0, k - 1))
    bump = MultiPoly(k, {data.draw(st.tuples(*[st.integers(0, 2)] * k)): data.draw(coeffs.filter(bool))})
    perturbed = reduced[:i] + [reduced[i] + bump] + reduced[i + 1:]
    drawn = PolyVectorField([data.draw(sparse_polys(n, 3)) for _ in range(n)])
    system = [data.draw(sparse_polys(k, 2)) for _ in range(k)]
    for x, y in ((field, reduced), (field, perturbed), (drawn, system)):
        table = inv._table
        assert [table.polynomial(g) for g in table.directional(x.comps)] == directional_derivatives(x, inv)
        chk = check_related(x, y, inv)
        assert (chk.related, chk.index, chk.difference) == related_by_fractions(x, y, inv)
    assert check_related(field, reduced, inv)
    assert check_related(field, perturbed, inv).index == i


def _golden_inv(name: str, invariants_file: str | None):
    group = group_from_doc(json.loads((GROUPS_DIR / f"{name}.json").read_text()))
    if invariants_file is None:
        return invariant_ring_generators(group)
    return invariant_gens_from_doc(json.loads((GOLDEN_DIR / invariants_file).read_text()), group)


@pytest.mark.parametrize("name", sorted(POOL))
def test_relations_match_kernel_at_every_degree(name):
    # past twice the top degree, so that multiples of the lowest relations
    # fill part of a kernel (C4, BT, -I on Q^3, -I on Q^2)
    inv, _ = pool_generators(name)
    bound = 2 * max(inv.degrees) + 2 * min(inv.degrees)
    assert list(relations(inv, bound).rels) == relations_every_kernel(inv, bound)


@pytest.mark.parametrize("name, invariants_file, bound", [
    ("minus_i4", None, 6),  # degree 6 spanned by the multiples alone
    ("q8", "q8.invariants.json", 12),  # 104 relations; the multiples fall short at 10 and 12
])
def test_relations_match_kernel_at_every_degree_on_golden_groups(name, invariants_file, bound):
    inv = _golden_inv(name, invariants_file)
    assert list(relations(inv, bound).rels) == relations_every_kernel(inv, bound)


def test_no_kernel_where_the_multiples_span_it(monkeypatch):
    # -I on Q^4: ten quadrics x_i x_j, twenty relations among the 55
    # products of weight 4, and at weight 6 the 200 multiples of those fill
    # the whole 136-dimensional kernel over the 220 products
    inv = _golden_inv("minus_i4", None)
    sizes = []
    kernel_basis = invariants.kernel_basis

    def counted(rows, ncols):
        sizes.append(ncols)
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(invariants, "kernel_basis", counted)
    rset = relations(inv, 6)
    assert (len(rset), set(rset.weighted_degrees)) == (20, {4})
    assert sizes == [55]


def test_multiples_lead_at_their_last_free_column():
    # r = P1 - P2 of weight 1 has the weight-2 multiples P1^2 - P1 P2 and
    # P1 P2 - P2^2 over the products (P1^2, P1 P2, P2^2), all three free:
    # they end at the second and third, so only the basis vector at the
    # first lies outside their span and a new relation would start there
    candidates = [(2, 0), (1, 1), (0, 2)]
    lower = [(1, ((1, 0), (0, 1)), [1, -1])]
    assert invariants._multiple_leads([1, 1], lower, candidates, [0, 1, 2], 2) == {1, 2}
    assert invariants._multiple_leads([1, 1], lower, candidates, [0, 2], 2) == {0, 2}
    assert invariants._multiple_leads([1, 1], [], candidates, [0, 1, 2], 2) == set()
