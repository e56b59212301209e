"""The monomial generators' orbits in the invariance checks and the solves,
against the routes they replaced.

A generator whose substitution has one nonzero per row sends each term to
one term, so is_invariant relabels terms (actions._relabel) where it read
the generator's product table, and an invariant's coefficients are fixed
along each orbit of monomials, so express, express_equivariant and
relations solve on the first monomial of each orbit (actions.leader_rows)
where they solved on every monomial.  The oracles are the product tables'
substitution and the full-row solves kept in conftest.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import (
    PHI_DAGGER,
    PSI,
    THETA,
    InvariantGens,
    MultiPoly,
    PolyVectorField,
    RatMatrix,
    express,
    express_equivariant,
    is_invariant,
    monomials_of_degree,
    reduce_field,
    reynolds,
    relations,
    xilinear_monomials,
)
from equivar import invariants
from equivar.actions import _relabel, _relabellings, _table, leader_rows
from equivar.equivariants import EquivariantGens
from equivar.errors import NoSolution, NotInvariant

from conftest import (
    POOL,
    closed_or_reject,
    express_over_full_rows,
    pool_generators,
    relations_full_rows,
    signed_permutations,
    sparse_polys,
)

def outcome(solve):
    """The solution, or the NoSolution message."""
    try:
        return solve()
    except NoSolution as exc:
        return f"NoSolution: {exc}"


@pytest.mark.parametrize("name", sorted(POOL))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_express_on_leader_rows_matches_every_row(name, data):
    inv, _ = pool_generators(name)
    f = data.draw(sparse_polys(inv.k, 2))
    q = inv.substitute(f)
    unit = [[MultiPoly.constant(inv.group.n, 1)]]
    if not q.is_zero:
        want = express_over_full_rows(inv, unit, [[q]], "generator")[0][0]
        assert express(inv, q) == want
        assert inv.substitute(want) == q
    # without its last generator the ring misses the dropped generator's
    # products, and both solves refuse them with one message
    fewer = InvariantGens(inv.group, inv.gens[:-1])
    target = inv.gens[-1] + q
    assert outcome(lambda: express(fewer, target)) == outcome(
        lambda: express_over_full_rows(fewer, unit, [[target]], "generator")[0][0])


@pytest.mark.parametrize("name", sorted(POOL))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_express_equivariant_on_leader_rows_matches_every_row(name, data):
    inv, eg = pool_generators(name)
    fs = [data.draw(sparse_polys(inv.k, 1)) for _ in eg.vgens]
    field = PolyVectorField.zero(inv.group.n)
    for f, v in zip(fs, eg.vgens):
        field = field + v.scale(inv.substitute(f))
    ws = [v.comps for v in eg.vgens]
    if not field.is_zero:
        want = express_over_full_rows(inv, ws, [field.comps], "module")[0]
        assert express_equivariant(eg, field) == want
    fewer = EquivariantGens(eg.vgens[:-1], inv)
    target = field + eg.vgens[-1]
    assert outcome(lambda: express_equivariant(fewer, target)) == outcome(
        lambda: express_over_full_rows(inv, ws[:-1], [target.comps], "module")[0])


@pytest.mark.parametrize("name", sorted(POOL))
def test_relations_on_leader_rows_match_every_row(name):
    inv, _ = pool_generators(name)
    bound = 2 * max(inv.degrees)
    assert list(relations(inv, bound).rels) == relations_full_rows(inv, bound)


def test_pool_relations_are_not_all_empty():
    # the kernels compared above hold relations where orbits lead: -I's and
    # C4's monomial generators, and BT's mixed set
    counts = {name: len(relations(pool_generators(name)[0], 2 * max(pool_generators(name)[0].degrees)))
              for name in ("z2_diag", "c4", "minus_i3", "bt")}
    assert all(counts.values()), counts


def test_leader_rows():
    b3, _ = pool_generators("b3")
    minus_i3, _ = pool_generators("minus_i3")
    d4_conj, _ = pool_generators("d4_conj")
    # every monomial of odd degree cancels under -I, and every one is its
    # own orbit at even degree
    assert leader_rows(minus_i3.group, PHI_DAGGER, 3) == []
    assert leader_rows(minus_i3.group, PHI_DAGGER, 4) == list(range(len(monomials_of_degree(3, 4))))
    # the phase action of -I fixes x^alpha xi_i exactly when |alpha| is odd
    assert leader_rows(minus_i3.group, PSI, 2) == []
    assert leader_rows(minus_i3.group, PSI, 1) == list(range(9))
    # B3 permutes and changes signs: one leader per partition with even
    # parts, the first monomial of its orbit
    monos = monomials_of_degree(3, 6)
    assert [monos[i] for i in leader_rows(b3.group, PHI_DAGGER, 6)] == [(6, 0, 0), (4, 2, 0), (2, 2, 2)]
    assert leader_rows(b3.group, PHI_DAGGER, 5) == []
    # no monomial generator: every row
    assert leader_rows(d4_conj.group, PSI, 3) == list(range(len(xilinear_monomials(2, 3))))


# ---------------------------------------------------------------------------
# The relabelled images of monomial generators against their tables.

SCALES = [Fraction(x) for x in (1, 1, 2, -3)] + [Fraction(1, 2), Fraction(-1, 3)]


@st.composite
def scaled_monomial_groups(draw):
    """Groups generated by signed permutations of Q^2..Q^3 conjugated by a
    diagonal matrix with entries among 1, 2, -3, 1/2 and -1/3, so that their
    monomial entries are signed and may be fractions."""
    gens = draw(signed_permutations(3))
    n = gens[0].rows
    scale = draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n))
    diag = RatMatrix.from_rows([[scale[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return closed_or_reject([diag @ g @ diag.inverse() for g in gens], 48)


def table_invariance(group, obj, action):
    """is_invariant on every generator's table: (first failing generator,
    difference), or None when obj is fixed."""
    sub = PHI_DAGGER if action == THETA else action
    for g in group.gen_indices:
        table = _table(group, sub, g)
        if action == THETA:
            moved = PolyVectorField([table.substitute(c) for c in obj.mix(group.matrix(g)).comps])
        else:
            moved = table.substitute(obj)
        if moved != obj:
            return g, obj - moved
    return None


@settings(max_examples=60, deadline=None)
@given(scaled_monomial_groups(), st.data())
def test_relabel_matches_table_substitution(group, data):
    n = group.n
    field = PolyVectorField(data.draw(st.lists(sparse_polys(n, 3), min_size=n, max_size=n)))
    cases = [(PHI_DAGGER, data.draw(sparse_polys(n, 4))), (PSI, data.draw(sparse_polys(2 * n, 3))), (THETA, field)]
    for action, obj in cases:
        sub = PHI_DAGGER if action == THETA else action
        relabellings = _relabellings(group, sub)
        for g in group.gen_indices:
            table = _table(group, sub, g)
            parts = obj.mix(group.matrix(g)).comps if action == THETA else [obj]
            assert [_relabel(relabellings[g], p) for p in parts] == [table.substitute(p) for p in parts]
        chk = is_invariant(group, obj, action)
        want = table_invariance(group, obj, action)
        assert (None if chk else (chk.generator_index, chk.difference)) == want
        # the Reynolds average is fixed, and both routes say so
        avg = reynolds(group, action, obj)
        assert is_invariant(group, avg, action) and table_invariance(group, avg, action) is None


def test_tables_only_for_generators_that_are_not_monomial():
    inv, eg = pool_generators("s4")
    group = inv.group
    field = eg.vgens[-1].scale(inv.gens[1])
    assert is_invariant(group, field, THETA)
    express(inv, inv.gens[0] * inv.gens[2])
    reduce_field(field, inv)
    assert not [k for k in group._derived if k[0] == "table"]
    inv, eg = pool_generators("d6_hex")
    is_invariant(inv.group, eg.vgens[-1], THETA)
    is_invariant(inv.group, inv.gens[-1], PHI_DAGGER)
    relabellings = _relabellings(inv.group, PHI_DAGGER)
    built = {k[2] for k in inv.group._derived if k[0] == "table"}
    assert built == {g for g, r in relabellings.items() if r is None} and len(built) == 1


@pytest.mark.parametrize("name", ["c4", "s4", "d6_hex", "d4_conj", "swap_frac"])
def test_non_invariant_targets_raise_before_any_solve(name, monkeypatch):
    inv, eg = pool_generators(name)
    n = inv.group.n
    x1 = MultiPoly(n, {tuple(int(i == 0) for i in range(n)): 1})
    moved = PolyVectorField([x1 * x1] + [MultiPoly.zero(n)] * (n - 1))
    assert not is_invariant(inv.group, x1 * x1, PHI_DAGGER)
    assert not is_invariant(inv.group, moved, THETA)

    def refuse(*args):
        raise AssertionError("solved a system for a target that is not invariant")

    monkeypatch.setattr(invariants, "solve_free_zero", refuse)
    monkeypatch.setattr(invariants, "leader_rows", refuse)
    with pytest.raises(NotInvariant):
        express(inv, x1 * x1 + inv.gens[0])
    with pytest.raises(NotInvariant):
        express_equivariant(eg, moved)
    with pytest.raises(NotInvariant):
        reduce_field(moved, inv)
