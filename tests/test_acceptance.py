"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; a FAILED
test from pytest is the fail line for its criterion.
"""

import random
import time
from fractions import Fraction

from equivar import (
    MultiPoly,
    PHI_DAGGER,
    PSI,
    THETA,
    PolyVectorField,
    act_phi_dagger,
    act_psi,
    act_theta,
    check_related,
    equivariant_basis,
    equivariant_module_generators,
    express_equivariant,
    integrate_pair,
    invariant_basis,
    invariant_ring_generators,
    is_invariant,
    molien,
    molien_equivariant,
    pairing,
    reduce_field,
    relations,
    reynolds,
    unpairing,
    variables,
    xilinear_monomials,
)
from equivar.cli import main as cli_main
from equivar.linalg import Echelon
from equivar import serialize as sz

from conftest import directional_derivatives, field_to_vector, random_field, random_poly
from test_equivariants import direct_theta_basis


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_z2_line(z2_line):
    start = time.monotonic()
    x, = variables(1)
    inv = invariant_ring_generators(z2_line)
    assert len(inv.gens) == 1 and inv.degrees == (2,)
    assert inv.gens[0].monic() == x**2

    eg = equivariant_module_generators(inv)
    assert len(eg.vgens) == 1 and eg.degrees == (1,)
    scaled = eg.vgens[0]
    lead = scaled[0].leading_term()[1]
    assert scaled.scale(Fraction(1) / lead) == PolyVectorField([x])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"one invariant x^2, one equivariant (x), {elapsed:.3f}s")


def test_criterion_2_z2_diag(z2_diag):
    start = time.monotonic()
    inv = invariant_ring_generators(z2_diag)
    assert len(inv.gens) == 3 and inv.degrees == (2, 2, 2)

    rset = relations(inv, 4)
    assert len(rset) == 1
    target = MultiPoly(3, {(1, 0, 1): 1, (0, 2, 0): -1})  # P1 P3 - P2^2
    rel = rset.rels[0]
    scale = rel.leading_term()[1] / target.leading_term()[1]
    assert rel == target * scale

    eg = equivariant_module_generators(inv)
    assert len(eg.vgens) == 4 and eg.degrees == (1, 1, 1, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"3 quadratic invariants, relation P1*P3 - P2^2, 4 linear equivariants, {elapsed:.3f}s")


def test_criterion_3_swap(swap2):
    x1, x2 = variables(2)
    inv = invariant_ring_generators(swap2)
    assert tuple(sorted(inv.degrees)) == (1, 2)
    eg = equivariant_module_generators(inv)
    assert tuple(sorted(eg.degrees)) == (0, 1)

    target = PolyVectorField([x2, x1])
    coeffs = express_equivariant(eg, target)
    # documented tie-break lands exactly on (y,x) = (x+y)(1,1) - (x,y)
    one = MultiPoly.constant(2, 1)
    assert eg.vgens == (PolyVectorField([one, one]), PolyVectorField([x1, x2]))
    assert coeffs == [MultiPoly.variable(2, 0), MultiPoly.constant(2, -1)]
    rebuilt = PolyVectorField.zero(2)
    for c, v in zip(coeffs, eg.vgens):
        rebuilt = rebuilt + v.scale(inv.substitute(c))
    assert rebuilt == target
    report(3, "degrees {1,2}/{0,1}; (y,x) = (x+y)(1,1) - (x,y) exactly")


def test_criterion_4_c4(c4):
    start = time.monotonic()
    inv = invariant_ring_generators(c4)
    assert sorted(inv.degrees) == [2, 4, 4]

    inv_series = molien(c4)
    for d in range(9):
        assert inv_series.coefficient(d) == len(invariant_basis(c4, d))
    eq_series = molien_equivariant(c4)
    for d in range(9):
        assert eq_series.coefficient(d) == len(equivariant_basis(c4, d))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, f"degrees {{2,4,4}}; Molien == basis dims through degree 8, {elapsed:.3f}s")


def test_criterion_5_action_laws(sample_groups):
    for name, group in sample_groups.items():
        rng = random.Random(1000 + len(name))
        n = group.n
        for _ in range(100):
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
    report(5, "composition laws exact on 100 random triples per group, all actions")


def test_criterion_6_reynolds(sample_groups):
    for name, group in sample_groups.items():
        rng = random.Random(2000 + len(name))
        for _ in range(100):
            p = random_poly(rng, group.n, 4)
            avg = reynolds(group, PHI_DAGGER, p)
            assert reynolds(group, PHI_DAGGER, avg) == avg
            assert is_invariant(group, avg, PHI_DAGGER)
        # identity on already-fixed points
        for b in invariant_basis(group, 2):
            assert reynolds(group, PHI_DAGGER, b) == b
    report(6, "projector idempotent, fixed on invariants, outputs invariant (100/group)")


def test_criterion_7_pairing_bijection(sample_groups):
    for group in sample_groups.values():
        rng = random.Random(42)
        for _ in range(20):
            v = random_field(rng, group.n, 4)
            assert unpairing(pairing(v)) == v
        for m in range(2 * group.order + 1):
            basis = equivariant_basis(group, m)
            for v in basis:
                assert is_invariant(group, pairing(v), PSI)
                assert is_invariant(group, v, THETA)
            monos = xilinear_monomials(group.n, m)
            direct = direct_theta_basis(group, m)
            a, b, both = Echelon(), Echelon(), Echelon()
            for v in basis:
                a.add(field_to_vector(v, monos))
            for v in direct:
                b.add(field_to_vector(v, monos))
            for v in list(basis) + direct:
                both.add(field_to_vector(v, monos))
            assert a.rank == b.rank == both.rank
    report(7, "pairing bijection and route agreement exact through degree 2|G|")


def _criterion8_systems(z2_line, z2_diag):
    x, = variables(1)
    inv1 = invariant_ring_generators(z2_line)
    field1 = PolyVectorField([x - x**3])

    x1, x2 = variables(2)
    one = MultiPoly.constant(2, 1)
    r2 = x1**2 + x2**2
    inv2 = invariant_ring_generators(z2_diag)
    field2 = PolyVectorField([x1 * (one - r2), x2 * (one - r2)])
    return (field1, inv1), (field2, inv2)


def test_criterion_8_reduction(z2_line, z2_diag):
    (field1, inv1), (field2, inv2) = _criterion8_systems(z2_line, z2_diag)

    rs1 = reduce_field(field1, inv1)
    assert rs1.comps == (MultiPoly(1, {(1,): 2, (2,): -2}),)  # 2 P1 - 2 P1^2

    rs2 = reduce_field(field2, inv2)
    expected = []
    for i in range(3):
        unit = tuple(int(j == i) for j in range(3))
        terms = {unit: Fraction(2)}
        for j in (0, 2):
            e = tuple(a + int(t == j) for t, a in enumerate(unit))
            terms[e] = terms.get(e, Fraction(0)) - 2
        expected.append(MultiPoly(3, terms))
    assert rs2.comps == tuple(expected)  # 2 P_i (1 - P1 - P3)

    assert check_related(field1, rs1, inv1)
    assert check_related(field2, rs2, inv2)
    for field, inv, rs in ((field1, inv1, rs1), (field2, inv2, rs2)):
        for q, comp in zip(directional_derivatives(field, inv), rs.comps):
            assert inv.substitute(comp) == q
    report(8, "reductions match the chain-rule systems exactly; identities re-verified")


def test_criterion_9_numeric_relatedness(z2_line, z2_diag):
    (field1, inv1), (field2, inv2) = _criterion8_systems(z2_line, z2_diag)
    defects = []
    for field, inv, x0 in (
        (field1, inv1, [Fraction(1, 2)]),
        (field2, inv2, [Fraction(1, 2), Fraction(1, 3)]),
    ):
        rs = reduce_field(field, inv)
        rep = integrate_pair(field, rs, inv, x0, 1.0, 1e-3)
        assert rep.max_defect <= 1e-6
        defects.append(rep.max_defect)
        # fourth-order convergence, measured where truncation dominates the
        # double-precision noise floor
        coarse = integrate_pair(field, rs, inv, x0, 1.0, 2e-2).max_defect
        fine = integrate_pair(field, rs, inv, x0, 1.0, 1e-2).max_defect
        assert coarse / fine >= 8
    report(9, f"defects at step 1e-3: {defects[0]:.2e}, {defects[1]:.2e}; halving ratio >= 8")


GROUP_DOCS = {
    "z2": {"n": 1, "generators": [[["-1"]]]},
    "z2d": {"n": 2, "generators": [[["-1", "0"], ["0", "-1"]]]},
    "swap": {"n": 2, "generators": [[["0", "1"], ["1", "0"]]]},
    "c4": {"n": 2, "generators": [[["0", "-1"], ["1", "0"]]]},
}


def test_criterion_10_cli_determinism(tmp_path, capsys):
    blobs = {}
    for attempt in (1, 2):
        chunks = []
        for name, doc in GROUP_DOCS.items():
            gpath = tmp_path / f"{name}.json"
            gpath.write_text(sz.dumps(doc), encoding="utf-8")
            inv = tmp_path / f"{name}.inv.{attempt}.json"
            eq = tmp_path / f"{name}.eq.{attempt}.json"
            mol = tmp_path / f"{name}.mol.{attempt}.json"
            rel = tmp_path / f"{name}.rel.{attempt}.json"
            for argv in (
                ["invariants", "--group", str(gpath), "--out", str(inv)],
                ["equivariants", "--group", str(gpath), "--invariants", str(inv), "--out", str(eq)],
                ["molien", "--group", str(gpath), "--degrees", "8", "--out", str(mol)],
                ["relations", "--group", str(gpath), "--invariants", str(inv), "--out", str(rel)],
            ):
                assert cli_main(argv) == 0
            capsys.readouterr()
            chunks.append(
                inv.read_bytes() + eq.read_bytes() + mol.read_bytes() + rel.read_bytes()
            )
        blobs[attempt] = chunks
    assert blobs[1] == blobs[2]
    report(10, "two CLI passes over all sample groups byte-identical")
