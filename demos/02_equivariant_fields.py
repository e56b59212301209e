"""Equivariant vector fields through the phase-polynomial construction.

A vector field V pairs with the phase polynomial sum_i V_i(x) xi_i.  The
demo shows that pairing, the equality of the two construction routes, and
module generators with coefficient expression over the invariant ring.
"""

from equivar import (
    MultiPoly,
    PSI,
    THETA,
    PolyVectorField,
    RatMatrix,
    act_psi,
    close_group,
    equivariant_basis,
    equivariant_module_generators,
    express_equivariant,
    invariant_ring_generators,
    is_invariant,
    molien_equivariant,
    pairing,
    reynolds,
    unpairing,
    variables,
)


def phase_names(n):
    """Variable names of the phase space: x1..xn, then xi1..xin."""
    return [f"x{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)]


def banner(text):
    print()
    print(text)
    print("-" * len(text))


swap = close_group([RatMatrix.from_rows([[0, 1], [1, 0]])])
c4 = close_group([RatMatrix.from_rows([[0, -1], [1, 0]])])
x1, x2 = variables(2)

banner("Pairing a field with a phase polynomial")
v = PolyVectorField([x2, x1])
q = pairing(v)
print(f"  V = (x2, x1)  <->  q = {q.format(phase_names(2))}")
print(f"  unpairing returns V: {unpairing(q) == v}")
print(f"  V swap-equivariant: {bool(is_invariant(swap, v, THETA))}")
print(f"  q fixed by the phase action: {bool(is_invariant(swap, q, PSI))}")

banner("Averaging a phase monomial lands on a fixed point")
mono = MultiPoly(4, {(1, 0, 1, 0): 1})  # x1 xi1
avg = reynolds(swap, PSI, mono)
print(f"  average of x1*xi1: {avg.format(phase_names(2))}")
print(f"  unpairs to the field: {unpairing(avg)!r}")

banner("Equivariant dimensions match the trace-weighted series")
series = molien_equivariant(c4)
print(f"  quarter turn series {series!r}")
for m in range(5):
    basis = equivariant_basis(c4, m)
    print(f"  degree {m}: dim {len(basis)} (series says {series.coefficient(m)})")

banner("Module generators over the invariant ring")
for name, g in [("swap", swap), ("quarter turn", c4)]:
    inv = invariant_ring_generators(g)
    eg = equivariant_module_generators(inv)
    print(f"  {name}: degrees {list(eg.degrees)}")
    for vg in eg.vgens:
        print(f"    {vg!r}")

banner("Expressing a field over the generators")
inv = invariant_ring_generators(swap)
eg = equivariant_module_generators(inv)
coeffs = express_equivariant(eg, PolyVectorField([x2, x1]))
pnames = [f"P{i + 1}" for i in range(inv.k)]
for c, vg in zip(coeffs, eg.vgens):
    print(f"  coefficient {c.format(pnames):10s} on {vg!r}")
print("  so (x2, x1) = (x1 + x2)(1, 1) - (x1, x2)")

banner("Checking the quarter-turn phase action explicitly")
q_pair = MultiPoly(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})  # x1 xi1 + x2 xi2
g = c4.gen_indices[0]
print(f"  q = {q_pair.format(phase_names(2))}")
print(f"  g.q == q: {act_psi(c4, g, q_pair) == q_pair}")
