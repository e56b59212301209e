"""Invariant rings of four small matrix groups, end to end.

Walks through group closure, Molien dimension counts, generator
computation, expressing invariants in the generators, and the relations
that cut out the orbit-space model.
"""

from fractions import Fraction

from equivar import (
    InvariantGens,
    RatMatrix,
    close_group,
    express,
    invariant_basis,
    invariant_ring_generators,
    molien,
    relations,
    variables,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("Closing groups from generators")
z2 = close_group([RatMatrix.from_rows([[-1]])])
z2_diag = close_group([RatMatrix.from_rows([[-1, 0], [0, -1]])])
swap = close_group([RatMatrix.from_rows([[0, 1], [1, 0]])])
c4 = close_group([RatMatrix.from_rows([[0, -1], [1, 0]])])
for name, g in [("sign flip on R", z2), ("central flip on R^2", z2_diag),
                ("coordinate swap", swap), ("quarter turn", c4)]:
    print(f"  {name:22s} order {g.order}")

banner("Molien series count invariant dimensions per degree")
for name, g in [("swap", swap), ("quarter turn", c4)]:
    s = molien(g)
    print(f"  {name:14s} {s!r}")
    print(f"  {'':14s} dims through degree 8: {s.coefficients(8)}")

banner("Degree-by-degree fixed spaces (quarter turn)")
for d in range(5):
    basis = invariant_basis(c4, d)
    print(f"  degree {d}: {[b.format() for b in basis]}")

banner("Ring generators")
for name, g in [("sign flip", z2), ("central flip", z2_diag), ("swap", swap), ("quarter turn", c4)]:
    inv = invariant_ring_generators(g)
    shown = ", ".join(p.format() for p in inv.gens)
    print(f"  {name:14s} degrees {list(inv.degrees)}: {shown}")

banner("Expressing an invariant in the generators")
x1, x2 = variables(2)
inv = invariant_ring_generators(z2_diag)
q = x1**4 + 2 * x1**2 * x2**2 + x2**4
f = express(inv, q)
pnames = [f"P{i + 1}" for i in range(inv.k)]
print(f"  q = {q.format()}")
print(f"  q = {f.format(pnames)}  with P1, P2, P3 = x1^2, x1*x2, x2^2")
print(f"  substitution check: {inv.substitute(f) == q}")

banner("The Hilbert map sends points to orbit-space coordinates")
print(f"  sigma(1, 2)  = {inv.hilbert_map([1, 2])}")
print(f"  sigma(-1,-2) = {inv.hilbert_map([-1, -2])}   (same orbit, same image)")
print(f"  sigma(1/2, 1/3) = {inv.hilbert_map([Fraction(1, 2), Fraction(1, 3)])}")

banner("Relations among the generators")
rset = relations(inv, 4)
print(f"  central flip: {[r.format(pnames) for r in rset.rels]}")
free = InvariantGens.from_polys(swap, [x1 + x2, x1 * x2])
print(f"  swap with gens x1+x2, x1*x2 through weight 6: "
      f"{len(relations(free, 6))} relations (free ring)")
