"""Module generators for equivariant polynomial vector fields.

A homogeneous degree-m vector field V corresponds to the phase polynomial
sum_i V_i(x) xi_i, homogeneous of degree m+1 and linear in the xi block.
That subspace is stable under the phase action, and its fixed points are
exactly the pairings of the equivariant fields.  So the degree-m equivariant
basis is the canonical fixed-space basis of the phase action on the
monomials x^alpha xi_i (actions.fixed_basis, one pipeline for every
group), and module generation over the invariant ring is again a
degree-by-degree complement computation, checked against the trace-weighted
Molien series.  The loop stops at the bound an hsop among the invariant
generators certifies (invariants.find_hsop), or at |G| - 1 without one.

The module is taken over Q[p], p the given invariant generators: each
product p^a W_j is the column of p^a in their ProductTable times the
components of W_j (_module_products), and the span of the generator loop and
the solve of express_equivariant read the same columns in the same order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .actions import PSI, THETA, PolyVectorField, fixed_basis, is_invariant, pairing, unpairing
from .errors import DimensionMismatchWithMolien, NoSolution, NotInvariant
from .groups import MatGroup
from .invariants import InvariantGens, _unscale, find_hsop, weighted_monomials
from .linalg import Echelon, solve_free_zero
from .molien import molien_equivariant
from .poly import Exponents, MultiPoly, monomials_of_degree, poly_to_vector


def xilinear_monomials(n: int, m: int) -> list[Exponents]:
    """Monomials x^alpha xi_i with |alpha| = m, as 2n-exponent tuples.

    Descending graded-lex order on the full tuple: the x block dominates,
    and xi_1 outranks xi_2 within one alpha.
    """
    out = []
    for alpha in monomials_of_degree(n, m):
        for i in range(n):
            out.append(alpha + tuple(int(j == i) for j in range(n)))
    return out


def field_to_vector(field: PolyVectorField, basis: Sequence[Exponents]):
    return poly_to_vector(pairing(field), basis)


def equivariant_basis(group: MatGroup, m: int) -> list[PolyVectorField]:
    """Basis of the homogeneous degree-m equivariant vector fields.

    Computed through the phase-polynomial route: the canonical basis of the
    phase-action fixed points among the x^alpha xi_i (the phase action
    preserves bidegree, so it maps them into themselves), read back off the
    xi coefficients.  The direct route (averaging vector-field monomials
    under the pushforward action) must span the same subspace; tests hold
    the two against each other.
    """
    if m < 0:
        raise ValueError("degree must be non-negative")
    return [unpairing(q) for q in fixed_basis(group, PSI, xilinear_monomials(group.n, m))]


class EquivariantGens:
    """Module generators for the equivariant fields over the invariant ring.

    `bound`, `stop` and `hsop` record how the degree loop ended, as on
    InvariantGens; hsop indexes the invariant generators.
    """

    __slots__ = ("group", "vgens", "degrees", "invariant_gens", "bound", "stop", "hsop")

    def __init__(
        self,
        group: MatGroup,
        vgens: Sequence[PolyVectorField],
        degrees: Sequence[int],
        invariant_gens: InvariantGens,
        bound: int | None = None,
        stop: str | None = None,
        hsop: Sequence[int] | None = None,
    ) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "vgens", tuple(vgens))
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "invariant_gens", invariant_gens)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "hsop", None if hsop is None else tuple(hsop))

    def __setattr__(self, name, value):
        raise AttributeError("EquivariantGens is immutable")

    def __len__(self) -> int:
        return len(self.vgens)

    def __repr__(self) -> str:
        return f"EquivariantGens({len(self.vgens)} generators, degrees={list(self.degrees)})"


def equivariant_module_generators(
    group: MatGroup, inv: InvariantGens, degree_bound: int | None = None
) -> EquivariantGens:
    """Generators of the equivariant fields as a module over the invariants.

    With no bound given, the loop runs to deg N_eq, N_eq(t) = M_eq(t) *
    prod (1 - t^d_i), for the first hsop theta among inv's generators that
    beats |G| - 1 (find_hsop; its rank test is skipped for inv.hsop, which
    the invariant loop already certified): the fields are free over Q[theta]
    with basis degrees counted by N_eq, so they are generated over the larger
    ring inv generates in those degrees too.  Without such an hsop the bound
    is |G| - 1: a xi-linear generator of the phase invariants has total
    degree at most |G| by Noether's bound, so the corresponding field degree
    is at most |G| - 1.  At each degree m the span of the products p^a W
    (p^a a product of inv's generators, W a generator found below m) is
    completed to the full fixed space, so the module is taken over the ring
    inv generates; dimensions are checked against the Molien series.
    """
    if inv.group is not group and inv.group.elements != group.elements:
        raise ValueError("invariant generators were computed for a different group")
    bound = group.order - 1 if degree_bound is None else degree_bound
    if bound < 0:
        raise ValueError("degree bound must be non-negative")
    series = molien_equivariant(group)
    stop, hsop = "explicit", None
    if degree_bound is None:
        stop = "noether"
        found = find_hsop(group, inv.gens, inv.degrees, series, group.n, bound, certified=inv.hsop)
        if found is not None:
            (hsop, bound), stop = found, "hsop"
    vgens: list[PolyVectorField] = []
    degrees: list[int] = []
    for m in range(bound + 1):
        basis_m = equivariant_basis(group, m)
        expected = series.coefficient(m)
        if len(basis_m) != expected:
            raise DimensionMismatchWithMolien(
                f"degree {m}: equivariant space has dimension {len(basis_m)}, "
                f"Molien says {expected}"
            )
        monos = xilinear_monomials(group.n, m)
        span = Echelon()
        for col in _module_products(inv, vgens, degrees, m)[1]:
            span.add(col)
        for cand in basis_m:
            if span.add(field_to_vector(cand, monos)):
                vgens.append(cand)
                degrees.append(m)
        if span.rank != expected:
            raise DimensionMismatchWithMolien(
                f"degree {m}: module span has dimension {span.rank}, Molien says {expected}"
            )
    return EquivariantGens(group, vgens, degrees, inv, bound, stop, hsop)


def express_equivariant(eg: EquivariantGens, field: PolyVectorField) -> list[MultiPoly]:
    """Coefficients writing an equivariant field over the module generators.

    Returns one polynomial f_a in the k invariant-generator variables per
    module generator, with sum_a f_a(p(x)) V_a(x) == field(x) exactly.
    Solved per homogeneous degree on the integer columns of _module_products,
    ordered by generator index, then descending graded-lex on the invariant
    exponents; free coordinates are set to zero (as in scalar expression).
    """
    chk = is_invariant(eg.group, field, THETA)
    if not chk:
        raise NotInvariant("field is not equivariant", chk.generator_index, chk.difference)
    inv = eg.invariant_gens
    # p^a V_j has degree deg(p^a) + deg(V_j), so the degrees never share a term
    coeffs: list[dict[Exponents, Fraction]] = [{} for _ in eg.vgens]
    for m in sorted({sum(e) for comp in field.comps for e, _ in comp.sorted_terms()}):
        target = field.homogeneous_part(m)
        labels, cols, dens = _module_products(inv, eg.vgens, eg.degrees, m)
        if not cols:
            raise NoSolution(f"no module products exist at degree {m}")
        target_vec = field_to_vector(target, xilinear_monomials(eg.group.n, m))
        sol = solve_free_zero(list(zip(*cols)), [target_vec])[0]
        if sol is None:
            raise NoSolution(f"degree-{m} component is outside the module span")
        for (w_idx, a), c in zip(labels, _unscale(sol, dens)):
            if c:
                coeffs[w_idx][a] = c
    return [MultiPoly._of(inv.k, t) for t in coeffs]


def _module_products(
    inv: InvariantGens, vgens: Sequence[PolyVectorField], degrees: Sequence[int], m: int
) -> tuple[list[tuple[int, Exponents]], list[list[int]], list[int]]:
    """Labels (j, a), integer columns over xilinear_monomials(n, m) and
    denominators of the degree-m products p^a W_j, in generator order, then
    descending graded-lex on a.  Component i of p^a W_j fills the rows
    alpha * n + i, over the lcm of the components' denominators."""
    table = inv._table
    n = inv.group.n
    size = n * len(table.monomials(m))
    labels, cols, dens = [], [], []
    for j, (w, m_w) in enumerate(zip(vgens, degrees)):
        for a in weighted_monomials(inv.degrees, m - m_w):
            parts = [(i, *table.times(a, c)) for i, c in enumerate(w.comps) if not c.is_zero]
            den = lcm(*(d for _, _, d in parts))
            col = [0] * size
            for i, nums, d in parts:
                col[i::n] = [x * (den // d) for x in nums]
            labels.append((j, a))
            cols.append(col)
            dens.append(den)
    return labels, cols, dens
