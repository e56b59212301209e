"""Equivariant polynomial vector fields: their basis in each degree, and
thin entry points to the module loop and solve in invariants.

A homogeneous degree-m vector field V corresponds to the phase polynomial
sum_i V_i(x) xi_i, homogeneous of degree m+1 and linear in the xi block.
That subspace is stable under the phase action, and its fixed points are
exactly the pairings of the equivariant fields.  So the degree-m equivariant
basis is the canonical fixed-space basis of the phase action on the
monomials x^alpha xi_i, actions.xilinear_monomials (actions.fixed_basis,
one pipeline for every group).

The fields form a module of rank n over the ring Q[p] of the given invariant
generators p, under p's group: equivariant_module_generators,
express_equivariant and EquivariantGens all read the group off p.  The
module's generators come from the same degree loop as the invariant ring's
(invariants._graded_generators), checked against the trace-weighted Molien
series, and express_equivariant is the same solve as express
(invariants._express_over), both over the products p^a W_j.
"""

from __future__ import annotations

from typing import Sequence

from .actions import PSI, THETA, PolyVectorField, _require_invariant, fixed_basis, unpairing
from .groups import MatGroup
from .invariants import InvariantGens, _degree, _express_over, _graded_generators
from .linalg import Immutable
from .molien import molien_equivariant
from .poly import MultiPoly


def equivariant_basis(group: MatGroup, m: int) -> list[PolyVectorField]:
    """Basis of the homogeneous degree-m equivariant vector fields.

    Computed through the phase-polynomial route: the canonical basis of the
    phase-action fixed points among the x^alpha xi_i (the phase action
    preserves bidegree, so it maps them into themselves), read back off the
    xi coefficients.  The direct route (averaging vector-field monomials
    under the pushforward action) must span the same subspace; tests hold
    the two against each other.
    """
    return [unpairing(q) for q in fixed_basis(group, PSI, m)]


class EquivariantGens(Immutable):
    """Module generators for the equivariant fields over the invariant ring.

    The group is invariant_gens', and each degree is that of its homogeneous
    generator (invariants._degree).  `bound`, `stop` and `hsop` record how
    the degree loop ended, as on InvariantGens; hsop indexes the invariant
    generators.
    """

    __slots__ = ("group", "vgens", "degrees", "invariant_gens", "bound", "stop", "hsop")

    def __init__(
        self,
        vgens: Sequence[PolyVectorField],
        invariant_gens: InvariantGens,
        *,
        bound: int | None = None,
        stop: str | None = None,
        hsop: Sequence[int] | None = None,
    ) -> None:
        object.__setattr__(self, "group", invariant_gens.group)
        object.__setattr__(self, "vgens", tuple(vgens))
        object.__setattr__(self, "degrees", tuple(_degree(v.comps) for v in self.vgens))
        object.__setattr__(self, "invariant_gens", invariant_gens)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "hsop", None if hsop is None else tuple(hsop))

    def __len__(self) -> int:
        return len(self.vgens)

    def __repr__(self) -> str:
        return f"EquivariantGens({len(self.vgens)} generators, degrees={list(self.degrees)})"


def equivariant_module_generators(inv: InvariantGens, degree_bound: int | None = None) -> EquivariantGens:
    """Generators of the equivariant fields as a module over the ring inv
    generates, under inv's group.

    The rank-n case of invariants._graded_generators over that ring, so
    every field up to the bound is reached over it.  With no bound given,
    the loop runs to deg N_eq, N_eq(t) = M_eq(t) * prod (1 - t^d_i), for
    the first hsop theta among inv's generators that beats |G| - 1: the
    fields are free over Q[theta] with basis degrees counted by N_eq.
    Without one the bound is |G| - 1: a xi-linear generator of the phase
    invariants has total degree at most |G| by Noether's bound.
    """
    group = inv.group
    bound = group.order - 1 if degree_bound is None else degree_bound
    if bound < 0:
        raise ValueError("degree bound must be non-negative")
    vgens, bound, stop, hsop = _graded_generators(
        group, inv, molien_equivariant(group),
        lambda m: [(v, v.comps) for v in equivariant_basis(group, m)],
        bound, degree_bound is not None, ("equivariant space has", "module span has"))
    return EquivariantGens(vgens, inv, bound=bound, stop=stop, hsop=hsop)


def express_equivariant(eg: EquivariantGens, field: PolyVectorField) -> list[MultiPoly]:
    """Coefficients writing an equivariant field over the module generators.

    Returns one polynomial f_a in the k invariant-generator variables per
    module generator, with sum_a f_a(p(x)) V_a(x) == field(x) exactly, by
    the same solve as scalar expression (invariants._express_over): free
    coordinates are set to zero.
    """
    _require_invariant(eg.group, field, THETA, "field is not equivariant")
    inv = eg.invariant_gens
    ws = [v.comps for v in eg.vgens]
    return _express_over(inv, PSI, ws, [inv._table.columns(field.comps)], "module")[0]
