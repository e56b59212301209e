"""Group actions on polynomials, vector fields, and phase polynomials.

Three actions of a finite matrix group G < GL(n, Q) are implemented:

* on scalar polynomials:      (g . p)(x) = p(g^-1 x)
* on polynomial vector fields (pushforward): g . V = g (V o g^-1)
* on phase polynomials q(x, xi) in x_1..x_n, xi_1..xi_n:
                              (g . q)(x, xi) = q(g^-1 x, g^T xi)

The phase action restricts to polynomials of xi-degree one, and under the
pairing V <-> sum_i V_i(x) xi_i it matches the pushforward action on vector
fields.  That correspondence is what lets the equivariants module compute
vector-field generators as fixed phase polynomials.

fixed_basis gives the canonical basis of the fixed points among the
polynomials of one degree, from the group generators alone: orbit sums when
every generator is a monomial matrix, otherwise the common kernel of
rho_d(g) - I over the generators, read in integers off a poly.ProductTable
of the linear forms of x -> g^-1 x.  Averaging over the whole group (the
Reynolds projector) lands on the same fixed points; it stays public, and the
tests use it as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimensionMismatch, NotXiLinear
from .groups import MatGroup
from .linalg import RatMatrix, block_diag, kernel_rref
from .poly import Exponents, MultiPoly, ProductTable, monomials_of_degree, vector_to_poly

PHI_DAGGER = "phi_dagger"
THETA = "theta"
PSI = "psi"
ACTIONS = (PHI_DAGGER, THETA, PSI)


class PolyVectorField:
    """An n-tuple of polynomials in n variables, read as a vector field."""

    __slots__ = ("n", "comps")

    def __init__(self, comps: Sequence[MultiPoly]) -> None:
        comps = tuple(comps)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        n = len(comps)
        for c in comps:
            if c.nvars != n:
                raise DimensionMismatch(
                    f"component has {c.nvars} variables, expected {n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    @classmethod
    def zero(cls, n: int) -> "PolyVectorField":
        return cls([MultiPoly.zero(n)] * n)

    def __getitem__(self, i: int) -> MultiPoly:
        return self.comps[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self) -> int:
        return hash(self.comps)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("vector fields live in different dimensions")
        return PolyVectorField([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField([-c for c in self.comps])

    def scale(self, factor: MultiPoly | int | Fraction) -> "PolyVectorField":
        """Multiply every component by a scalar or a polynomial."""
        return PolyVectorField([c * factor for c in self.comps])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def total_degree(self) -> int:
        return max(c.total_degree() for c in self.comps)

    def is_homogeneous(self) -> bool:
        degs = {c.total_degree() for c in self.comps if not c.is_zero}
        return len(degs) <= 1 and all(c.is_homogeneous() for c in self.comps)

    def homogeneous_part(self, degree: int) -> "PolyVectorField":
        return PolyVectorField([c.homogeneous_part(degree) for c in self.comps])

    def evaluate(self, point: Sequence) -> tuple[Fraction, ...]:
        return tuple(c.evaluate(point) for c in self.comps)

    def mix(self, matrix: RatMatrix) -> "PolyVectorField":
        """Linear recombination of components: (M V)_i = sum_j M_ij V_j."""
        if matrix.rows != self.n or matrix.cols != self.n:
            raise DimensionMismatch("matrix size does not match field dimension")
        return PolyVectorField(
            [
                sum(
                    (self.comps[j] * matrix[i, j] for j in range(self.n)),
                    MultiPoly.zero(self.n),
                )
                for i in range(self.n)
            ]
        )

    def __repr__(self) -> str:
        return "PolyVectorField(" + ", ".join(c.format() for c in self.comps) + ")"


# ---------------------------------------------------------------------------
# Phase polynomial helpers (2n variables: x block then xi block).


def phase_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)]


def xi_degree(exps: Exponents, n: int) -> int:
    return sum(exps[n:])


def is_xi_linear(q: MultiPoly) -> bool:
    """True when every term of q has xi-degree exactly one."""
    if q.nvars % 2 != 0:
        return False
    n = q.nvars // 2
    return all(xi_degree(e, n) == 1 for e, _ in q.sorted_terms())


def pairing(field: PolyVectorField) -> MultiPoly:
    """The phase polynomial sum_i V_i(x) xi_i in 2n variables."""
    n = field.n
    out: dict[Exponents, Fraction] = {}
    for i, comp in enumerate(field.comps):
        for e, c in comp.sorted_terms():
            xi = tuple(int(j == i) for j in range(n))
            out[e + xi] = c
    return MultiPoly(2 * n, out)


def unpairing(q: MultiPoly) -> PolyVectorField:
    """Inverse of pairing; requires q to be linear in the xi block."""
    if q.nvars % 2 != 0:
        raise DimensionMismatch("phase polynomial must have an even variable count")
    n = q.nvars // 2
    comps: list[dict[Exponents, Fraction]] = [{} for _ in range(n)]
    for e, c in q.sorted_terms():
        xi_block = e[n:]
        if sum(xi_block) != 1:
            raise NotXiLinear(f"term {e} has xi-degree {sum(xi_block)}, expected 1")
        i = xi_block.index(1)
        comps[i][e[:n]] = c
    return PolyVectorField([MultiPoly(n, t) for t in comps])


# ---------------------------------------------------------------------------
# The actions themselves.


def _substitution_matrix(group: MatGroup, action: str, g: int) -> RatMatrix:
    """M with (g . q)(v) = q(M v), for the two actions that are substitutions."""
    inv = group.matrix(group.inverse_index(g))
    if action == PHI_DAGGER:
        return inv
    if action == PSI:
        return block_diag(inv, group.matrix(g).transpose())
    raise ValueError(f"action {action!r} is not a substitution; expected {PHI_DAGGER} or {PSI}")


def act_phi_dagger(group: MatGroup, g: int, p: MultiPoly) -> MultiPoly:
    """(g . p)(x) = p(g^-1 x)."""
    if p.nvars != group.n:
        raise DimensionMismatch(f"polynomial has {p.nvars} variables, group acts on {group.n}")
    return p.compose_linear(_substitution_matrix(group, PHI_DAGGER, g))


def act_theta(group: MatGroup, g: int, field: PolyVectorField) -> PolyVectorField:
    """Pushforward g . V = g (V o g^-1)."""
    if field.n != group.n:
        raise DimensionMismatch(f"field dimension {field.n}, group acts on {group.n}")
    inv = group.matrix(group.inverse_index(g))
    substituted = PolyVectorField([c.compose_linear(inv) for c in field.comps])
    return substituted.mix(group.matrix(g))


def act_psi(group: MatGroup, g: int, q: MultiPoly) -> MultiPoly:
    """(g . q)(x, xi) = q(g^-1 x, g^T xi).

    Both blocks transform linearly, so this preserves the bidegree
    (x-degree, xi-degree) of every term.
    """
    if q.nvars != 2 * group.n:
        raise DimensionMismatch(
            f"phase polynomial has {q.nvars} variables, expected {2 * group.n}"
        )
    return q.compose_linear(_substitution_matrix(group, PSI, g))


def _act(group: MatGroup, action: str, g: int, obj):
    if action == PHI_DAGGER:
        return act_phi_dagger(group, g, obj)
    if action == THETA:
        return act_theta(group, g, obj)
    if action == PSI:
        return act_psi(group, g, obj)
    raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")


def infer_action(group: MatGroup, obj) -> str:
    if isinstance(obj, PolyVectorField):
        return THETA
    if isinstance(obj, MultiPoly):
        if obj.nvars == group.n:
            return PHI_DAGGER
        if obj.nvars == 2 * group.n:
            return PSI
    raise DimensionMismatch(f"cannot infer an action for {obj!r} on a group of dimension {group.n}")


def reynolds(group: MatGroup, action: str, obj):
    """Group average (1/|G|) sum_g g.obj: the projector onto fixed points.

    Idempotent, and the identity on objects already fixed by the action.
    The sum runs in element order, so output is deterministic.
    """
    acc = _act(group, action, 0, obj)  # index 0 is the identity
    for g in range(1, group.order):
        acc = acc + _act(group, action, g, obj)
    factor = Fraction(1, group.order)
    if isinstance(acc, PolyVectorField):
        return acc.scale(factor)
    return acc * factor


def _monomial_form(m: RatMatrix) -> tuple[tuple[int, Fraction], ...] | None:
    """(column, entry) of the single nonzero in each row, or None when some
    row of m has more than one nonzero entry."""
    form = []
    for i in range(m.rows):
        nonzero = [(j, c) for j, c in enumerate(m.row(i)) if c != 0]
        if len(nonzero) != 1:
            return None
        form.append(nonzero[0])
    return tuple(form)


def _orbit_sums(forms, monos: Sequence[Exponents]) -> list[MultiPoly]:
    """Fixed-space basis of monomial substitutions: one sum per orbit.

    Substituting x_i -> a_i x_j(i) sends x^e to c x^e', so p is fixed exactly
    when coef[e'] == c coef[e] for every generator and every e.  Each orbit
    is walked from its first monomial in `monos`, with coefficient 1 there
    and the others forced by that rule; an orbit that forces two different
    coefficients on one monomial carries no fixed vector.
    """
    nvars = len(monos[0])
    seen: set[Exponents] = set()
    out = []
    for lead in monos:
        if lead in seen:
            continue
        coef = {lead: Fraction(1)}
        stack = [lead]
        cancels = False
        while stack:
            e = stack.pop()
            ce = coef[e]
            for form in forms:
                exps = [0] * nvars
                c = ce
                for (j, a), k in zip(form, e):
                    if k:
                        exps[j] = k
                        c *= a**k
                image = tuple(exps)
                old = coef.get(image)
                if old is None:
                    coef[image] = c
                    stack.append(image)
                elif old != c:
                    cancels = True
        seen.update(coef)
        if not cancels:
            out.append(MultiPoly(nvars, coef))
    return out


def _integer_forms(m: RatMatrix, lo: int, n: int) -> tuple[list[list[int]], int]:
    """D times the n x n block of m at rows and columns lo..lo+n-1, as integer
    rows, and D, the lcm of the block's denominators."""
    rows = [m.row(i)[lo : lo + n] for i in range(lo, lo + n)]
    den = lcm(*(c.denominator for r in rows for c in r))
    return [[c.numerator * (den // c.denominator) for c in r] for r in rows], den


def _integer_block(m: RatMatrix, n: int, d: int) -> list[list[int]]:
    """The rows of an integer multiple of rho_d(M) - I, M the substitution
    matrix of a generator, over the monomials that fixed_basis is given.

    x^alpha maps to l^alpha / D^d, with D the lcm of the denominators of the
    x block and l_i = (D M x)_i, so rho_d(D M) is read off the ProductTable
    of the n integer linear forms l_i.  Under the phase action (M of size 2n)
    x^alpha xi_i maps to (g^-1 . x^alpha) (g^T xi)_i, so over the alpha-major
    xilinear_monomials the block is the Kronecker product of the x block with
    E g^T, the xi block of M cleared by its lcm E.
    """
    forms, den = _integer_forms(m, 0, n)
    table = ProductTable(n, [MultiPoly(n, zip(monomials_of_degree(n, 1), f)) for f in forms])
    cols = [table.column(alpha)[0] for alpha in table.monomials(d)]
    block = [list(r) for r in zip(*cols)]
    scale = den**d
    if m.rows == 2 * n:
        t, t_den = _integer_forms(m, n, n)
        block = [[c * t[i][k] for c in row for i in range(n)] for row in block for k in range(n)]
        scale *= t_den
    for j, row in enumerate(block):
        row[j] -= scale
    return block


def fixed_basis(group: MatGroup, action: str, monos: Sequence[Exponents]) -> list[MultiPoly]:
    """Basis of the polynomials in span(monos) fixed by a substitution action.

    `monos` lists the columns in descending graded-lex order and must be
    mapped into itself by the action (all monomials of one degree, or the
    xi-linear ones of one bidegree).  The result is the reduced row echelon
    basis over those columns: each element monic on its leading monomial,
    zero on every other element's leading monomial, in column order.  That
    basis is unique, so the two routes below agree exactly, and agree with
    row-reducing the Reynolds average of every monomial.

    Both routes use the generators only, never the whole group.  When every
    generator acts by a monomial matrix (one nonzero per row, e.g. signed
    permutations), the fixed space is spanned by orbit sums, with disjoint
    supports, so the monic sums already form the echelon basis.  Otherwise
    it is the common kernel of rho_d(g) - I over the generators, with
    rho_d(g) the action's matrix on span(monos), found in integer
    arithmetic (see _integer_block).  That route needs `monos` to be all of
    monomials_of_degree(n, d), or of xilinear_monomials(n, d), in order.
    """
    mats = [_substitution_matrix(group, action, g) for g in group.gen_indices]
    forms = [_monomial_form(m) for m in mats]
    if all(f is not None for f in forms):
        return _orbit_sums(forms, monos)
    d = sum(monos[0][: group.n])
    rows = [row for m in mats for row in _integer_block(m, group.n, d)]
    return [vector_to_poly(v, monos, mats[0].rows) for v in kernel_rref(rows, len(monos))]


class InvarianceCheck:
    """Outcome of an invariance test, truthy iff invariant.

    On failure carries the first violating generator index and the exact
    difference (original object minus acted object).
    """

    __slots__ = ("invariant", "generator_index", "difference")

    def __init__(self, invariant: bool, generator_index: int | None = None, difference=None) -> None:
        self.invariant = invariant
        self.generator_index = generator_index
        self.difference = difference

    def __bool__(self) -> bool:
        return self.invariant

    def __repr__(self) -> str:
        if self.invariant:
            return "InvarianceCheck(invariant=True)"
        return (
            f"InvarianceCheck(invariant=False, generator_index={self.generator_index}, "
            f"difference={self.difference!r})"
        )


def is_invariant(group: MatGroup, obj, action: str | None = None) -> InvarianceCheck:
    """Check fixedness under the action of every generator.

    Generator invariance suffices for full invariance because each action is
    a group homomorphism, and it costs O(#generators) instead of O(|G|).
    """
    if action is None:
        action = infer_action(group, obj)
    for g in group.gen_indices:
        moved = _act(group, action, g, obj)
        if moved != obj:
            return InvarianceCheck(False, g, obj - moved)
    return InvarianceCheck(True)
