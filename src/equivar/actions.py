"""Group actions on polynomials, vector fields, and phase polynomials.

Three actions of a finite matrix group G < GL(n, Q) are implemented:

* on scalar polynomials:      (g . p)(x) = p(g^-1 x)
* on polynomial vector fields (pushforward): g . V = g (V o g^-1)
* on phase polynomials q(x, xi) in x_1..x_n, xi_1..xi_n:
                              (g . q)(x, xi) = q(g^-1 x, g^T xi)

The phase action restricts to the span of the xilinear_monomials (xi-degree
one), and under the pairing V <-> sum_i V_i(x) xi_i it matches the
pushforward action on vector fields, which lets the equivariants module
compute vector-field generators as fixed phase polynomials.

One integer engine acts: each generator keeps, on the group, the
poly.ProductTable of the linear forms of its substitution, whose columns are
the images of the monomials.  fixed_basis reads them for the canonical basis
of the fixed points of one degree, over the monomials it builds for it
(orbit sums of the monomial generators, cut down by the kernel of the
others), and is_invariant through ProductTable.substitute.  The act_*
functions and the Reynolds projector, which averages over the whole group,
stay in Fraction arithmetic as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimensionMismatch, NotXiLinear
from .groups import MatGroup
from .linalg import RatMatrix, block_diag, clear_denominators, kernel_rref
from .poly import Exponents, MultiPoly, ProductTable, monomials_of_degree

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
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    def mix(self, matrix: RatMatrix) -> "PolyVectorField":
        """Linear recombination of components: (M V)_i = sum_j M_ij V_j,
        summed over the nonzero entries M_ij only, so a signed permutation
        costs one scaling per component."""
        if matrix.rows != self.n or matrix.cols != self.n:
            raise DimensionMismatch("matrix size does not match field dimension")
        return PolyVectorField(
            [
                sum(
                    (self.comps[j] * m for j, m in enumerate(matrix.row(i)) if m),
                    MultiPoly.zero(self.n),
                )
                for i in range(self.n)
            ]
        )

    def __repr__(self) -> str:
        return "PolyVectorField(" + ", ".join(c.format() for c in self.comps) + ")"


# ---------------------------------------------------------------------------
# Phase polynomial helpers (2n variables: x block then xi block).


def pairing(field: PolyVectorField) -> MultiPoly:
    """The phase polynomial sum_i V_i(x) xi_i in 2n variables."""
    n = field.n
    out: dict[Exponents, Fraction] = {}
    for i, comp in enumerate(field.comps):
        for e, c in comp.sorted_terms():
            xi = tuple(int(j == i) for j in range(n))
            out[e + xi] = c
    return MultiPoly._of(2 * n, out)


def xilinear_monomials(n: int, m: int) -> list[Exponents]:
    """Monomials x^alpha xi_i with |alpha| = m, as 2n-exponent tuples, in
    descending graded-lex order on the full tuple: the x block dominates,
    and xi_1 outranks xi_2 within one alpha."""
    units = monomials_of_degree(n, 1)  # xi_1, ..., xi_n
    return [alpha + xi for alpha in monomials_of_degree(n, m) for xi in units]


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
    return PolyVectorField([MultiPoly._of(n, t) for t in comps])


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


def _check_fit(group: MatGroup, action: str, obj) -> None:
    """Raise DimensionMismatch unless the action acts on obj: theta on vector
    fields of dimension n, phi_dagger on polynomials in n variables and psi
    on phase polynomials in 2n."""
    if not isinstance(obj, PolyVectorField if action == THETA else MultiPoly):
        raise DimensionMismatch(f"action {action} does not act on a {type(obj).__name__}")
    n = group.n
    if action == THETA and obj.n != n:
        raise DimensionMismatch(f"field dimension {obj.n}, group acts on {n}")
    if action == PHI_DAGGER and obj.nvars != n:
        raise DimensionMismatch(f"polynomial has {obj.nvars} variables, group acts on {n}")
    if action == PSI and obj.nvars != 2 * n:
        raise DimensionMismatch(f"phase polynomial has {obj.nvars} variables, expected {2 * n}")


def act_phi_dagger(group: MatGroup, g: int, p: MultiPoly) -> MultiPoly:
    """(g . p)(x) = p(g^-1 x)."""
    _check_fit(group, PHI_DAGGER, p)
    return p.compose_linear(_substitution_matrix(group, PHI_DAGGER, g))


def act_theta(group: MatGroup, g: int, field: PolyVectorField) -> PolyVectorField:
    """Pushforward g . V = g (V o g^-1)."""
    _check_fit(group, THETA, field)
    inv = group.matrix(group.inverse_index(g))
    substituted = PolyVectorField([c.compose_linear(inv) for c in field.comps])
    return substituted.mix(group.matrix(g))


def act_psi(group: MatGroup, g: int, q: MultiPoly) -> MultiPoly:
    """(g . q)(x, xi) = q(g^-1 x, g^T xi).

    Both blocks transform linearly, so this preserves the bidegree
    (x-degree, xi-degree) of every term.
    """
    _check_fit(group, PSI, q)
    return q.compose_linear(_substitution_matrix(group, PSI, g))


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
    act = {PHI_DAGGER: act_phi_dagger, THETA: act_theta, PSI: act_psi}.get(action)
    if act is None:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    acc = act(group, 0, obj)  # index 0 is the identity
    for g in range(1, group.order):
        acc = acc + act(group, g, obj)
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


def _monomial_forms(group: MatGroup, action: str) -> dict[int, tuple | None]:
    """The _monomial_form of each generator's substitution matrix, by index.
    Memoised on the group, as _table is, so no degree rebuilds them."""
    key = ("forms", action)
    if key not in group._derived:
        group._derived[key] = {
            g: _monomial_form(_substitution_matrix(group, action, g)) for g in group.gen_indices
        }
    return group._derived[key]


def _orbit_sums(forms, monos: Sequence[Exponents]) -> list[list[tuple[int, int | Fraction]]]:
    """Fixed-space basis of monomial substitutions: one sum per orbit, as
    (index into monos, coefficient) pairs, in the order of its first monomial.

    Substituting x_i -> a_i x_j(i) sends x^e to c x^e', so p is fixed exactly
    when coef[e'] == c coef[e] for every generator and every e.  Each orbit
    is walked from its first monomial in `monos`, with coefficient 1 there
    and the others forced by that rule; an orbit that forces two different
    coefficients on one monomial carries no fixed vector.

    The coefficients are Python ints as long as the entries a_i are: each
    entry with denominator 1 is read as an int, and only the others stay
    Fractions.  A factor a_i = 1 is skipped.
    """
    nvars = len(monos[0])
    forms = [[(j, a.numerator if a.denominator == 1 else a) for j, a in form] for form in forms]
    index = {e: j for j, e in enumerate(monos)}
    seen: set[Exponents] = set()
    out = []
    for lead in monos:
        if lead in seen:
            continue
        coef = {lead: 1}
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
                        if a != 1:
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
            out.append([(index[e], c) for e, c in coef.items()])
    return out


def _table(group: MatGroup, action: str, g: int) -> ProductTable:
    """The ProductTable of the linear forms (M v)_i, M the substitution
    matrix of generator g: the column of v^a is the image g . v^a, so
    substitute(q) is g . q.  Memoised on the group, so the fixed spaces and
    the invariance checks read the same columns at every degree."""
    key = ("table", action, g)
    if key not in group._derived:
        m = _substitution_matrix(group, action, g)
        unit = monomials_of_degree(m.rows, 1)
        forms = [MultiPoly(m.rows, zip(unit, m.row(i))) for i in range(m.rows)]
        group._derived[key] = ProductTable(m.rows, forms)
    return group._derived[key]


def _restricted_columns(group: MatGroup, action: str, g: int, d: int, sums) -> list[list[int]]:
    """The integer columns of a positive multiple of (rho_d(g) - I) S, S the
    integer sums (pairs of index and coefficient) as columns.

    The image of x^alpha is the column of alpha in the table of generator g,
    over the lcm of the degree's denominators.  Under the phase action, that
    of x^alpha xi_i is (g^-1 . x^alpha) (g^T xi)_i: over fixed_basis's
    alpha-major xilinear_monomials, the Kronecker product of that column with
    row i of E g^T, E the lcm of g^T's denominators.
    """
    table = _table(group, PHI_DAGGER, g)
    cols = [table.column(alpha) for alpha in table.monomials(d)]
    scale = lcm(*(den for _, den in cols))
    images = [nums if den == scale else [x * (scale // den) for x in nums] for nums, den in cols]
    if action == PSI:
        n = group.n
        t_den, t = group.matrix(g).integer_form()
        rows = [t[i::n] for i in range(n)]  # row i of E g^T is column i of E g
        images = [[x * c for x in col for c in row] for col in images for row in rows]
        scale *= t_den
    out = []
    for s in sums:
        (j, c), *rest = s
        col = list(images[j]) if c == 1 else [c * x for x in images[j]]
        for j, c in rest:
            col = [y + c * x for y, x in zip(col, images[j])]
        for j, c in s:
            col[j] -= c * scale
        out.append(col)
    return out


def fixed_basis(group: MatGroup, action: str, d: int) -> list[MultiPoly]:
    """Basis of the degree-d polynomials fixed by a substitution action.

    The columns are monomials_of_degree(n, d) under phi_dagger and
    xilinear_monomials(n, d) under psi.  The result is the unique reduced row
    echelon basis over them, so it equals the rref of the Reynolds averages
    of the monomials ([1] at d = 0).  It comes from the generators alone: the
    orbit sums of the monomial generators (one nonzero per row; with none,
    every monomial is its own sum), then the common kernel, over those sums,
    of (rho_d(g) - I) S for the other generators (_restricted_columns).  The
    sums have disjoint supports, are monic on their first monomials and come
    in that order, so the rref kernel over them expands to the rref basis.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    monos = (monomials_of_degree if action == PHI_DAGGER else xilinear_monomials)(group.n, d)
    forms = _monomial_forms(group, action)
    sums = _orbit_sums([f for f in forms.values() if f is not None], monos)
    nums = iter(clear_denominators([c for s in sums for _, c in s])[1])
    int_sums = [[(j, next(nums)) for j, _ in s] for s in sums]
    others = [g for g, f in forms.items() if f is None]
    rows = [r for g in others for r in zip(*_restricted_columns(group, action, g, d, int_sums))]
    return [
        MultiPoly._of(len(monos[0]), {monos[j]: x * c for x, s in zip(v, sums) if x for j, c in s})
        for v in kernel_rref(rows, len(sums))
    ]


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
    Each image g . obj is read off the generator's table (_table).  Raises
    DimensionMismatch, before any image, when the action does not act on obj
    (_check_fit): on its type or on its size.
    """
    if action is None:
        action = infer_action(group, obj)
    _check_fit(group, action, obj)
    for g in group.gen_indices:
        if action == THETA:  # the pushforward g (V o g^-1) is (g V) o g^-1
            table = _table(group, PHI_DAGGER, g)
            moved = PolyVectorField([table.substitute(c) for c in obj.mix(group.matrix(g)).comps])
        else:
            moved = _table(group, action, g).substitute(obj)
        if moved != obj:
            return InvarianceCheck(False, g, obj - moved)
    return InvarianceCheck(True)
