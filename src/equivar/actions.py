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

A generator whose substitution has one nonzero per row (a monomial
generator) sends each term to one term, x_i -> a_i x_j(i).  Its images are
relabelled terms: the orbit sums of the monomial generators, which fix an
invariant's coefficients along each orbit of monomials, and is_invariant's
images of them.  Both read one _relabelling per generator and action, built
from its substitution matrix once and kept on the group (_relabellings),
which is None for the other generators.  Every other generator keeps, on the
group, the poly.ProductTable of the linear forms of its substitution, whose
columns are the images of the monomials.  fixed_basis gives the canonical
basis of the fixed points of one degree, over the monomials it builds for it
(orbit sums, cut down by the kernel of the other generators' columns), and
leader_rows the first monomial of each orbit sum: the rows on which a linear
system over fixed polynomials can be solved.  The act_* functions and the
Reynolds projector, which averages over the whole group, stay in
Fraction arithmetic as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm
from typing import Sequence

from .errors import DimensionMismatch, NotInvariant, NotXiLinear
from .groups import MatGroup
from .linalg import Immutable, RatMatrix, block_diag, clear_denominators, kernel_rref
from .poly import Exponents, MultiPoly, ProductTable, _monomial_table

PHI_DAGGER = "phi_dagger"
THETA = "theta"
PSI = "psi"
ACTIONS = (PHI_DAGGER, THETA, PSI)


class PolyVectorField(Immutable):
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
        summed over the nonzero entries M_ij only, and an entry 1 takes V_j
        as it is, so a permutation copies no component and a signed one
        scales only those with entry -1."""
        if matrix.rows != self.n or matrix.cols != self.n:
            raise DimensionMismatch("matrix size does not match field dimension")
        comps = []
        for i in range(self.n):
            parts = [self.comps[j] if m == 1 else self.comps[j] * m for j, m in enumerate(matrix.row(i)) if m]
            comps.append(sum(parts[1:], parts[0]) if parts else MultiPoly.zero(self.n))
        return PolyVectorField(comps)

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
    units = _monomial_table(n, 1)[0]  # xi_1, ..., xi_n
    return [alpha + xi for alpha in _monomial_table(n, m)[0] for xi in units]


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
    inv = group.inverse(g)
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
    inv = group.inverse(g)
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
    """The action that acts on obj: theta on a vector field, phi_dagger on a
    polynomial in n variables and psi on a phase polynomial, in 2n."""
    if isinstance(obj, PolyVectorField):
        return THETA
    if not isinstance(obj, MultiPoly):
        raise DimensionMismatch(f"no action acts on a {type(obj).__name__}")
    n = group.n
    if obj.nvars == n:
        return PHI_DAGGER
    if obj.nvars == 2 * n:
        return PSI
    raise DimensionMismatch(
        f"polynomial has {obj.nvars} variables, group acts on {n} ({2 * n} for a phase polynomial)")


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


def _relabelling(m: RatMatrix) -> tuple[list[int], list[tuple[int, int | Fraction]]] | None:
    """The substitution x_i -> a_i x_j(i) of a matrix m with one nonzero per
    row, as (src, scaled): the image of x^e has exponent e[src[j]] at j, and
    its coefficient is multiplied by a_i**e_i for each (i, a_i) in scaled,
    the entries other than 1, each read as an int when its denominator is 1.
    None when some row of m has more than one nonzero entry."""
    src = [0] * m.rows
    scaled = []
    for i in range(m.rows):
        nonzero = [(j, a) for j, a in enumerate(m.row(i)) if a != 0]
        if len(nonzero) != 1:
            return None
        (j, a), = nonzero
        src[j] = i
        if a != 1:
            scaled.append((i, a.numerator if a.denominator == 1 else a))
    return src, scaled


def _relabellings(group: MatGroup, action: str) -> dict[int, tuple | None]:
    """The _relabelling of each generator's substitution matrix, by index.
    Memoised on the group, as _table is, so no degree rebuilds them."""
    return group.derived(("relabellings", action), lambda: {
        g: _relabelling(_substitution_matrix(group, action, g)) for g in group.gen_indices
    })


def _image(relabelling, e: Exponents, c):
    """The term c x^e after a _relabelling: one term c' x^e', as (e', c')."""
    src, scaled = relabelling
    for i, a in scaled:
        if e[i]:
            c *= a ** e[i]
    return tuple(map(e.__getitem__, src)), c


def _relabel(relabelling, q: MultiPoly) -> MultiPoly:
    """q after a _relabelling, term by term (_image): it permutes the
    variables, so distinct terms stay distinct."""
    return MultiPoly._of(q.nvars, dict(_image(relabelling, e, c) for e, c in q._terms.items()))


def _orbit_sums(relabellings, monos: Sequence[Exponents]) -> list[list[tuple[int, int | Fraction]]]:
    """Fixed-space basis of monomial substitutions: one sum per orbit, as
    (index into monos, coefficient) pairs, in the order of its first monomial.

    Substituting x_i -> a_i x_j(i) sends x^e to c x^e' (_image), so p is
    fixed exactly when coef[e'] == c coef[e] for every generator and every e.
    Each orbit is walked from its first monomial in `monos`, with
    coefficient 1 there and the others forced by that rule; an orbit that
    forces two different coefficients on one monomial carries no fixed vector.

    The coefficients are Python ints as long as the entries a_i are: each
    entry with denominator 1 is read as an int (_relabelling), and only the
    others stay Fractions.
    """
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
            for relabelling in relabellings:
                image, c = _image(relabelling, e, coef[e])
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


def _sums(group: MatGroup, action: str, d: int):
    """The degree-d monomials of a substitution action (monomials_of_degree
    under phi_dagger, xilinear_monomials under psi) and the orbit sums of
    its monomial generators over them.  Memoised on the group, so
    fixed_basis and leader_rows share one walk."""
    def walk():
        monos = _monomial_table(group.n, d)[0] if action == PHI_DAGGER else xilinear_monomials(group.n, d)
        relabellings = [r for r in _relabellings(group, action).values() if r is not None]
        return monos, _orbit_sums(relabellings, monos)

    return group.derived(("sums", action, d), walk)


def leader_rows(group: MatGroup, action: str, d: int) -> list[int]:
    """The index of each orbit sum's first monomial among the degree-d
    monomials of the action (_sums): under psi that of x^alpha xi_i is
    alpha * n + i.  Every monomial when no generator is monomial.

    A polynomial fixed by the monomial generators is a combination of
    their orbit sums, each monic on its first monomial and zero on the
    orbits that cancel, so its coefficients at these rows determine it:
    restricting a linear system over fixed polynomials to them loses no
    equation.
    """
    return [s[0][0] for s in _sums(group, action, d)[1]]


def _table(group: MatGroup, action: str, g: int) -> ProductTable:
    """The ProductTable of the linear forms (M v)_i, M the substitution
    matrix of generator g: the column of v^a is the image g . v^a, so
    substitute(q) is g . q.  Built only for a generator that is not
    monomial, whose images the orbit sums and _relabel do not give, and
    memoised on the group, so the fixed spaces and the invariance checks
    read the same columns at every degree."""
    def build():
        m = _substitution_matrix(group, action, g)
        unit = _monomial_table(m.rows, 1)[0]
        forms = [MultiPoly(m.rows, zip(unit, m.row(i))) for i in range(m.rows)]
        return ProductTable(m.rows, forms)

    return group.derived(("table", action, g), build)


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
    cols = [table.column(alpha) for alpha in _monomial_table(group.n, d)[0]]
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
    monos, sums = _sums(group, action, d)
    nums = iter(clear_denominators([c for s in sums for _, c in s])[1])
    int_sums = [[(j, next(nums)) for j, _ in s] for s in sums]
    others = [g for g, r in _relabellings(group, action).items() if r is None]
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
    The image g . obj of a monomial generator (one nonzero per row of its
    substitution) relabels the terms, x_i -> a_i x_j(i), as the orbit sums
    do (_relabel); that of any other generator is read off its table
    (_table).  Under theta the substitution acts on the components of the
    mixed field g V.  Raises DimensionMismatch, before any image, when the
    action does not act on obj (_check_fit): on its type or on its size.
    """
    if action is None:
        action = infer_action(group, obj)
    _check_fit(group, action, obj)
    sub = PHI_DAGGER if action == THETA else action
    relabellings = _relabellings(group, sub)
    for g in group.gen_indices:
        relabelling = relabellings[g]
        if relabelling is None:
            move = _table(group, sub, g).substitute
        else:
            move = partial(_relabel, relabelling)
        if action == THETA:  # the pushforward g (V o g^-1) is (g V) o g^-1
            moved = PolyVectorField([move(c) for c in obj.mix(group.matrix(g)).comps])
        else:
            moved = move(obj)
        if moved != obj:
            return InvarianceCheck(False, g, obj - moved)
    return InvarianceCheck(True)


def _require_invariant(group: MatGroup, obj, action: str, message: str) -> None:
    """The one refusal of input that is not invariant: NotInvariant with
    message.format(obj), formatted only then, the first failing generator
    and the exact difference."""
    chk = is_invariant(group, obj, action)
    if not chk:
        raise NotInvariant(message.format(obj), chk.generator_index, chk.difference)
