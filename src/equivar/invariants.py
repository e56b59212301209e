"""The invariant ring and the graded modules over it: generators,
expression and relations.

One degree loop (_graded_generators) builds both outputs of the library:
the invariant ring, a module of rank 1 over itself generated by 1, and the
equivariant fields, a module of rank n over the ring of given invariants.
At each degree it spans the products p^a W_j of ring generators and module
generators first.  Only where they fall short of the Molien coefficient does
it take the canonical fixed-space basis (actions.fixed_basis), check its size
against the series, and keep whatever the products fail to span.  It stops at
the bound an hsop certificate gives (find_hsop: n generators whose ideal
contains every monomial of one degree, so the module is free over them and
its Molien series says in which degrees its basis lies), or at Noether's
bound when no certificate beats it.

One product builder (_module_products) gives those products as integer
columns, each from the ring's poly.ProductTable: the coefficient column of
p^a, memoised by a and built from a cached column times one generator, and
W_j's degree read off its components (_degree).  One solve (_express_over)
writes elements over the same columns, for express, reduction and
express_equivariant, and relations takes the kernel of the rank-1 columns.
Both pose their systems on the leader rows of the monomial generators'
orbits (actions.leader_rows) alone, since every column and every target is
fixed by the group; the degree loop keeps every row, since its span's rank
is the check on the fixed spaces.

Polynomials in the generators themselves ("P-polynomials") are ordinary
MultiPoly values in k variables, where variable i stands for generator i and
carries its weighted degree.  The tie-break whenever a linear solve over
P-monomials is underdetermined: candidate monomials are ordered by descending
graded-lex on P-exponents and free coordinates are set to zero, so solutions
prefer lexicographically later products.  One order, used everywhere,
keeps outputs identical across runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .actions import PHI_DAGGER, _require_invariant, fixed_basis, leader_rows
from .errors import DimensionMismatchWithMolien, NoSolution
from .groups import MatGroup
from .linalg import Echelon, Immutable, SparseEchelon, clear_denominators, kernel_basis, solve_free_zero
from .molien import MolienSeries, molien
from .poly import Exponents, MultiPoly, ProductTable, _monomial_table, _packed, _weighted_monomials


class InvariantGens(Immutable):
    """An ordered generating set for the invariant ring of a group.

    Generators are homogeneous, monic in graded-lex, and sorted by degree,
    then by descending leading monomial.  The Hilbert map sends a point x to
    the tuple of generator values; its image models the orbit space.

    The degrees are read off the generators, through their ProductTable, so
    each must be homogeneous of positive degree (ValueError otherwise).
    A computed set records how its degree loop ended: `bound` is the last
    degree it ran, `stop` the rule that ended it ("noether", "hsop" or
    "explicit"), and `hsop` the indices of the generators that certified the
    bound when the rule is "hsop".  Generators read from elsewhere carry None.
    """

    __slots__ = ("group", "gens", "degrees", "bound", "stop", "hsop", "_table")

    def __init__(
        self,
        group: MatGroup,
        gens: Sequence[MultiPoly],
        *,
        bound: int | None = None,
        stop: str | None = None,
        hsop: Sequence[int] | None = None,
    ) -> None:
        for p in gens:
            _check_generator(p)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "_table", ProductTable(group.n, self.gens))
        object.__setattr__(self, "degrees", tuple(self._table.degrees))
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "hsop", None if hsop is None else tuple(hsop))

    @classmethod
    def from_polys(cls, group: MatGroup, polys: Sequence[MultiPoly]) -> "InvariantGens":
        """Wrap explicit generators, validating invariance and homogeneity of
        positive degree: a constant generates nothing and has weight 0."""
        checked = []
        for p in polys:
            _check_generator(p)
            _require_invariant(group, p, PHI_DAGGER, "generator {!r} is not invariant")
            checked.append(p.monic())
        checked.sort(key=lambda p: (p.total_degree(), tuple(-e for e in p.leading_term()[0])))
        return cls(group, checked)

    @property
    def k(self) -> int:
        return len(self.gens)

    def hilbert_map(self, point: Sequence) -> tuple[Fraction, ...]:
        """sigma(x) = (p_1(x), ..., p_k(x)), exactly."""
        return tuple(p.evaluate(point) for p in self.gens)

    def substitute(self, f: MultiPoly) -> MultiPoly:
        """f(p_1, ..., p_k) in the original variables (ProductTable.substitute)."""
        if f.nvars != self.k:
            raise ValueError(f"expected a polynomial in {self.k} generator variables")
        return self._table.substitute(f)

    def __repr__(self) -> str:
        inner = ", ".join(g.format() for g in self.gens)
        return f"InvariantGens([{inner}], degrees={list(self.degrees)})"


def _check_generator(p: MultiPoly) -> None:
    """ValueError unless p is homogeneous of positive degree: a constant
    generates nothing and has weight 0, and the product table files the
    columns of a generator under its one degree."""
    if p.is_zero or not p.is_homogeneous() or not p.total_degree():
        raise ValueError(f"generator {p!r} is not homogeneous of positive degree")


def invariant_basis(group: MatGroup, degree: int) -> list[MultiPoly]:
    """Basis of the degree-d invariant polynomials.

    The reduced row echelon basis over the degree-d monomials in descending
    graded-lex order (see actions.fixed_basis), so each basis element is
    monic on its pivot monomial and the output is canonical.
    """
    return fixed_basis(group, PHI_DAGGER, degree)


def invariant_ring_generators(
    group: MatGroup, degree_bound: int | None = None
) -> InvariantGens:
    """Generating set of the invariant ring up to the degree bound.

    The rank-1 case of _graded_generators.  With no bound given, the loop
    ends at the bound an hsop among the generators found so far certifies,
    or else at |G|, Noether's bound: in characteristic zero the invariant
    ring of a finite group is generated in degrees at most the group order.
    An explicit bound is run as given.
    """
    bound = group.order if degree_bound is None else degree_bound
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    table = ProductTable(group.n)
    gens, bound, stop, hsop = _graded_generators(
        group, None, molien(group), lambda d: [(b, [b]) for b in invariant_basis(group, d)],
        bound, degree_bound is not None, ("fixed space has", "generator products span"), table)
    inv = InvariantGens(group, gens, bound=bound, stop=stop, hsop=hsop)
    if table._gens != inv._table._gens:
        raise RuntimeError("internal: the loop's product table is not over the generators in order")
    object.__setattr__(inv, "_table", table)  # with the columns the loop memoised
    return inv


def _graded_generators(
    group: MatGroup, inv: InvariantGens | None, series: MolienSeries, basis, bound: int,
    explicit: bool, nouns: tuple[str, str], ring_table: ProductTable | None = None,
) -> tuple[list, int, str, tuple[int, ...] | None]:
    """The one degree loop: generators of a graded module of rank r over the
    ring Q[p] of some invariants p, up to a degree bound.

    With inv None the module is the invariant ring, of rank 1 and generated
    by 1, and new elements join the ring and ring_table, which starts empty;
    otherwise the ring is inv's, r = n, and new elements join the module.  At
    each degree d the products p^a W_j come first.  Only where their rank
    falls short of the Molien coefficient m_d can a new element lie, and only
    there does basis(d) give the fixed space, each element with its r
    components, to complete the span; the products precede it in the span,
    so skipping it elsewhere changes no choice.  The span, and each fixed
    space computed, must have dimension m_d (nouns name them in the error).
    Unless the bound is explicit, find_hsop runs whenever the ring has grown
    since its last search (it skips the rank test of inv.hsop), and an hsop
    lowers the bound to max(d, deg N).  Returns the new elements, the bound,
    the stop rule and the hsop.
    """
    new: list = []
    if inv is None:  # the new elements are the ring's generators
        gens, table, certified = new, ring_table, None
        ws = [[MultiPoly.constant(group.n, 1)]]
    else:  # the new elements are the module's generators
        gens, table, certified = inv.gens, inv._table, inv.hsop
        ws = []
    stop, hsop = ("explicit" if explicit else "noether"), None
    searched = 0
    d = max(map(_degree, ws), default=-1)  # the last degree spanned: 0 by the generator 1
    while True:
        if not explicit and len(gens) > searched and d < bound:
            found = find_hsop(gens, series, bound, searched, certified)
            searched = len(gens)
            if found is not None:
                hsop, deg_n = found
                bound, stop = max(d, deg_n), "hsop"
        if d >= bound:  # checked after the search, which may have lowered the bound to d
            return new, bound, stop, hsop
        d += 1
        expected = series.coefficient(d)
        span = Echelon()
        for col in _module_products(table, ws, d)[1]:
            span.add(col)
        if span.rank < expected:  # only then can the fixed space hold a new element
            elements = basis(d)
            if len(elements) != expected:
                raise DimensionMismatchWithMolien(
                    f"degree {d}: {nouns[0]} dimension {len(elements)}, Molien says {expected}")
            for element, comps in elements:
                if span.add(table.columns(comps)[d][0]):
                    new.append(element)
                    if inv is None:
                        table.append(element)
                    else:
                        ws.append(comps)
        if span.rank != expected:
            raise DimensionMismatchWithMolien(
                f"degree {d}: {nouns[1]} dimension {span.rank}, Molien says {expected}")


def find_hsop(gens: Sequence[MultiPoly], series: MolienSeries, limit: int, first_new: int = 0,
              certified: Sequence[int] | None = None) -> tuple[tuple[int, ...], int] | None:
    """The first hsop among the generators that certifies a bound below limit.

    Homogeneous invariants theta_1..theta_n (n = gens[0].nvars) of degrees
    d_i form a homogeneous system of parameters exactly when their ideal
    contains every monomial of degree D = sum_i (d_i - 1) + 1.  Then the
    polynomial ring, and so each of its direct summands the invariant ring
    and the equivariant fields, is a free module over Q[theta]
    (Hochster-Eagon), with basis degrees counted by the polynomial
    N(t) = series(t) prod (1 - t^d_i): the module generators over any ring
    containing theta lie in degrees at most deg N.

    N(1) needs no test: it is the limit of (1 - t)^n series(t) prod d_i at
    t = 1, where of all group elements only the identity gives the Molien
    average a pole of order n (Stanley, Bull. AMS 1979), of weight 1 for the
    ring and tr I = n for the fields.  So N(1) = r prod d_i / |G|, r the
    module's rank, for every subset that makes N a polynomial.

    n-subsets of indices are tried by degree sum, then index; the degrees of
    gens must ascend, and every subset holds an index >= first_new.  One
    cheap condition comes first, that N is a polynomial with non-negative
    integer coefficients, and the rank test runs only when deg N < limit,
    and not for the subset `certified`, already known to be an hsop.
    Returns (indices, deg N) or None.
    """
    degrees = [p.total_degree() for p in gens]
    excess = len(series.numer) - len(series.denom)  # deg N - sum d_i, whatever the subset
    for subset in _subsets(degrees, gens[0].nvars, limit - excess, first_new):
        numer = series.hsop_numerator([degrees[i] for i in subset])
        if numer is None or any(c < 0 or c.denominator != 1 for c in numer):
            continue
        if subset == certified or _ideal_spans_degree([gens[i] for i in subset]):
            return subset, len(numer) - 1
    return None


def _subsets(degrees: Sequence[int], n: int, limit: int, first_new: int) -> list[tuple[int, ...]]:
    """n-subsets of indices into the ascending degrees with degree sum below
    limit and largest index >= first_new, by degree sum, then index."""
    out: list[tuple[int, tuple[int, ...]]] = []

    def rec(start: int, chosen: tuple[int, ...], total: int) -> None:
        left = n - len(chosen)
        if not left:
            if chosen[-1] >= first_new:
                out.append((total, chosen))
            return
        for i in range(start, len(degrees) - left + 1):
            if total + left * degrees[i] >= limit:
                break  # later indices have degrees at least as large
            rec(i + 1, chosen + (i,), total + degrees[i])

    rec(0, (), 0)
    return [s for _, s in sorted(out)]


def _ideal_spans_degree(thetas: Sequence[MultiPoly]) -> bool:
    """Whether the products m * theta_i, m a monomial, span every monomial of
    degree D = sum_i (deg theta_i - 1) + 1: the rows are the integer
    coefficients of theta_i, shifted by the packed exponents of m, as sparse
    rows."""
    n = thetas[0].nvars
    degree = sum(theta.total_degree() - 1 for theta in thetas) + 1
    index = _monomial_table(n, degree)[2]
    span = SparseEchelon()
    for theta in thetas:
        terms = _packed(theta)[1]
        for shift in _monomial_table(n, degree - theta.total_degree())[1]:
            span.add({index[shift + e]: c for e, c in terms})
            if span.rank == len(index):
                return True
    return False


def express(inv: InvariantGens, q: MultiPoly) -> MultiPoly:
    """Write an invariant polynomial as a polynomial in the generators.

    Returns f in k variables with f(p_1(x), ..., p_k(x)) == q(x) exactly
    (_express_over, the ring as a module over itself).  Raises NotInvariant
    if q is not invariant, NoSolution if the generators cannot reach q
    (which means they are incomplete).
    """
    _require_invariant(inv.group, q, PHI_DAGGER, "polynomial is not invariant")
    return _express_all(inv, [inv._table.columns([q])])[0]


def _express_all(inv: InvariantGens, targets) -> list[MultiPoly]:
    """express for each polynomial, given as its graded integer columns
    (ProductTable.columns) and already known invariant."""
    unit = [[MultiPoly.constant(inv.group.n, 1)]]
    return [f for f, in _express_over(inv, PHI_DAGGER, unit, targets, "generator")]


def _express_over(inv: InvariantGens, action: str, ws, targets, noun: str) -> list[list[MultiPoly]]:
    """For each target, the P-polynomials f_j with sum_j f_j(p) W_j equal
    to it, one per module generator, p inv's generators; each target is
    fixed by inv's group under the action, as the products are: phi_dagger
    for the ring (r = 1), psi, through the pairing, for the fields.  A
    target is given as the graded integer columns of its r components
    (ProductTable.columns), in the rows of _module_products.

    Each degree's columns (_module_products) are eliminated once, with every
    target's numerators at that degree as right-hand sides, on the leader
    rows only (actions.leader_rows): those rows determine a fixed
    polynomial, so the restricted system has the same solutions, free
    coordinates are set to zero in both, and a target lies in the span of
    the columns exactly when it does on those rows.  The first failing
    target, then degree, raises as if they were solved one at a time.
    """
    table = inv._table
    sols: dict[tuple[int, int], list | None] = {}
    for d in set().union(*targets):
        idx = [i for i, target in enumerate(targets) if d in target]
        labels, cols, dens = _module_products(table, ws, d)
        if cols:
            rows = leader_rows(inv.group, action, d)
            rhss = [[targets[i][d][0][k] for k in rows] for i in idx]
            for i, sol in zip(idx, solve_free_zero(_rows(cols, rows), rhss)):
                sols[i, d] = None if sol is None else list(zip(labels, _unscale(sol, dens, targets[i][d][1])))
    out = []
    for i, target in enumerate(targets):
        coeffs: list[dict[Exponents, Fraction]] = [{} for _ in ws]
        for d in sorted(target):  # the degrees have disjoint supports
            if (i, d) not in sols:
                raise NoSolution(f"no {noun} products exist at degree {d}")
            if sols[i, d] is None:
                raise NoSolution(f"degree-{d} component is outside the {noun} span")
            for (j, a), c in sols[i, d]:
                if c:
                    coeffs[j][a] = c
        out.append([MultiPoly._of(len(table.degrees), t) for t in coeffs])
    return out


def _degree(w: Sequence[MultiPoly]) -> int:
    """The degree of a module generator: the largest total degree among its
    components, so a zero component (degree -1) counts for nothing."""
    return max(map(MultiPoly.total_degree, w))


def _module_products(
    table: ProductTable, ws, d: int
) -> tuple[list[tuple[int, Exponents]], list[list[int]], list[int]]:
    """Labels (j, a), integer columns and denominators of the degree-d
    products p^a W_j (p the table's generators, of degrees table.degrees;
    W_j the module generators, r components each), by j, then descending
    graded-lex on a.  Component i fills the rows alpha * r + i, alpha over
    monomials_of_degree(n, d), over the lcm of the components'
    denominators; for the generator 1 of the ring itself the column is the
    table's own.

    Scaling a column leaves its pivot status alone, so a solution y of the
    integer system gives the solution x_j = den_j * y_j of the rational one,
    with the same free coordinates at zero, and kernels map the same way.
    """
    one = MultiPoly.constant(table.n, 1)
    labels, cols, dens = [], [], []
    for j, w in enumerate(ws):
        r, unit = len(w), list(w) == [one]
        for a in _weighted_monomials(tuple(table.degrees), d - _degree(w)):
            if unit:
                col, den = table.column(a)
            else:
                parts = [(i, *table.times(a, c)) for i, c in enumerate(w) if not c.is_zero]
                den = lcm(*(e for _, _, e in parts))
                col = [0] * (r * len(parts[0][1]))
                for i, nums, e in parts:
                    col[i::r] = [x * (den // e) for x in nums]
            labels.append((j, a))
            cols.append(col)
            dens.append(den)
    return labels, cols, dens


def _rows(cols: Sequence[Sequence[int]], rows: Sequence[int]) -> list[list[int]]:
    """The given rows of the matrix with these columns."""
    return [[col[k] for col in cols] for k in rows]


def _unscale(y: Sequence[Fraction], dens: Sequence[int], den: int = 1) -> list[Fraction]:
    """x_j = den_j * y_j / den: a solution of an integer system of
    _module_products, with right-hand side den * b, read back as a solution
    of the rational one with right-hand side b."""
    return [c * Fraction(dj, den) if dj != den else c for c, dj in zip(y, dens)]


class RelationSet(Immutable):
    """Polynomial relations among invariant generators.

    Each relation r satisfies r(p_1, ..., p_k) == 0 identically; together
    they cut out the image of the Hilbert map at the computed degrees.  The
    weighted degree of r is sum_i a_i deg(p_i), a its leading exponents.
    """

    __slots__ = ("gens", "rels", "weighted_degrees")

    def __init__(self, gens: InvariantGens, rels: Sequence[MultiPoly]) -> None:
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "rels", tuple(rels))
        object.__setattr__(self, "weighted_degrees", tuple(
            sum(x * w for x, w in zip(r.leading_term()[0], gens.degrees)) for r in self.rels))

    def __len__(self) -> int:
        return len(self.rels)

    def __iter__(self):
        return iter(self.rels)

    def __repr__(self) -> str:
        inner = ", ".join(r.format(names=[f"P{i + 1}" for i in range(self.gens.k)]) for r in self.rels)
        return f"RelationSet([{inner}])"


def relations(inv: InvariantGens, weighted_degree_bound: int) -> RelationSet:
    """Kernel of the substitution map, weighted degree by weighted degree.

    At each weighted degree d the relations of weight d are the kernel of
    (P-monomials of weight d) -> (degree-d polynomials in x).  One
    elimination of the integer columns of the product table at the leader
    rows (actions.leader_rows), which determine every invariant, gives its
    free columns; a kernel vector is fixed by its entries there, and the
    kernel basis has one vector per free column f, 1 at f and 0 at the
    others.  The P-monomial multiples of the lower relations lie in the
    kernel, so the basis vector at f lies in the span of the multiples and
    of the basis vectors before it exactly when some combination of the
    multiples ends, among the free columns, at f (_multiple_leads).  Only
    where the multiples lead fewer free columns than there are is the
    kernel basis read off the same elimination (kernel_basis of its echelon
    rows), and the vectors at the free columns they do not lead are the new
    relations: the ones a span of the multiples and the basis vectors, added
    in turn, would have kept.  Relations are normalized monic in graded-lex
    on P-exponents.
    """
    if not inv.gens:
        return RelationSet(inv, [])
    if weighted_degree_bound < 2 * min(inv.degrees):
        raise ValueError(
            f"weighted degree bound {weighted_degree_bound} is below twice the minimal "
            f"generator degree {min(inv.degrees)}"
        )
    unit = [[MultiPoly.constant(inv.group.n, 1)]]
    rels: list[MultiPoly] = []
    lower: list[tuple[int, tuple[Exponents, ...], list[int]]] = []  # (weight, exponents, numerators)
    for d in range(1, weighted_degree_bound + 1):
        labels, cols, dens = _module_products(inv._table, unit, d)
        if len(cols) < 2:
            continue
        span = Echelon()
        for row in _rows(cols, leader_rows(inv.group, PHI_DAGGER, d)):
            span.add(row)
        free = sorted(set(range(len(cols))) - set(span.pivots))
        candidates = [a for _, a in labels]
        leads = _multiple_leads(inv.degrees, lower, candidates, free, d)
        if len(leads) == len(free):
            continue
        for f, y in zip(free, kernel_basis(span.rows, len(cols))):
            if f not in leads:
                v = _unscale(y, dens)
                rel = MultiPoly._of(inv.k, {a: c for a, c in zip(candidates, v) if c}).monic()
                rels.append(rel)
                exps, coeffs = zip(*rel.sorted_terms())
                lower.append((d, exps, clear_denominators(coeffs)[1]))
    return RelationSet(inv, rels)


def _multiple_leads(degrees: Sequence[int], lower, candidates: Sequence[Exponents],
                    free: Sequence[int], d: int) -> set[int]:
    """The free columns at which some combination of the weight-d multiples
    P^m r of the relations r in lower, each given by its weight, exponents
    and integer numerators, has its last nonzero entry among the free
    columns.  The multiples go into a SparseEchelon as integer rows over the
    free columns in reverse order, so each pivot is such a last entry; it
    stops once every free column leads.  The shifts m of each weight are
    listed once."""
    position = {candidates[f]: len(free) - 1 - i for i, f in enumerate(free)}
    span = SparseEchelon()
    shifts: dict[int, list[Exponents]] = {}
    for rd, exps, nums in lower:
        if span.rank == len(free):
            break
        if rd not in shifts:
            shifts[rd] = _weighted_monomials(tuple(degrees), d - rd)
        for m in shifts[rd]:
            vec = {}
            for a, c in zip(exps, nums):
                k = position.get(tuple(x + y for x, y in zip(a, m)))
                if k is not None:
                    vec[k] = c
            span.add(vec)
            if span.rank == len(free):
                break
    return {free[len(free) - 1 - p] for p in span.pivots}
