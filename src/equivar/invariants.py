"""Generators, expression, and relations for rings of invariant polynomials.

The ring of G-invariant polynomials is computed degree by degree: take the
canonical basis of the degree-d fixed space (orbit sums of the monomial
generators, cut down by the kernel of rho_d(g) - I of the others; see
actions.fixed_basis), and keep whatever the products of already-found
generators fail to span.  The loop stops at the bound an hsop certificate
gives (find_hsop: n generators whose ideal contains every monomial of one
degree, so the ring is free over them and the Molien series says in which
degrees its basis lies), or at Noether's bound, degree |G|, when no
certificate beats it.  The Molien series also supplies an independent
dimension count, checked at every degree against the fixed space and
against the span it ends with.

Every generator product p^a comes from one poly.ProductTable: the
coefficient column of p^a over the degree's monomials, memoised by a and
built from a cached column times one generator.  The loop keeps a table
while its generator list grows, and each InvariantGens owns one, which
express, relations, substitute and the equivariant module products read.

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
from math import prod
from typing import Sequence

from .actions import PHI_DAGGER, fixed_basis, is_invariant
from .errors import DimensionMismatchWithMolien, NoSolution, NotInvariant
from .groups import MatGroup
from .linalg import Echelon, kernel_basis, solve_free_zero
from .molien import MolienSeries, molien
from .poly import (
    Exponents,
    MultiPoly,
    ProductTable,
    _pack,
    _packed,
    grlex_key,
    monomials_of_degree,
    poly_to_vector,
)


def weighted_monomials(weights: Sequence[int], total: int) -> list[Exponents]:
    """Exponent tuples a with sum a_i * weights_i == total, descending grlex."""
    if total < 0:
        return []

    def rec(i: int, remaining: int) -> list[Exponents]:
        if i == len(weights):
            return [()] if remaining == 0 else []
        out = []
        for e in range(remaining // weights[i], -1, -1):
            out.extend((e,) + rest for rest in rec(i + 1, remaining - e * weights[i]))
        return out

    return sorted(rec(0, total), key=grlex_key, reverse=True)


def power_product(polys: Sequence[MultiPoly], exps: Exponents) -> MultiPoly:
    """The product prod_i polys[i] ** exps[i]."""
    if not polys:
        raise ValueError("empty polynomial list")
    acc = MultiPoly.constant(polys[0].nvars, 1)
    for p, e in zip(polys, exps):
        if e:
            acc = acc * p**e
    return acc


class InvariantGens:
    """An ordered generating set for the invariant ring of a group.

    Generators are homogeneous, monic in graded-lex, and sorted by degree,
    then by descending leading monomial.  The Hilbert map sends a point x to
    the tuple of generator values; its image models the orbit space.

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
        degrees: Sequence[int],
        bound: int | None = None,
        stop: str | None = None,
        hsop: Sequence[int] | None = None,
    ) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "degrees", tuple(degrees))
        if len(self.gens) != len(self.degrees):
            raise ValueError("generator and degree lists have different lengths")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "hsop", None if hsop is None else tuple(hsop))
        object.__setattr__(self, "_table", ProductTable(group.n, self.gens))

    def __setattr__(self, name, value):
        raise AttributeError("InvariantGens is immutable")

    @classmethod
    def from_polys(cls, group: MatGroup, polys: Sequence[MultiPoly]) -> "InvariantGens":
        """Wrap explicit generators, validating invariance and homogeneity."""
        checked = []
        for p in polys:
            if p.is_zero or not p.is_homogeneous():
                raise ValueError(f"generator {p!r} is not homogeneous and nonzero")
            chk = is_invariant(group, p, PHI_DAGGER)
            if not chk:
                raise NotInvariant(
                    f"generator {p!r} is not invariant",
                    chk.generator_index,
                    chk.difference,
                )
            checked.append(p.monic())
        checked.sort(key=lambda p: (p.total_degree(), tuple(-e for e in p.leading_term()[0])))
        return cls(group, checked, [p.total_degree() for p in checked])

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


def invariant_basis(group: MatGroup, degree: int) -> list[MultiPoly]:
    """Basis of the degree-d invariant polynomials.

    The reduced row echelon basis over the degree-d monomials in descending
    graded-lex order (see actions.fixed_basis), so each basis element is
    monic on its pivot monomial and the output is canonical.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree == 0:
        return [MultiPoly.constant(group.n, 1)]
    return fixed_basis(group, PHI_DAGGER, monomials_of_degree(group.n, degree))


def invariant_ring_generators(
    group: MatGroup, degree_bound: int | None = None
) -> InvariantGens:
    """Generating set of the invariant ring up to the degree bound.

    With no bound given, the loop ends at the first degree that reaches a
    certified bound: after each degree that found generators, find_hsop looks
    for an hsop among them whose bound beats the current one.  If none does,
    the loop runs to |G|, Noether's bound: in characteristic zero the
    invariant ring of a finite group is generated in degrees at most the
    group order.  An explicit bound is run as given.  At every degree the
    fixed-space dimension is compared with the Molien coefficient, and the
    products of the returned generators must span each graded piece up to
    the bound; any mismatch raises, because it can only mean a bug.
    """
    bound = group.order if degree_bound is None else degree_bound
    if bound < 1:
        raise ValueError("degree bound must be at least 1")
    stop = "noether" if degree_bound is None else "explicit"
    hsop = None
    series = molien(group)
    table = ProductTable(group.n)
    gens: list[MultiPoly] = []
    degrees: list[int] = []
    d = 0
    while d < bound:
        d += 1
        first_new = len(gens)
        basis_d = invariant_basis(group, d)
        expected = series.coefficient(d)
        if len(basis_d) != expected:
            raise DimensionMismatchWithMolien(
                f"degree {d}: fixed space has dimension {len(basis_d)}, Molien says {expected}"
            )
        basis_monos = table.monomials(d)
        span = Echelon()
        for a in weighted_monomials(degrees, d):
            span.add(table.column(a)[0])
        for b in basis_d:
            if span.add(poly_to_vector(b, basis_monos)):
                gens.append(b)
                degrees.append(d)
                table.append(b)
        if span.rank != expected:
            raise DimensionMismatchWithMolien(
                f"degree {d}: generator products span dimension {span.rank}, Molien says {expected}"
            )
        if degree_bound is None and d < bound and len(gens) > first_new:
            found = find_hsop(group, gens, degrees, series, 1, bound, first_new)
            if found is not None:
                # every new subset holds a degree-d generator, so max d_i == d
                hsop, deg_n = found
                bound, stop = max(d, deg_n), "hsop"
    return InvariantGens(group, gens, degrees, bound, stop, hsop)


def find_hsop(
    group: MatGroup,
    gens: Sequence[MultiPoly],
    degrees: Sequence[int],
    series: MolienSeries,
    rank: int,
    limit: int,
    first_new: int = 0,
    certified: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """The first hsop among the generators that certifies a bound below limit.

    Homogeneous invariants theta_1..theta_n (n = group.n) of degrees d_i form
    a homogeneous system of parameters exactly when their ideal contains
    every monomial of degree D = sum_i (d_i - 1) + 1.  Then the polynomial
    ring, and so each of its direct summands the invariant ring and the
    equivariant fields, is a free module over Q[theta] (Hochster-Eagon), with
    basis degrees counted by the polynomial N(t) = series(t) prod (1 - t^d_i):
    the module generators over any ring containing theta lie in degrees at
    most deg N.  series is the Molien series of a module of rank `rank` over
    the invariants (1 for the invariant ring itself, n for the fields), so
    N(1) = rank * prod d_i / |G|.

    n-subsets of indices are tried by degree sum, then index; degrees must
    be ascending, and every subset holds an index >= first_new.  Two cheap
    conditions come first, that N is a polynomial with non-negative integer
    coefficients and that N(1) is right, and the rank test runs only when
    deg N < limit, and not for the subset `certified`, already known to be
    an hsop.  Returns (indices, deg N) or None.
    """
    n = group.n
    excess = len(series.numer) - len(series.denom)  # deg N - sum d_i, whatever the subset
    for subset in _subsets(degrees, n, limit - excess, first_new):
        ds = [degrees[i] for i in subset]
        numer = series.hsop_numerator(ds)
        if numer is None or any(c < 0 or c.denominator != 1 for c in numer):
            continue
        if sum(numer) * group.order != rank * prod(ds):
            continue
        if subset == certified or _ideal_spans_degree([gens[i] for i in subset], sum(ds) - n + 1):
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


def _ideal_spans_degree(thetas: Sequence[MultiPoly], degree: int) -> bool:
    """Whether the products m * theta_i, m a monomial, span every monomial of
    the degree: the rows are the integer coefficients of theta_i, shifted by
    the packed exponents of m."""
    n = thetas[0].nvars
    index = {_pack(e): j for j, e in enumerate(monomials_of_degree(n, degree))}
    span = Echelon()
    for theta in thetas:
        terms = _packed(theta)[1]
        for m in monomials_of_degree(n, degree - theta.total_degree()):
            shift = _pack(m)
            row = [0] * len(index)
            for e, c in terms:
                row[index[shift + e]] = c
            span.add(row)
            if span.rank == len(index):
                return True
    return False


def express(inv: InvariantGens, q: MultiPoly) -> MultiPoly:
    """Write an invariant polynomial as a polynomial in the generators.

    Returns f in k variables with f(p_1(x), ..., p_k(x)) == q(x) exactly.
    Solved degree by degree against the columns of the product table; when
    relations make the system underdetermined, the free P-monomial
    coordinates (descending graded-lex order) are set to zero.  Raises
    NotInvariant if q is not invariant, NoSolution if the generators cannot
    reach q (which means they are incomplete).
    """
    chk = is_invariant(inv.group, q, PHI_DAGGER)
    if not chk:
        raise NotInvariant("polynomial is not invariant", chk.generator_index, chk.difference)
    return _express_all(inv, [q])[0]


def _express_all(inv: InvariantGens, qs: Sequence[MultiPoly]) -> list[MultiPoly]:
    """express for each polynomial, each already known invariant.  Each
    degree's product matrix is built and eliminated once, with the
    components of every polynomial at that degree as its right-hand sides;
    the first failing polynomial, then degree, raises as if they were
    solved one at a time."""
    parts = [q.homogeneous_components() for q in qs]
    by_degree: dict[int, list[int]] = {}
    for i, comps in enumerate(parts):
        for d in comps:
            by_degree.setdefault(d, []).append(i)
    sols: dict[tuple[int, int], list[Fraction] | None] = {}
    for d, owners in by_degree.items():
        candidates = weighted_monomials(inv.degrees, d)
        if not candidates:
            continue
        rows, dens = _product_rows(inv._table, candidates)
        monos = inv._table.monomials(d)
        solved = solve_free_zero(rows, [poly_to_vector(parts[i][d], monos) for i in owners])
        for i, sol in zip(owners, solved):
            sols[i, d] = None if sol is None else list(zip(candidates, _unscale(sol, dens)))
    out = []
    for i, comps in enumerate(parts):
        terms: dict[Exponents, Fraction] = {}  # the degrees have disjoint supports
        for d in comps:
            if (i, d) not in sols:
                raise NoSolution(f"no generator products exist at degree {d}")
            if sols[i, d] is None:
                raise NoSolution(f"degree-{d} component is outside the generator span")
            terms.update((a, c) for a, c in sols[i, d] if c)
        out.append(MultiPoly._of(inv.k, terms))
    return out


def _product_rows(
    table: ProductTable, candidates: Sequence[Exponents]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The integer rows of the matrix whose column j is den_j times the
    column of p^a, a = candidates[j], and the factors den_j.

    Scaling a column leaves its pivot status alone, so a solution y of the
    integer system gives the solution x_j = den_j * y_j of the rational one,
    with the same free coordinates at zero, and kernels map the same way.
    """
    cols = [table.column(a) for a in candidates]
    return list(zip(*(nums for nums, _ in cols))), [den for _, den in cols]


def _unscale(y: Sequence[Fraction], dens: Sequence[int]) -> list[Fraction]:
    """x_j = den_j * y_j: a solution of the integer system of _product_rows
    read back as a solution of the rational one."""
    return [c * den if den != 1 else c for c, den in zip(y, dens)]


class RelationSet:
    """Polynomial relations among invariant generators.

    Each relation r satisfies r(p_1, ..., p_k) == 0 identically; together
    they cut out the image of the Hilbert map at the computed degrees.
    """

    __slots__ = ("gens", "rels", "weighted_degrees")

    def __init__(
        self, gens: InvariantGens, rels: Sequence[MultiPoly], weighted_degrees: Sequence[int]
    ) -> None:
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "rels", tuple(rels))
        object.__setattr__(self, "weighted_degrees", tuple(weighted_degrees))

    def __setattr__(self, name, value):
        raise AttributeError("RelationSet is immutable")

    def __len__(self) -> int:
        return len(self.rels)

    def __iter__(self):
        return iter(self.rels)

    def __repr__(self) -> str:
        inner = ", ".join(r.format(names=[f"P{i + 1}" for i in range(self.gens.k)]) for r in self.rels)
        return f"RelationSet([{inner}])"


def relations(inv: InvariantGens, weighted_degree_bound: int) -> RelationSet:
    """Kernel of the substitution map, weighted degree by weighted degree.

    At each weighted degree d the kernel of (P-monomials of weight d) ->
    (degree-d polynomials in x) is computed exactly, on the integer columns
    of the product table; relations that are P-polynomial multiples of
    lower-degree ones are dropped.  Relations are normalized monic in
    graded-lex on P-exponents.
    """
    if not inv.gens:
        return RelationSet(inv, [], [])
    if weighted_degree_bound < 2 * min(inv.degrees):
        raise ValueError(
            f"weighted degree bound {weighted_degree_bound} is below twice the minimal "
            f"generator degree {min(inv.degrees)}"
        )
    rels: list[MultiPoly] = []
    rel_degrees: list[int] = []
    for d in range(1, weighted_degree_bound + 1):
        candidates = weighted_monomials(inv.degrees, d)
        if len(candidates) < 2:
            continue
        rows, dens = _product_rows(inv._table, candidates)
        kernel = [_unscale(y, dens) for y in kernel_basis(rows, len(candidates))]
        if not kernel:
            continue
        cand_index = {a: i for i, a in enumerate(candidates)}
        known = Echelon()
        for rel, rd in zip(rels, rel_degrees):
            terms = rel.sorted_terms()
            for m in weighted_monomials(inv.degrees, d - rd):
                # the coefficients of the multiple P^m * rel
                vec = [0] * len(candidates)
                for a, c in terms:
                    vec[cand_index[tuple(x + y for x, y in zip(a, m))]] = c
                known.add(vec)
        for v in kernel:
            if known.add(v):
                rel = MultiPoly._of(inv.k, {a: c for a, c in zip(candidates, v) if c}).monic()
                rels.append(rel)
                rel_degrees.append(d)
    return RelationSet(inv, rels, rel_degrees)
