"""Shared fixtures: the four desk-scale sample groups, brute-force oracles,
and hypothesis strategies that draw polynomials, small groups and their
rational conjugates.

The oracles here recompute dimensions and fixed spaces by stacking action
matrices and rank-counting, independently of both the production
fixed-space pipeline (orbit sums, then the generator kernel) and the Molien series,
so the three agree only if all are right.  The solves behind express and
relations are kept here on every row of their systems, the reference for
the production solves on the orbit leaders' rows.  So are the group
set-up's earlier routes: a closure by integer matrix products and
det(I - t g) by Faddeev-LeVerrier, the references for the row-orbit closure
and the power-trace determinants.  The directional derivatives X(p_i),
multiplied out in Fractions, are the reference for the integer columns of
ProductTable.directional.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from equivar import (
    PHI_DAGGER,
    ClosureExceedsCap,
    MatGroup,
    MultiPoly,
    PolyVectorField,
    RatMatrix,
    act_phi_dagger,
    act_theta,
    close_group,
    equivariant_module_generators,
    invariant_ring_generators,
    monomials_of_degree,
    pairing,
    weighted_monomials,
    xilinear_monomials,
)
from equivar import invariants, reduction
from equivar.actions import leader_rows
from equivar.errors import DimensionMismatchWithMolien, NoSolution
from equivar.linalg import Echelon, _reduced_rows, kernel_basis, solve_free_zero
from equivar.poly import dot
from equivar.serialize import group_from_doc


@pytest.fixture(scope="session")
def z2_line() -> MatGroup:
    """{+-1} acting on the line."""
    return close_group([RatMatrix.from_rows([[-1]])])


@pytest.fixture(scope="session")
def z2_diag() -> MatGroup:
    """{+-I} acting on the plane."""
    return close_group([RatMatrix.from_rows([[-1, 0], [0, -1]])])


@pytest.fixture(scope="session")
def swap2() -> MatGroup:
    """Coordinate swap on the plane."""
    return close_group([RatMatrix.from_rows([[0, 1], [1, 0]])])


@pytest.fixture(scope="session")
def c4() -> MatGroup:
    """Quarter-turn rotations of the plane."""
    return close_group([RatMatrix.from_rows([[0, -1], [1, 0]])])


@pytest.fixture(scope="session")
def sample_groups(z2_line, z2_diag, swap2, c4):
    return {"z2_line": z2_line, "z2_diag": z2_diag, "swap2": swap2, "c4": c4}


def monomial(exps, c=1) -> MultiPoly:
    """c x^exps in len(exps) variables."""
    return MultiPoly(len(exps), {tuple(exps): c})


def homogeneous_part(p: MultiPoly, degree: int) -> MultiPoly:
    """The sum of the terms of p of total degree exactly `degree`."""
    return MultiPoly(p.nvars, {e: c for e, c in p if sum(e) == degree})


def homogeneous_components(p: MultiPoly) -> dict[int, MultiPoly]:
    """The nonzero homogeneous components of p keyed by degree, ascending."""
    by_deg: dict[int, dict] = {}
    for e, c in p:
        by_deg.setdefault(sum(e), {})[e] = c
    return {d: MultiPoly(p.nvars, t) for d, t in sorted(by_deg.items())}


def det_one_minus_t(m: RatMatrix) -> list[Fraction]:
    """Coefficients of det(I - t M) via the Faddeev-LeVerrier recursion.

    It runs on the integer numerators A of M = A / D.  With
    char(A) = lambda^n + a_1 lambda^(n-1) + ... + a_n, the a_k are integers,
    so every division by k in the recursion is exact, and
    det(I - t M) = 1 + (a_1/D) t + ... + (a_n/D^n) t^n.
    """
    n = m.rows
    den, nums = m.integer_form()
    rows = [nums[i * n:(i + 1) * n] for i in range(n)]
    coeffs = [Fraction(1)]
    aux = rows  # A M_k, with M_1 = I and M_(k+1) = A M_k + a_k I
    for k in range(1, n + 1):
        a_k = -sum(aux[i][i] for i in range(n)) // k
        coeffs.append(Fraction(a_k, den ** k))
        if k < n:
            shifted = [[x + a_k if i == j else x for j, x in enumerate(r)] for i, r in enumerate(aux)]
            cols = list(zip(*shifted))
            aux = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _key_product(a, b, n: int):
    """The lowest-terms (D, A) key of the product of the matrices keyed a and b."""
    den, nums = a[0] * b[0], a[1]
    rows = [nums[i * n:(i + 1) * n] for i in range(n)]
    cols = [b[1][j::n] for j in range(n)]
    prod = tuple(sum(map(mul, row, col)) for row in rows for col in cols)
    if den > 1:
        c = gcd(den, *prod)
        if c > 1:
            den, prod = den // c, tuple(x // c for x in prod)
    return den, prod


def product_closure(gens: list[RatMatrix]) -> tuple[list[RatMatrix], list[int], list[int]]:
    """(elements, gen_indices, inverse indices) of a BFS closure keyed by
    whole integer matrices, one matrix product per element and generator;
    each inverse is g^-1 x^-1 for the element x g it was reached as."""
    n = gens[0].rows
    forms = [g.integer_form() for g in gens]
    gen_inverses = [g.inverse().integer_form() for g in gens]
    keys = [RatMatrix.identity(n).integer_form()]
    words, seen = [(0, -1)], {keys[0]: 0}
    for x, key in enumerate(keys):
        for k, g in enumerate(forms):
            y = _key_product(key, g, n)
            if y not in seen:
                seen[y] = len(keys)
                keys.append(y)
                words.append((x, k))
    inverses = [0]
    for x, k in words[1:]:
        inverses.append(seen[_key_product(gen_inverses[k], keys[inverses[x]], n)])
    elements = [RatMatrix(n, n, [Fraction(x, den) for x in nums]) for den, nums in keys]
    return elements, [seen[g] for g in forms], inverses


def power_product(polys, exps) -> MultiPoly:
    """The product prod_i polys[i] ** exps[i], multiplied out: the oracle
    for the columns of poly.ProductTable."""
    acc = MultiPoly.constant(polys[0].nvars, 1)
    for p, e in zip(polys, exps):
        if e:
            acc = acc * p**e
    return acc


def directional_derivatives(field: PolyVectorField, inv) -> list[MultiPoly]:
    """X(p_i) = sum_j X_j dp_i/dx_j for each generator p_i, multiplied out
    in Fraction arithmetic by poly.dot: the oracle for
    ProductTable.directional."""
    return [dot(field.comps, [p.diff(j) for j in range(field.n)]) for p in inv.gens]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form: the nonzero rows, pivots normalized to 1,
    and the pivot columns.  linalg's integer read-back with its pivots
    divided out; test_linalg holds it against Fraction Gauss-Jordan."""
    red, pivots = _reduced_rows(rows)
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(red, pivots)], pivots


def compile_polys(polys, nvars: int):
    """The lone float evaluator of one polynomial map R^nvars -> R^len(polys),
    taking and returning lists: the reference the RK4 kernel's blocks and
    Hilbert map are held against, from the kernel's own code generator
    (reduction._map_lines).  A small map becomes a generated function
    straight_line, a large one its numpy evaluator power_table."""
    inputs = [f"x{j}" for j in range(nvars)]
    outputs = [f"y{i}" for i in range(len(polys))]
    scope: dict = {}
    body = reduction._map_lines(polys, inputs, outputs, "m", scope)
    if "m" in scope:
        return scope["m"]
    unpack = [f"{''.join(f'{x}, ' for x in inputs)}= v"] if nvars else []
    lines = [*unpack, *body, f"return [{', '.join(outputs)}]"]
    exec("\n".join(["def straight_line(v):", *(f"    {line}" for line in lines)]), scope)
    return scope["straight_line"]


def graded_generators_every_degree(group, inv, series, basis, bound, explicit, nouns, ring_table=None):
    """invariants._graded_generators with the fixed space computed, and its
    size checked, at every degree, before the products are spanned: the
    reference the products-first loop must match in every output, since
    both put the products into the span before any fixed-space element."""
    new: list = []
    if inv is None:
        gens, table, certified = new, ring_table, None
        ws = [[MultiPoly.constant(group.n, 1)]]
    else:
        gens, table, certified = inv.gens, inv._table, inv.hsop
        ws = []
    stop, hsop = ("explicit" if explicit else "noether"), None
    searched = 0
    d = max(map(invariants._degree, ws), default=-1)
    while True:
        if not explicit and len(gens) > searched and d < bound:
            found = invariants.find_hsop(gens, series, bound, searched, certified)
            searched = len(gens)
            if found is not None:
                hsop, deg_n = found
                bound, stop = max(d, deg_n), "hsop"
        if d >= bound:
            return new, bound, stop, hsop
        d += 1
        elements = basis(d)
        expected = series.coefficient(d)
        if len(elements) != expected:
            raise DimensionMismatchWithMolien(
                f"degree {d}: {nouns[0]} dimension {len(elements)}, Molien says {expected}")
        monos = monomials_of_degree(table.n, d)
        span = Echelon()
        for col in invariants._module_products(table, ws, d)[1]:
            span.add(col)
        for element, comps in elements:
            if span.add(vector(comps, monos)):
                new.append(element)
                if inv is None:
                    table.append(element)
                else:
                    ws.append(comps)
        if span.rank != expected:
            raise DimensionMismatchWithMolien(
                f"degree {d}: {nouns[1]} dimension {span.rank}, Molien says {expected}")


def poly_to_vector(p: MultiPoly, basis) -> list[Fraction]:
    """The Fraction coefficients of p over an explicit monomial basis;
    ValueError if p has support outside it."""
    index = {e: i for i, e in enumerate(basis)}
    v = [Fraction(0)] * len(basis)
    for e, c in p.sorted_terms():
        if e not in index:
            raise ValueError(f"monomial {e} outside the given basis")
        v[index[e]] = c
    return v


def vector(comps, monos) -> list[Fraction]:
    """The components' Fraction coefficients over monos, component i in the
    rows alpha * r + i of invariants._module_products: the reference for
    the integer columns of ProductTable.columns."""
    vec = [Fraction(0)] * (len(comps) * len(monos))
    for i, c in enumerate(comps):
        vec[i::len(comps)] = poly_to_vector(c, monos)
    return vec


def express_over_full_rows(inv, ws, targets, noun):
    """invariants._express_over posed on every row of the products: each
    degree's columns, with every target's Fraction components as right-hand
    sides, over all monomials.  The reference the leader-row solve over
    integer columns must match in every solution and every NoSolution
    message."""
    table = inv._table
    parts = [[homogeneous_components(c) for c in comps] for comps in targets]
    target_degrees = [sorted(set().union(*hcs)) for hcs in parts]
    zero = MultiPoly.zero(table.n)
    sols = {}
    for d in set().union(*target_degrees):
        idx = [i for i, ds in enumerate(target_degrees) if d in ds]
        labels, cols, dens = invariants._module_products(table, ws, d)
        if cols:
            monos = monomials_of_degree(table.n, d)
            rhss = [vector([hc.get(d, zero) for hc in parts[i]], monos) for i in idx]
            for i, sol in zip(idx, solve_free_zero(list(zip(*cols)), rhss)):
                sols[i, d] = None if sol is None else list(zip(labels, invariants._unscale(sol, dens)))
    out = []
    for i, ds in enumerate(target_degrees):
        coeffs = [{} for _ in ws]
        for d in ds:
            if (i, d) not in sols:
                raise NoSolution(f"no {noun} products exist at degree {d}")
            if sols[i, d] is None:
                raise NoSolution(f"degree-{d} component is outside the {noun} span")
            for (j, a), c in sols[i, d]:
                if c:
                    coeffs[j][a] = c
        out.append([MultiPoly._of(len(table.degrees), t) for t in coeffs])
    return out


def relations_every_kernel(inv, weighted_degree_bound: int) -> list[MultiPoly]:
    """invariants.relations with the kernel read at every degree, on the
    leader rows, and every multiple of the lower relations spanned: the
    reference for the loop that builds kernel vectors only where the
    multiples fall short of the nullity."""
    unit = [[MultiPoly.constant(inv.group.n, 1)]]
    rels, rel_degrees = [], []
    for d in range(1, weighted_degree_bound + 1):
        labels, cols, dens = invariants._module_products(inv._table, unit, d)
        if len(cols) < 2:
            continue
        candidates = [a for _, a in labels]
        rows = invariants._rows(cols, leader_rows(inv.group, PHI_DAGGER, d))
        kernel = [invariants._unscale(y, dens) for y in kernel_basis(rows, len(cols))]
        if not kernel:
            continue
        cand_index = {a: i for i, a in enumerate(candidates)}
        known = Echelon()
        for rel, rd in zip(rels, rel_degrees):
            terms = rel.sorted_terms()
            for m in weighted_monomials(inv.degrees, d - rd):
                vec = [0] * len(candidates)
                for a, c in terms:
                    vec[cand_index[tuple(x + y for x, y in zip(a, m))]] = c
                known.add(vec)
        for v in kernel:
            if known.add(v):
                rels.append(MultiPoly._of(inv.k, {a: c for a, c in zip(candidates, v) if c}).monic())
                rel_degrees.append(d)
    return rels


def relations_full_rows(inv, weighted_degree_bound: int) -> list[MultiPoly]:
    """The relations of invariants.relations, each kernel taken over every
    row of the products: the reference for the leader-row kernels."""
    unit = [[MultiPoly.constant(inv.group.n, 1)]]
    rels, rel_degrees = [], []
    for d in range(1, weighted_degree_bound + 1):
        labels, cols, dens = invariants._module_products(inv._table, unit, d)
        if len(cols) < 2:
            continue
        candidates = [a for _, a in labels]
        kernel = [invariants._unscale(y, dens) for y in kernel_basis(list(zip(*cols)), len(cols))]
        cand_index = {a: i for i, a in enumerate(candidates)}
        known = Echelon()
        for rel, rd in zip(rels, rel_degrees):
            for m in weighted_monomials(inv.degrees, d - rd):
                vec = [0] * len(candidates)
                for a, c in rel.sorted_terms():
                    vec[cand_index[tuple(x + y for x, y in zip(a, m))]] = c
                known.add(vec)
        for v in kernel:
            if known.add(v):
                rels.append(MultiPoly._of(inv.k, {a: c for a, c in zip(candidates, v) if c}).monic())
                rel_degrees.append(d)
    return rels


def field_to_vector(field: PolyVectorField, basis) -> list[Fraction]:
    """The coefficients of a field's pairing over xi-linear monomials."""
    return poly_to_vector(pairing(field), basis)


def poly_action_matrix(group: MatGroup, g: int, degree: int) -> list[list[Fraction]]:
    """Matrix of the polynomial action of element g on the degree-d monomials."""
    basis = monomials_of_degree(group.n, degree)
    cols = [
        poly_to_vector(act_phi_dagger(group, g, monomial(e)), basis)
        for e in basis
    ]
    return [[col[r] for col in cols] for r in range(len(basis))]


def field_action_matrix(group: MatGroup, g: int, degree: int) -> list[list[Fraction]]:
    """Matrix of the pushforward action of g on degree-d vector-field monomials."""
    basis = xilinear_monomials(group.n, degree)
    cols = []
    for e in basis:
        alpha, xi = e[: group.n], e[group.n :]
        comps = [
            monomial(alpha) if xi[i] == 1 else MultiPoly.zero(group.n)
            for i in range(group.n)
        ]
        moved = act_theta(group, g, PolyVectorField(comps))
        cols.append(poly_to_vector(pairing(moved), basis))
    return [[col[r] for col in cols] for r in range(len(basis))]


def fixed_space_dim(group: MatGroup, degree: int, action_matrix=poly_action_matrix) -> int:
    """dim of the fixed space at one degree: nullity of stacked (M_g - I)."""
    if degree == 0:
        return 1
    stacked: list[list[Fraction]] = []
    size = None
    for g in group.gen_indices:
        m = action_matrix(group, g, degree)
        size = len(m)
        for i, row in enumerate(m):
            stacked.append([c - Fraction(int(i == j)) for j, c in enumerate(row)])
    rows, _ = rref(stacked)
    return size - len(rows)


def random_poly(rng, nvars: int, max_degree: int) -> MultiPoly:
    """Small random polynomial with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(d):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(nvars, terms)


def random_field(rng, n: int, max_degree: int) -> PolyVectorField:
    return PolyVectorField([random_poly(rng, n, max_degree) for _ in range(n)])


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(nvars: int, max_degree: int = 4):
    """Polynomials of up to six terms and total degree at most max_degree."""
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * nvars)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exps, coeffs, max_size=6).map(lambda d: MultiPoly(nvars, d))


def sparse_polys(nvars: int, max_degree: int):
    """Polynomials of up to five terms, each a product of at most max_degree
    variables: sparse in many variables, where polys filters."""
    exps = st.lists(st.integers(0, nvars - 1), max_size=max_degree).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    return st.dictionaries(exps, coeffs, max_size=5).map(lambda d: MultiPoly(nvars, d))


@st.composite
def poly_cases(draw):
    """Two polynomials in 1-4 variables, n polynomials to substitute, and
    homogeneous generators of a ProductTable with a polynomial in them."""
    n = draw(st.integers(min_value=1, max_value=4))
    a, b = draw(polys(n, 3)), draw(polys(n, 3))
    values = draw(st.lists(polys(n, 2), min_size=n, max_size=n))
    gens = draw(
        st.lists(
            polys(n, 2)
            .filter(lambda p: p.total_degree() >= 1)
            .map(lambda p: homogeneous_part(p, p.total_degree())),
            min_size=1,
            max_size=3,
        )
    )
    f = draw(polys(len(gens), 2))
    return a, b, values, gens, f


# Small groups by their generators: the cyclic groups C2..C6 in their least
# rational dimension (C5 by the companion matrix of 1 + t + t^2 + t^3 + t^4),
# the square's symmetries D4 and S3 permuting coordinates.
BASE_GROUPS = {
    "C2": [[[0, 1], [1, 0]]],
    "C3": [[[0, -1], [1, -1]]],
    "C4": [[[0, -1], [1, 0]]],
    "C5": [[[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]],
    "C6": [[[1, -1], [1, 0]]],
    "D4": [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
    "S3": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
}

_THIRD = Fraction(1, 3)

# Groups with both monomial and non-monomial elements: hexagonal D6 (the
# swap is monomial, the rotations are not), S3 permuting coordinates times
# the reflection I - (2/3)J, and D4 conjugated by [[2, 1], [0, 1]], whose
# only monomial elements are +-I.
MIXED_GROUPS = {
    "D6_hex": [[[1, -1], [1, 0]], [[0, 1], [1, 0]]],
    "S3xZ2": BASE_GROUPS["S3"]
    + [[[_THIRD - int(i != j) for j in range(3)] for i in range(3)]],
    "D4_frac": [
        [[Fraction(1, 2), Fraction(-5, 2)], [Fraction(1, 2), Fraction(-1, 2)]],
        [[1, -2], [0, -1]],
    ],
}


def is_monomial_matrix(m: RatMatrix) -> bool:
    """One nonzero entry in every row."""
    return all(sum(1 for c in m.row(i) if c) == 1 for i in range(m.rows))


@st.composite
def signed_permutations(draw, max_n: int = 4) -> list[RatMatrix]:
    """One or two signed permutation matrices of one size in 2..max_n."""
    n = draw(st.integers(2, max_n))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        gens.append(RatMatrix.from_rows(
            [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        ))
    return gens


def closed_or_reject(gens: list[RatMatrix], cap: int) -> MatGroup:
    """The group the matrices generate; hypothesis drops the example when it
    has more than cap elements."""
    try:
        return close_group(gens, cap=cap)
    except ClosureExceedsCap:
        assume(False)


@st.composite
def signed_permutation_groups(draw, max_n: int = 4, cap: int = 48) -> MatGroup:
    """Groups of order <= cap generated by signed permutations of Q^2..Q^max_n."""
    return closed_or_reject(draw(signed_permutations(max_n)), cap)


@st.composite
def conjugators(draw, n: int) -> tuple[RatMatrix, RatMatrix]:
    """A random invertible rational n x n matrix T and its inverse."""
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    t = RatMatrix.from_rows([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)])
    try:
        return t, t.inverse()
    except ValueError:
        assume(False)


@st.composite
def rational_conjugates(draw, names=("C2", "C3", "C4", "D4", "S3")) -> MatGroup:
    """T g T^-1 over the generators of one of the named groups, T random and rational."""
    gens = [RatMatrix.from_rows(g) for g in BASE_GROUPS[draw(st.sampled_from(sorted(names)))]]
    t, t_inv = draw(conjugators(gens[0].rows))
    return close_group([t @ g @ t_inv for g in gens])


@lru_cache(maxsize=None)
def mixed_group(name: str) -> MatGroup:
    return close_group([RatMatrix.from_rows(g) for g in MIXED_GROUPS[name]])


@lru_cache(maxsize=None)
def mixed_subsets(name: str) -> tuple[tuple[int, ...], ...]:
    """The 2- and 3-subsets of the element indices of MIXED_GROUPS[name]
    that hold a monomial and a non-monomial matrix and generate the whole
    group; at most C(12, 2) + C(12, 3) = 286 closures per group."""
    group = mixed_group(name)
    kinds = [is_monomial_matrix(m) for m in group.elements]
    return tuple(
        s
        for k in (2, 3)
        for s in combinations(range(group.order), k)
        if {kinds[i] for i in s} == {True, False}
        and close_group([group.matrix(i) for i in s]).order == group.order
    )


@st.composite
def mixed_generating_sets(draw) -> list[RatMatrix]:
    """Two or three elements of one of MIXED_GROUPS, at least one monomial
    and one not, that generate the whole group, in any order."""
    name = draw(st.sampled_from(sorted(MIXED_GROUPS)))
    picks = draw(st.permutations(draw(st.sampled_from(mixed_subsets(name)))))
    return [mixed_group(name).matrix(i) for i in picks]


GROUPS_DIR = Path(__file__).parent / "golden" / "groups"

# The pool the integer routes are held against their oracles on.
# name: (generators or golden group file, invariants bound, equivariants
# bound); None keeps the default.  -I on Q^3 and B3 have orbits that cancel
# (every monomial of odd degree, and under B3's sign changes every monomial
# with an odd exponent); d6_hex, S3xZ2 and BT mix monomial and non-monomial
# generators; d4_conj has no monomial generator, so every row leads; the
# generator of swap_frac, [[0,2],[1/2,0]], has entries that are not integers.
POOL = {
    "z2_line": ([[[-1]]], None, None),
    "z2_diag": ([[[-1, 0], [0, -1]]], None, None),
    "swap2": (BASE_GROUPS["C2"], None, None),
    "c4": (BASE_GROUPS["C4"], None, None),
    "s3": (BASE_GROUPS["S3"], None, None),
    "minus_i3": ([[[-int(i == j) for j in range(3)] for i in range(3)]], None, None),
    "b3": ("b3.json", 6, 5),
    "s4": ("s4.json", 4, 3),
    "d6_hex": ("d6_hex.json", None, None),
    "S3xZ2": ("S3xZ2", 6, 5),
    "bt": ("bt.json", 6, 1),
    "d4_conj": ("d4_conj.json", None, None),
    "swap_frac": ("swap_frac.json", None, None),
}


@lru_cache(maxsize=None)
def pool_group(name: str) -> MatGroup:
    """One pool group, closed once."""
    spec = POOL[name][0]
    if isinstance(spec, list):
        return close_group([RatMatrix.from_rows(g) for g in spec])
    if spec.endswith(".json"):
        return group_from_doc(json.loads((GROUPS_DIR / spec).read_text()))
    return mixed_group(spec)


@lru_cache(maxsize=None)
def pool_generators(name: str):
    """(invariant generators, module generators) of one pool group."""
    _, inv_bound, eq_bound = POOL[name]
    inv = invariant_ring_generators(pool_group(name), inv_bound)
    return inv, equivariant_module_generators(inv, eq_bound)
