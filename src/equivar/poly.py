"""Sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients.
The variable count is fixed per polynomial: n for ordinary polynomials in
x_1..x_n, 2n for phase polynomials in x_1..x_n, xi_1..xi_n (x block first).

The canonical monomial order everywhere is graded lexicographic: compare
total degree, then the exponent tuple itself (earlier variables weigh more).
All iteration, serialization, and pivoting follow that order, which is what
makes every result of this library reproducible bit for bit.

MultiPoly has two constructors.  The public MultiPoly(nvars, terms) checks
every term: integral non-negative exponents of the right count, exact
rational coefficients, duplicates merged and zeros dropped.  The internal
MultiPoly._of(nvars, terms) checks nothing; it wraps a dict the library
built itself from valid terms, keyed by int tuples of length nvars with
nonzero Fraction values, and every arithmetic result goes through it.

ProductTable is the one integer engine for products of homogeneous
polynomials and substitutions into them.  The invariant generators' table
gives the generator products, the module products p^a W_j of the
equivariant fields, f(p_1, ..., p_k) and the directional derivatives
X(p_i) = sum_j X_j dp_i/dx_j of a field; a group generator's table of the
linear forms of its substitution gives the images of the monomials, which
the fixed spaces and the invariance checks read.  Its results are graded
integer columns: by degree d, (numerators over monomials_of_degree(n, d),
one positive denominator).

Those rows come from one read-only monomial table per (n, d), kept for the
whole process and shared with the orbit sums and the hsop rank test
(_monomial_table).  It reads the one enumerator, _weighted_monomials, with
weights 1; the public lists are fresh copies.  A table holds C(n + d - 1, d)
monomials: 20,349 for S6's rank test at d = 16.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch
from .linalg import Immutable, RatMatrix, as_rational, clear_denominators

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(exps), exps)


def monomials_of_degree(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given total degree, in descending grlex order."""
    return list(_monomial_table(nvars, degree)[0])


def weighted_monomials(weights: Sequence[int], total: int) -> list[Exponents]:
    """Exponent tuples a with sum a_i * weights_i == total, descending grlex."""
    return list(_weighted_monomials(tuple(weights), total))


@cache
def _weighted_monomials(weights: tuple[int, ...], total: int) -> tuple[Exponents, ...]:
    """The one enumerator of monomial lists: weighted_monomials, kept for the
    whole process, so read-only.  The recursion yields descending lex order,
    and a stable sort by descending total degree keeps it among equal
    degrees, which is descending grlex."""
    def rec(i: int, remaining: int) -> list[Exponents]:
        if i == len(weights):
            return [()] if remaining == 0 else []
        return [(e,) + rest for e in range(remaining // weights[i], -1, -1)
                for rest in rec(i + 1, remaining - e * weights[i])]

    return tuple(sorted(rec(0, total), key=sum, reverse=True))


@cache
def _monomial_table(nvars: int, degree: int) -> tuple[tuple[Exponents, ...], tuple[int, ...], dict[int, int]]:
    """The degree-d monomials in n variables in descending grlex order (the
    weighted monomials of weights 1), their packed keys (_pack) and the row
    of each key, built on first use and shared, read-only, by every caller
    for the rest of the process."""
    monos = _weighted_monomials((1,) * nvars, degree)
    keys = tuple(map(_pack, monos))
    return monos, keys, {k: j for j, k in enumerate(keys)}


_COEFFICIENT = "coefficient must be an exact rational"


class MultiPoly(Immutable):
    """Immutable sparse polynomial with exact rational coefficients.

    MultiPoly(nvars, terms) validates its terms (a mapping or pairs of
    exponents and coefficient): exponents must be integers (operator.index),
    non-negative and nvars of them; coefficients must be exact rationals.
    Results of arithmetic are built by _of, which trusts its dict.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | Iterable = ()) -> None:
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, Fraction] = {}
        for exps, c in items:
            e = tuple(int(operator.index(x)) for x in exps)
            if len(e) != nvars:
                raise DimensionMismatch(f"exponent tuple {e} has length {len(e)}, expected {nvars}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = as_rational(c, _COEFFICIENT)
            if c == 0:
                continue
            c0 = acc.get(e)
            if c0 is None:
                acc[e] = c
            else:
                s = c0 + c
                if s == 0:
                    del acc[e]
                else:
                    acc[e] = s
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", acc)

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """Wrap terms unchecked and without a copy: a dict keyed by int
        tuples of length nvars with nonzero Fraction values, built by the
        library from valid terms and owned by the result from now on."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "_terms", terms)
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.sorted_terms())

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def leading_term(self) -> tuple[Exponents, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms, key=grlex_key)
        return e, self._terms[e]

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly._of(self.nvars, out)

    def __radd__(self, other) -> "MultiPoly":
        if other == 0:  # lets sum() start from 0
            return self
        return NotImplemented

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly._of(self.nvars, {})
            return MultiPoly._of(self.nvars, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return dot((self,), (other,))

    def __rmul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def monic(self) -> "MultiPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero:
            return self
        _, c = self.leading_term()
        return self * (1 / c)

    # -- calculus and structure --------------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range for {self.nvars} variables")
        out: dict[Exponents, Fraction] = {}
        for e, c in self._terms.items():
            k = e[index]
            if k == 0:
                continue
            # lowering one exponent is injective, so no two terms meet
            out[e[:index] + (k - 1,) + e[index + 1 :]] = c * k
        return MultiPoly._of(self.nvars, out)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point length {len(point)} != {self.nvars} variables")
        vals = [as_rational(v, _COEFFICIENT) for v in point]
        total = Fraction(0)
        for e, c in self._terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def substitute(self, values: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute a polynomial for each variable.

        All substituted polynomials must share a variable count m; the result
        lives in m variables.
        """
        if len(values) != self.nvars:
            raise DimensionMismatch(f"{len(values)} values for {self.nvars} variables")
        if self.nvars == 0:
            raise ValueError("cannot substitute into a polynomial with no variables")
        m = values[0].nvars
        if any(v.nvars != m for v in values):
            raise DimensionMismatch("substituted polynomials disagree on variable count")
        powers: dict[tuple[int, int], MultiPoly] = {}

        def pw(i: int, k: int) -> MultiPoly:
            got = powers.get((i, k))
            if got is None:
                got = values[i] ** k
                powers[(i, k)] = got
            return got

        acc: dict[Exponents, Fraction] = {}
        for e, c in self._terms.items():
            factors = [pw(i, k) for i, k in enumerate(e) if k]
            term = factors[0] if factors else MultiPoly.constant(m, 1)
            for f in factors[1:]:
                term = term * f
            for e2, c2 in term._terms.items():
                acc[e2] = acc.get(e2, 0) + c * c2
        return MultiPoly._of(m, {e: c for e, c in acc.items() if c})

    def compose_linear(self, matrix: RatMatrix) -> "MultiPoly":
        """Return q with q(x) = p(M x).

        Maps homogeneous degree-d components to degree d.
        """
        if not matrix.is_square or matrix.rows != self.nvars:
            raise DimensionMismatch(
                f"matrix is {matrix.rows}x{matrix.cols}, polynomial has {self.nvars} variables"
            )
        n = self.nvars
        linear = [
            MultiPoly(n, {tuple(int(j == k) for k in range(n)): matrix[i, j] for j in range(n)})
            for i in range(n)
        ]
        return self.substitute(linear)

    # -- display ------------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = [
                names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k
            ]
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = "*".join(([] if mag == 1 else [str(mag)]) + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"MultiPoly({self.format()})"


def variables(nvars: int) -> tuple[MultiPoly, ...]:
    """Convenience: the n coordinate polynomials."""
    return tuple(MultiPoly.variable(nvars, i) for i in range(nvars))


def dot(xs: Sequence[MultiPoly], ys: Sequence[MultiPoly]) -> MultiPoly:
    """sum_i xs[i] * ys[i] for a nonempty list of pairs in one variable
    count, accumulated in one dict: no partial sum is built."""
    nvars = xs[0].nvars
    out: dict[Exponents, Fraction] = {}
    get, add = out.get, operator.add
    for x, y in zip(xs, ys, strict=True):
        if x.nvars != nvars or y.nvars != nvars:
            raise DimensionMismatch(f"variable counts differ: {x.nvars} and {y.nvars}, expected {nvars}")
        for ea, ca in x._terms.items():
            for eb, cb in y._terms.items():
                e = tuple(map(add, ea, eb))
                s = get(e)
                out[e] = ca * cb if s is None else s + ca * cb
    return MultiPoly._of(nvars, {e: c for e, c in out.items() if c})


class ProductTable:
    """Coefficient columns of the generator products p^a, memoised by a.

    The column of p^a holds its coefficients over monomials_of_degree(n, d),
    d = sum_i a_i degrees[i], in descending graded-lex order, as integer
    numerators over one positive denominator.  A new column is one cached
    column times one generator, col(a) = col(a - e_i) * p_i with i the last
    nonzero index of a, so each product costs a single multiplication by a
    generator however high its degree; times() multiplies a cached column by
    any other homogeneous polynomial the same way, and directional() a field
    by the generators' partial derivatives.  Keys drop trailing zero
    exponents, so every column stays valid while generators are appended.
    The table keeps columns, not MultiPoly values: a dense list of ints is
    much smaller than a dict of Fractions.  Inside, a monomial is packed into
    one int, _SHIFT bits per exponent, so that multiplying monomials is
    adding ints; every product is summed by one loop, _dot, over the rows
    of the shared table of its degree (_monomial_table).
    """

    __slots__ = ("n", "degrees", "_gens", "_cols")

    def __init__(self, n: int, gens: Sequence[MultiPoly] = ()) -> None:
        self.n = n
        self.degrees: list[int] = []
        self._gens: list[tuple[int, list[tuple[int, int]]]] = []
        self._cols: dict[Exponents, tuple[list[int], int]] = {(): ([1], 1)}
        for p in gens:
            self.append(p)

    def append(self, p: MultiPoly) -> None:
        """Add a homogeneous generator as the next variable."""
        self._gens.append(_packed(p))
        self.degrees.append(p.total_degree())

    def column(self, a: Sequence[int]) -> tuple[list[int], int]:
        """(numerators, denominator) of p^a over monomials_of_degree(n, sum_i a_i deg(p_i))."""
        key = _strip(tuple(a))
        chain = []
        a = key
        while a not in self._cols:
            prev = _strip(a[:-1] + (a[-1] - 1,))
            chain.append((a, prev))
            a = prev
        for a, prev in reversed(chain):
            i = len(a) - 1
            nums, den = self._cols[prev]
            gden, terms = self._gens[i]
            self._cols[a] = (self._times(nums, self._weight(prev), terms, self.degrees[i]), den * gden)
        return self._cols[key]

    def times(self, a: Sequence[int], p: MultiPoly) -> tuple[list[int], int]:
        """(numerators, denominator) of p^a * p over monomials_of_degree(n, deg p^a + deg p),
        for a nonzero homogeneous p; the product itself is not cached."""
        nums, den = self.column(a)
        pden, terms = _packed(p)
        return self._times(nums, self._weight(a), terms, p.total_degree()), den * pden

    def columns(self, comps: Sequence[MultiPoly]) -> dict[int, tuple[list[int], int]]:
        """The homogeneous parts of r polynomials in the n variables as one
        graded integer column each: component i of the degree-d part in row
        alpha * r + i, alpha over monomials_of_degree(n, d), over the lcm of the part's
        denominators.  Degrees where every component vanishes are left out."""
        r = len(comps)
        out = {}
        for d, (den, parts) in _packed_by_degree(comps).items():
            index = _monomial_table(self.n, d)[2]
            col = [0] * (r * len(index))
            for i, terms in enumerate(parts):
                for k, c in terms:
                    col[index[k] * r + i] = c
            out[d] = (col, den)
        return out

    def directional(self, comps: Sequence[MultiPoly]) -> list[dict[int, tuple[list[int], int]]]:
        """X(p_i) = sum_j X_j dp_i/dx_j for each generator p_i, X the field
        with components comps, as graded integer columns: no Fraction is
        multiplied.  The field's parts are packed once per degree e over one
        denominator, and each X(p_i)_(e + deg p_i - 1) is summed in one pass
        of _dot over the packed partial derivatives of p_i.  Degrees where
        X(p_i) vanishes are left out."""
        parts = _packed_by_degree(comps)
        out = []
        for (gden, terms), deg in zip(self._gens, self.degrees):
            partials = [_packed_diff(terms, self.n, j) for j in range(self.n)]
            graded = {}
            for e, (den, packed) in parts.items():
                nums = self._dot(zip(packed, partials), e + deg - 1)
                if any(nums):
                    graded[e + deg - 1] = (nums, den * gden)
            out.append(graded)
        return out

    def substitution(self, f: MultiPoly) -> dict[int, tuple[list[int], int]]:
        """f(p_1, ..., p_k) as graded integer columns, read off the table as
        sum_a c_a col(a): the terms of each degree are summed in integers over
        the lcm of their denominators, so no product is multiplied out again."""
        if f.nvars != len(self._gens):
            raise DimensionMismatch(f"{f.nvars} variables for a table of {len(self._gens)} polynomials")
        parts: dict[int, list[tuple[Fraction, list[int], int]]] = {}
        for a, c in f.sorted_terms():
            nums, den = self.column(a)
            parts.setdefault(self._weight(a), []).append((c, nums, den))
        out = {}
        for d, part in parts.items():
            common = lcm(*(c.denominator * den for c, _, den in part))
            total = [0] * len(part[0][1])
            for c, nums, den in part:
                s = c.numerator * (common // (c.denominator * den))
                total = [t + s * x for t, x in zip(total, nums)]
            out[d] = (total, common)
        return out

    def substitute(self, f: MultiPoly) -> MultiPoly:
        """f(p_1, ..., p_k) in the n variables: the polynomial of its columns
        (substitution)."""
        return self.polynomial(self.substitution(f))

    def polynomial(self, graded: dict[int, tuple[list[int], int]]) -> MultiPoly:
        """The polynomial in the n variables with these graded columns (r = 1)."""
        terms: dict[Exponents, Fraction] = {}
        for d, (nums, den) in graded.items():
            terms.update((e, Fraction(t, den)) for e, t in zip(_monomial_table(self.n, d)[0], nums) if t)
        return MultiPoly._of(self.n, terms)

    def _times(self, nums: list[int], d: int, terms: list[tuple[int, int]], e: int) -> list[int]:
        """The numerators of a degree-d column times packed degree-e terms."""
        return self._dot([(zip(_monomial_table(self.n, d)[1], nums), terms)], d + e)

    def _dot(self, pairs, d: int) -> list[int]:
        """The numerators over monomials_of_degree(n, d) of sum xs * ys over the pairs
        (xs, ys) of packed terms, (packed monomial, numerator) pairs whose
        products have degree d: the one product loop of the table."""
        index = _monomial_table(self.n, d)[2]
        out = [0] * len(index)
        for xs, ys in pairs:
            for k, c in xs:
                if c:
                    for m, tc in ys:
                        out[index[k + m]] += c * tc
        return out

    def _weight(self, a: Sequence[int]) -> int:
        return sum(x * w for x, w in zip(a, self.degrees))


# Bits per exponent in a packed monomial: exponents stay far below 2**32,
# so adding packed monomials never carries from one exponent into the next.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def _pack(e: Exponents) -> int:
    key = 0
    for x in e:
        key = (key << _SHIFT) | x
    return key


def _packed(p: MultiPoly) -> tuple[int, list[tuple[int, int]]]:
    """p as (den, [(packed monomial, numerator)]) with p = sum num x^e / den."""
    terms = p.sorted_terms()
    den, nums = clear_denominators([c for _, c in terms])
    return den, [(_pack(e), x) for (e, _), x in zip(terms, nums)]


def _packed_by_degree(comps: Sequence[MultiPoly]) -> dict[int, tuple[int, list[list[tuple[int, int]]]]]:
    """The homogeneous parts of polynomials, packed: degree d -> (den, the
    packed terms of each polynomial's degree-d part as numerators over den),
    den the lcm of the part's denominators, degrees ascending."""
    grouped: dict[int, list[list[tuple[Exponents, Fraction]]]] = {}
    for i, p in enumerate(comps):
        for e, c in p._terms.items():
            grouped.setdefault(sum(e), [[] for _ in comps])[i].append((e, c))
    out = {}
    for d in sorted(grouped):
        parts = grouped[d]
        den, nums = clear_denominators([c for part in parts for _, c in part])
        it = iter(nums)
        out[d] = (den, [[(_pack(e), next(it)) for e, _ in part] for part in parts])
    return out


def _packed_diff(terms: list[tuple[int, int]], n: int, j: int) -> list[tuple[int, int]]:
    """d/dx_j of packed terms in n variables: each term with a positive
    exponent k of x_j, that exponent lowered by one and its numerator times k."""
    shift = _SHIFT * (n - 1 - j)
    out = []
    for key, c in terms:
        k = (key >> shift) & _MASK
        if k:
            out.append((key - (1 << shift), c * k))
    return out


def _strip(a: Exponents) -> Exponents:
    while a and not a[-1]:
        a = a[:-1]
    return a
