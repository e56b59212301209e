"""Dimension-counting series for invariant and equivariant spaces.

For a finite matrix group G the series

    M(t)    = (1/|G|) sum_g 1 / det(I - t g^-1)
    M_eq(t) = (1/|G|) sum_g trace(g) / det(I - t g^-1)

have d-th coefficients equal to the dimensions of the degree-d invariant
polynomials and of the degree-d equivariant polynomial vector fields.  They
are the cross-checks for every fixed-space computation in this library.

Both series come from one pass over the group, cached on it.  Each element
g = A / D gives its power traces tr(g^m), m = 1..n, from the integer powers
A, A^2, ..., A^ceil(n/2) paired above half, tr(A^(a+b)) = sum_ij
(A^a)_ij (A^b)_ji, each divided by D^m.  The elements are counted per
distinct trace tuple, and Newton's identities turn each tuple into its
det(I - t g) once.  No inverse is needed: for g of finite order,
det(I - t g^-1) = det(I - t g), since the eigenvalues of g^-1 are the
complex conjugates of those of g and a real spectrum already contains them.
Its trace, the equivariant weight, is minus the t coefficient.

Univariate polynomials are plain coefficient lists, lowest degree first.
For g of finite order every det(I - t g) has integer coefficients, so the
sums over the group run on Python ints, and |G| joins the denominator.  The
reduction runs in integers too: MolienSeries clears the denominators of its
input once, cancels the gcd of numerator and denominator by primitive
remainders, and makes Fractions only for its reduced, normalized numerator
and denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchWithMolien
from .groups import MatGroup
from .linalg import Immutable, clear_denominators

UPoly = list[Fraction]


def _utrim(p: UPoly) -> UPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _umul(a: UPoly, b: UPoly) -> UPoly:
    """The product, in the coefficient type of a and b: Fractions or ints."""
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _utrim(out)


def _primitive(a: list[int]) -> list[int]:
    """a over the gcd of its coefficients, with a positive leading one."""
    content = gcd(*a)
    if a and a[-1] < 0:
        content = -content
    return [x // content for x in a] if content not in (0, 1) else a


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b over Q: each
    step scales the remainder by lead(b) before it cancels the top term."""
    rem, lead = list(a), b[-1]
    while len(rem) >= len(b):
        top, shift = rem[-1], len(rem) - len(b)
        rem = [lead * x for x in rem]
        for i, cb in enumerate(b):
            rem[shift + i] -= top * cb
        _utrim(rem)
    return rem


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two nonzero integer polynomials, by primitive
    remainders: every gcd over Q is a rational multiple of it."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials with b primitive, when b divides a over
    Q: by Gauss's lemma the quotient is integral, so each step divides
    exactly.  When b does not divide a, the result times b is not a."""
    rem, lead = list(a), b[-1]
    quot = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        q = quot[shift] = rem[shift + len(b) - 1] // lead
        if q:
            for i, cb in enumerate(b):
                rem[shift + i] -= q * cb
    return quot


class MolienSeries(Immutable):
    """A reduced rational function of t with memoized power-series expansion."""

    __slots__ = ("numer", "denom", "_coeffs")

    def __init__(self, numer: Sequence[Rational], denom: Sequence[Rational]) -> None:
        num_scale, num = clear_denominators(numer)
        den_scale, den = clear_denominators(denom)
        num, den = _utrim(num), _utrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = _primitive_gcd(num, den)
            if len(g) > 1:
                num, den = _exact_quotient(num, g), _exact_quotient(den, g)
        if den[0] == 0:
            raise ValueError("denominator vanishes at t=0; series expansion undefined")
        # (num / num_scale) / (den / den_scale), with the constant term of the
        # denominator normalized to one
        scale = num_scale * den[0]
        object.__setattr__(self, "numer", tuple(Fraction(x * den_scale, scale) for x in num))
        object.__setattr__(self, "denom", tuple(Fraction(x, den[0]) for x in den))
        object.__setattr__(self, "_coeffs", [])

    def coefficient(self, d: int) -> int:
        """The t^d coefficient; an exact non-negative dimension count.

        Raises DimensionMismatchWithMolien when it is negative or not an
        integer, since then the series counts no dimensions.
        """
        if d < 0:
            raise ValueError("degree must be non-negative")
        coeffs: list[Fraction] = self._coeffs
        while len(coeffs) <= d:
            k = len(coeffs)
            num_k = self.numer[k] if k < len(self.numer) else Fraction(0)
            acc = num_k
            for j in range(1, min(k, len(self.denom) - 1) + 1):
                acc -= self.denom[j] * coeffs[k - j]
            coeffs.append(acc)  # denom[0] == 1
        value = coeffs[d]
        if value.denominator != 1 or value < 0:
            raise DimensionMismatchWithMolien(
                f"series coefficient {value} at degree {d} is not a dimension"
            )
        return int(value)

    def coefficients(self, upto: int) -> list[int]:
        return [self.coefficient(d) for d in range(upto + 1)]

    def hsop_numerator(self, degrees: Sequence[int]) -> UPoly | None:
        """N(t) = M(t) * prod_i (1 - t^d_i), or None when it is not a polynomial.

        When homogeneous invariants of the degrees d_i form a system of
        parameters, N counts the degrees of a free basis over the ring they
        generate.
        """
        num_scale, num = clear_denominators(self.numer)
        for d in degrees:
            num = _umul(num, [1] + [0] * (d - 1) + [-1])
        den_scale, den = clear_denominators(self.denom)
        prim = _primitive(den)
        quot = _exact_quotient(num, prim)
        if _umul(quot, prim) != num:
            return None
        # num / num_scale over den / den_scale, with den = prim * content
        scale = num_scale * (den[-1] // prim[-1])
        return [Fraction(x * den_scale, scale) for x in quot]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MolienSeries):
            return NotImplemented
        return self.numer == other.numer and self.denom == other.denom

    def __repr__(self) -> str:
        def fmt(p: tuple) -> str:
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*t" if c != 1 else "t")
                else:
                    parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
            return " + ".join(parts).replace("+ -", "- ")

        return f"MolienSeries(({fmt(self.numer)}) / ({fmt(self.denom)}))"


def _power_traces(den: int, a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """tr(g^m) for m = 1..n, g = A / D with A the rows a and D = den.

    It forms A, A^2, ..., A^h, h = ceil(n/2), and pairs them above h:
    tr(A^(h+b)) = sum_ij (A^h)_ij (A^b)_ji.  For g of finite order tr(g^m)
    is a sum of roots of unity and rational, so an integer, and D^m divides
    tr(A^m).
    """
    n = len(a)
    half = (n + 1) // 2
    powers = [a]
    cols = list(zip(*a))
    for _ in range(half - 1):
        powers.append([[sum(map(mul, row, col)) for col in cols] for row in powers[-1]])
    top = [x for row in powers[-1] for x in row]
    traces = []
    for m in range(1, n + 1):
        if m <= half:
            t = sum(row[i] for i, row in enumerate(powers[m - 1]))
        else:
            t = sum(map(mul, top, (x for col in zip(*powers[m - half - 1]) for x in col)))
        q, r = divmod(t, den ** m)
        if r:
            raise DimensionMismatchWithMolien(
                f"internal: tr(g^{m}) = {Fraction(t, den ** m)} is not integral, "
                "so g has infinite order"
            )
        traces.append(q)
    return tuple(traces)


def _newton(traces: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients c_k of det(I - t g) from p_m = tr(g^m), by Newton's
    identities: c_0 = 1 and k c_k = -(p_1 c_(k-1) + ... + p_k c_0)."""
    coeffs = [1]
    for k in range(1, len(traces) + 1):
        c_k, r = divmod(-sum(p * c for p, c in zip(traces, reversed(coeffs))), k)
        if r:
            raise DimensionMismatchWithMolien(
                f"internal: the t^{k} coefficient of det(I - t g) is not integral, "
                "so g has infinite order"
            )
        coeffs.append(c_k)
    return tuple(_utrim(coeffs))


def _trace_tuples(group: MatGroup):
    """(tr(g), tr(g^2), ..., tr(g^n)) for each element g, in index order,
    each from the element's integer rows (_power_traces)."""
    for key in group.keys:
        parts = [group.rows[r] for r in key]
        den = lcm(*(d for d, _ in parts))
        yield _power_traces(den, [v if d == den else [x * (den // d) for x in v] for d, v in parts])


def _determinants(group: MatGroup) -> dict[tuple[int, ...], int]:
    """How many elements g have each det(I - t g), keyed by its integer
    coefficients: one pass over the group, shared by both series.  Newton's
    identities turn each distinct trace tuple into its determinant once."""
    def count():
        counts: dict[tuple[int, ...], int] = {}
        for traces in _trace_tuples(group):
            counts[traces] = counts.get(traces, 0) + 1
        return {_newton(traces): count for traces, count in counts.items()}

    return group.derived("det_one_minus_t", count)


def _averaged_series(group: MatGroup, equivariant: bool) -> MolienSeries:
    """(1/|G|) sum_g w_g / det(I - t g^-1) as one reduced fraction, with
    w_g = trace(g) for the equivariant series and 1 otherwise.

    The sum has one term per distinct det(I - t g), which is det(I - t g^-1)
    (see above), weighted by the number of elements that share it; the
    reduced, normalized fraction is the same as the sum over every element.
    Numerator and denominator are cross-multiplied in integers, and |G|
    joins the denominator.
    """
    num: list[int] = []
    den = [1]
    for d_g, count in _determinants(group).items():
        trace = -d_g[1] if len(d_g) > 1 else 0
        weight = count * trace if equivariant else count
        if weight == 0:
            continue
        num = _umul(num, d_g)
        num += [0] * (len(den) - len(num))
        for i, x in enumerate(den):
            num[i] += weight * x
        _utrim(num)
        den = _umul(den, d_g)
    return MolienSeries(num, [group.order * x for x in den])


def _series(group: MatGroup, equivariant: bool) -> MolienSeries:
    """The series, built once per group: a generator loop and the CLI command
    that writes its output both ask for it."""
    return group.derived(("molien", equivariant), lambda: _averaged_series(group, equivariant))


def molien(group: MatGroup) -> MolienSeries:
    """Series whose t^d coefficient is dim of the degree-d invariants."""
    return _series(group, equivariant=False)


def molien_equivariant(group: MatGroup) -> MolienSeries:
    """Series whose t^d coefficient is dim of the degree-d equivariant fields."""
    return _series(group, equivariant=True)
