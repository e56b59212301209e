"""Exact rational matrices and row reduction.

No floats enter: the degree-by-degree fixed-space computations downstream
are only trustworthy in exact arithmetic.  Vectors are plain lists of ints or
Fractions; matrices for elimination are lists of row lists.  RatMatrix is the
immutable matrix type used for group elements.  Immutable is the base of
every value type of the library: it refuses to set or delete an attribute.

All elimination runs one fraction-free step over the integers (_eliminate):
rows of ints are taken as they are, rows with a Fraction are cleared of
denominators (clear_denominators), and rows are combined as p*row -
f*pivot_row and divided by their content; the pivots are divided out only
when a result is read back as Fraction.  The incremental spans of Echelon
run it in add; kernel_basis, kernel_rref, solve_free_zero and the matrix
inverse fill an Echelon and run it once more to read back the reduced row
echelon form (_reduced_rows).  That form is unique, so it is the same as
Fraction elimination gives, and a span keeps the same rank and membership.

Rows come in two forms, both reduced by that step: lists in Echelon for the
kernels, solves and product spans, whose rows fill in, and dicts in
SparseEchelon for the hsop rank test and the relation multiples, whose rows
are shifts of a few terms (the measured split is under SparseEchelon).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence


def as_rational(x, what: str = "expected exact rational") -> Fraction:
    """x as a Fraction; ints and decimal or p/q strings are accepted, floats are not."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"{what}, got {type(x).__name__}")


class Immutable:
    """Slotted base of the value types.  Each constructor sets its slots with
    object.__setattr__; afterwards no attribute can be set or deleted.
    copy, deepcopy and pickle restore the slots through __setstate__, which
    sets them the same way."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():  # (None, slots) for a slotted object
            object.__setattr__(self, name, value)


class RatMatrix(Immutable):
    """Immutable matrix over the rationals, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        ents = tuple(as_rational(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(ents)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, (e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, (Fraction(int(i == j)) for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols, self.rows,
            (self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(D, A) with self = A / D: D the lcm of the denominators and A the
        integer numerators, row-major.  The pair is in lowest terms, so equal
        matrices give equal pairs."""
        den, nums = clear_denominators(self.entries)
        return den, tuple(nums)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other[k, j] for k in range(self.cols)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, out)

    def inverse(self) -> "RatMatrix":
        """The inverse, read off the reduced [M | I]; raises ValueError if singular."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        red, pivots = _reduced_rows([*self.row(i), *(int(i == j) for j in range(n))]
                                    for i in range(n))
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return RatMatrix(n, n, (Fraction(red[i][n + j], red[i][i]) for i in range(n) for j in range(n)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix[{body}]"


def block_diag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Block-diagonal stack of two matrices."""
    n, m = a.rows + b.rows, a.cols + b.cols
    ents = []
    for i in range(n):
        for j in range(m):
            if i < a.rows and j < a.cols:
                ents.append(a[i, j])
            elif i >= a.rows and j >= a.cols:
                ents.append(b[i - a.rows, j - a.cols])
            else:
                ents.append(Fraction(0))
    return RatMatrix(n, m, ents)


# ---------------------------------------------------------------------------
# Row reduction: one fraction-free elimination step.


def clear_denominators(xs: Sequence) -> tuple[int, list[int]]:
    """(D, A) with xs = A / D: D the lcm of the denominators of the ints or
    Fractions xs, and A their integer numerators over D."""
    den = lcm(*(x.denominator for x in xs))
    if den == 1:
        return 1, [x.numerator for x in xs]
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _eliminate(v: list[int], rows: list[list[int]], pivots: list[int]) -> list[int]:
    """The integer row v reduced against the rows, in order, wherever it is
    nonzero in their pivot: as a*v - b*row, with a and b the two pivot
    entries divided by their gcd, then divided by its content."""
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            g = gcd(row[p], f)
            a, b = row[p] // g, f // g
            v = [a * x - b * y for x, y in zip(v, row)]
            c = gcd(*v)
            if c > 1:
                v = [x // c for x in v]
    return v


class Echelon:
    """Incremental row space over the integers.

    add() returns True when the vector enlarges the span.  A vector is
    cleared of denominators only if it holds a Fraction (math.gcd refuses
    one), divided by its content into a new list, never the caller's, and
    reduced against the stored rows in insertion order (_eliminate).  One
    that stays nonzero is stored as a coprime integer row, with its pivot at
    its first nonzero entry.  Every stored row is zero in the pivots of the
    rows before it, so insertion-order elimination stays sound.
    """

    def __init__(self) -> None:
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[int]]:
        """The stored rows: an echelon form of the span, which kernel_basis
        reduces without combining two of them again."""
        return self._rows

    @property
    def pivots(self) -> list[int]:
        """The pivot column of each stored row: the span's pivot columns."""
        return self._pivots

    def add(self, vec: Sequence) -> bool:
        try:
            c = gcd(*vec) or 1
        except TypeError:  # a Fraction entry
            vec = clear_denominators(vec)[1]
            c = gcd(*vec) or 1
        v = _eliminate([x // c for x in vec], self._rows, self._pivots)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        self._rows.append(v)
        self._pivots.append(p)
        return True


class SparseEchelon:
    """Echelon on sparse rows, dicts from column to nonzero int, for
    invariants._ideal_spans_degree and _multiple_leads: shifts of a few terms
    over up to thousands of columns, which fill in as lists.  B4's rank test
    took 2.8 s on lists and 0.12 s on dicts; dicts for the product spans,
    kernels and solves cost the benchmark 2-8 %, so those stay on lists.
    add() clears the row at each stored pivot among its columns, ascending,
    by _eliminate's step and content division, and stores it with its pivot
    at its smallest column.  The rank and pivot set are the span's."""

    def __init__(self) -> None:
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return list(self._rows)

    def add(self, vec: dict[int, int]) -> bool:
        rows, v = self._rows, {k: x for k, x in vec.items() if x}
        todo = sorted(k for k in v if k in rows)  # a heap of v's pivot columns
        while v:
            c = gcd(*v.values())
            if c > 1:
                v = {k: x // c for k, x in v.items()}
            f = 0
            while todo and not f:
                p = heappop(todo)
                f = v.get(p, 0)
            if not f:
                rows[min(v)] = v
                return True
            row = rows[p]
            g = gcd(row[p], f)
            a, b = row[p] // g, f // g
            if a != 1:
                v = {k: a * x for k, x in v.items()}
            for k, y in row.items():
                x = v.get(k, 0) - b * y
                if x:
                    if k not in v and k in rows:
                        heappush(todo, k)
                    v[k] = x
                else:
                    del v[k]
        return False


def _reduced_rows(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form as integer rows, each a nonzero multiple
    of its rref row, and their pivot columns in ascending order.

    The rows go into an Echelon.  Its rows, sorted by pivot, are then
    reduced from the bottom up against the rows below them, which clears
    those rows' pivot columns.  A row is zero before its pivot, so in the
    pivot columns of the rows above it too: each row ends up zero in every
    other pivot column, and keeps its pivot.
    """
    span = Echelon()
    for row in rows:
        span.add(row)
    red: list[list[int]] = []
    pivots: list[int] = []
    for p, row in sorted(zip(span._pivots, span._rows), reverse=True):
        red.append(_eliminate(row, red, pivots))
        pivots.append(p)
    return red[::-1], pivots[::-1]


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space of the matrix.

    One vector per free column, in ascending free-column order, with a 1 in
    the free coordinate.
    """
    red, pivots = _reduced_rows(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(v)
    return basis


def kernel_rref(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """The reduced row echelon basis of the right null space.

    Eliminating with the column order reversed makes each kernel vector 1 on
    its free column, zero on the other free columns and supported otherwise
    on later columns only, so read back in the original order the vectors
    are already the unique rref of the kernel.
    """
    basis = kernel_basis([r[::-1] for r in rows], ncols)
    return [v[::-1] for v in reversed(basis)]


def solve_free_zero(
    rows: Sequence[Sequence[Fraction]], rhss: Sequence[Sequence[Fraction]]
) -> list[list[Fraction] | None]:
    """Solve A x = b exactly for each right-hand side b; free variables are
    set to zero.

    A is given by rows; unknowns correspond to columns.  [A | B], B the
    right-hand sides as columns, is reduced once.  A right-hand side is
    inconsistent exactly when a row with its pivot among B's columns is
    nonzero in its column; its entry in the result is None, and so is every
    entry when A has no rows.  With columns supplied in a canonical order,
    setting free variables to zero is the deterministic tie-break used
    throughout: each solution is supported on the earliest independent
    columns.
    """
    if not rows:
        return [None] * len(rhss)
    ncols = len(rows[0])
    red, pivots = _reduced_rows([*r, *bs] for r, bs in zip(rows, zip(*rhss)))
    rank = sum(p < ncols for p in pivots)
    out: list[list[Fraction] | None] = []
    for k in range(ncols, ncols + len(rhss)):
        if any(row[k] for row in red[rank:]):
            out.append(None)
            continue
        x = [Fraction(0)] * ncols
        for row, p in zip(red[:rank], pivots):
            x[p] = Fraction(row[k], row[p])
        out.append(x)
    return out
