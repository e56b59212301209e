"""Exact rational matrices and row reduction.

No floats enter: the degree-by-degree fixed-space computations downstream
are only trustworthy in exact arithmetic.  Vectors are plain lists of
Fraction; matrices for elimination are lists of row lists.  RatMatrix is the
immutable matrix type used for group elements.

All elimination (rref, kernel_basis, solve_free_zero, the matrix inverse,
the fixed-space kernels and the incremental spans of Echelon)
runs on fraction-free integer arithmetic: each row is cleared of
denominators, rows are combined as p*row - f*pivot_row and divided by their
content, and the pivots are divided out only when the result is read back as
Fraction.  The reduced row echelon form is unique, so it is the same as
Fraction elimination gives, and a span keeps the same rank and membership.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def as_rational(x, what: str = "expected exact rational") -> Fraction:
    """x as a Fraction; ints and decimal or p/q strings are accepted, floats are not."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"{what}, got {type(x).__name__}")


class RatMatrix:
    """Immutable matrix over the rationals, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        ents = tuple(as_rational(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(ents)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

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
        den = lcm(*(x.denominator for x in self.entries))
        return den, tuple(x.numerator * (den // x.denominator) for x in self.entries)

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
        """Gauss-Jordan inverse; raises ValueError if singular."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        red, pivots = _reduce([list(self.row(i)) + [int(i == j) for j in range(n)] for i in range(n)])
        if pivots[:n] != list(range(n)):
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
# Row reduction: one fraction-free Gauss-Jordan core over the integers.


def _integer_row(row: Sequence) -> list[int]:
    """The row (ints or Fractions) scaled to coprime integers."""
    den = lcm(*(x.denominator for x in row))
    if den == 1:
        ints = [int(x) for x in row]
    else:
        ints = [x.numerator * (den // x.denominator) for x in row]
    c = gcd(*ints)
    return ints if c <= 1 else [x // c for x in ints]


def _reduce(rows: Sequence[Sequence], npivot: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Returns integer rows and their pivot columns: row i is a positive
    multiple of row i of the reduced row echelon form, so it is zero in
    every other pivot column, and it has content 1.  Zero rows are dropped
    as soon as they appear; pivots are taken in the first column that has
    one, scanning rows top-down.  With npivot given, pivots are taken only
    in the first npivot columns, and the nonzero rows that are left without
    one follow the pivot rows.
    """
    ncols = len(rows[0]) if rows else 0
    m = [r for r in map(_integer_row, rows) if any(r)]
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols if npivot is None else npivot):
        sel = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if sel is None:
            continue
        m[pr], m[sel] = m[sel], m[pr]
        prow = m[pr]
        p = prow[pc]
        vanished = False
        for r, row in enumerate(m):
            f = row[pc]
            if f and r != pr:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                c = gcd(*row)
                if c > 1:
                    row = [x // c for x in row]
                m[r] = row
                vanished = vanished or c == 0
        if vanished:  # only a row below the pivot can vanish
            m = [row for row in m if any(row)]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    signed = [[-x for x in row] if row[pc] < 0 else row for row, pc in zip(m, pivots)]
    return signed + m[pr:], pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivots normalized to 1, zeros above and below)
    and the pivot column indices.  Column order is significant: pivots are
    always chosen in the first column, scanning rows top-down; this is what
    makes every downstream basis deterministic.
    """
    red, pivots = _reduce(rows)
    return [[Fraction(x, row[pc]) for x in row] for row, pc in zip(red, pivots)], pivots


class Echelon:
    """Incremental row space on the integer core.

    add() returns True when the vector enlarges the span.  Each vector is
    cleared of denominators and content, then reduced against the stored
    rows in insertion order as a*v - b*row, with a and b the pivot entries
    divided by their gcd, and divided by its content after every step.  A
    vector that stays nonzero is stored as a coprime integer row, with its
    pivot at its first nonzero entry.  Every stored row is zero in the
    pivots of the rows before it, so insertion-order elimination stays sound.
    """

    def __init__(self) -> None:
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence) -> bool:
        v = _integer_row(vec)
        for row, p in zip(self._rows, self._pivots):
            f = v[p]
            if f:
                g = gcd(row[p], f)
                a, b = row[p] // g, f // g
                v = [a * x - b * y for x, y in zip(v, row)]
                c = gcd(*v)
                if c > 1:
                    v = [x // c for x in v]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        self._rows.append(v)
        self._pivots.append(p)
        return True


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space of the matrix.

    One vector per free column, in ascending free-column order, with a 1 in
    the free coordinate.
    """
    red, pivots = _reduce(rows)
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
    right-hand sides as columns, is eliminated once, with pivots taken in
    A's columns only.  A right-hand side is inconsistent exactly when a row
    left with a zero A part is nonzero in its column; its entry in the
    result is None, and so is every entry when A has no rows.  With columns
    supplied in a canonical order, setting free variables to zero is the
    deterministic tie-break used throughout: each solution is supported on
    the earliest independent columns.
    """
    if not rows:
        return [None] * len(rhss)
    ncols = len(rows[0])
    red, pivots = _reduce([[*r, *bs] for r, bs in zip(rows, zip(*rhss))], ncols)
    unpivoted = red[len(pivots):]
    out: list[list[Fraction] | None] = []
    for k in range(ncols, ncols + len(rhss)):
        if any(row[k] for row in unpivoted):
            out.append(None)
            continue
        x = [Fraction(0)] * ncols
        for row, p in zip(red, pivots):
            x[p] = Fraction(row[k], row[p])
        out.append(x)
    return out
