"""Finite matrix groups as explicit element lists.

A group is built by breadth-first closure of its generators under
multiplication.  Finiteness does the work of compactness here: every
averaging sum in the library runs over the closed element list.

The closure is an orbit algorithm (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 4.1).  It first closes the coordinate rows e_i
under r -> r g_k for every generator g_k: a finite set R of row vectors,
since every row of every element lies in it, with one index table per
generator.  An element is then keyed by the R-indices of its n rows.  Row i
of x g_k is (row i of x) g_k, so the key of a child is read off the parent's
key through the generator's table: n lookups and no matrix product.  The
closure inverts only the generators, to refuse a singular one; an element's
inverse is the inverse of its matrix, built only when it is asked for.

Rows are kept in integers, as lowest-terms pairs (D, A): D the lcm of the
row's denominators and A its integer numerators, so equal rows have equal
pairs.  No element's RatMatrix is built until it is asked for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd
from operator import mul
from typing import Sequence

from .errors import ClosureExceedsCap, DimensionMismatch, NonInvertibleGenerator
from .linalg import Immutable, RatMatrix

DEFAULT_CAP = 10000

Row = tuple[int, tuple[int, ...]]


class MatGroup(Immutable):
    """Closed list of invertible rational matrices.

    rows are the row vectors of the elements, each as a lowest-terms pair
    (D, A) for A / D, and keys[i] holds the indices into rows of the n rows
    of element i.  keys[0] is the identity; the remaining order is BFS
    insertion order from the generators, which makes the whole object
    deterministic.  The RatMatrix of an element is built on first use
    (matrix), as is that of its inverse (inverse), and every element's only
    when elements is read.  Values that depend on the group alone (element
    matrices and inverses, Molien series, generator action tables) are
    memoised on it, through derived.
    """

    __slots__ = ("n", "rows", "keys", "gen_indices", "_derived")

    def __init__(
        self, n: int, rows: Sequence[Row], keys: Sequence[tuple[int, ...]],
        gen_indices: Sequence[int],
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "gen_indices", tuple(gen_indices))
        object.__setattr__(self, "_derived", {})

    def derived(self, key, compute):
        """The value memoised under key, computed as compute() on first use."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    @property
    def order(self) -> int:
        return len(self.keys)

    @property
    def elements(self) -> tuple[RatMatrix, ...]:
        """Every element's RatMatrix, in index order."""
        return self.derived("elements", lambda: tuple(map(self.matrix, range(self.order))))

    def matrix(self, idx: int) -> RatMatrix:
        return self.derived(("matrix", idx), partial(self._element, idx))

    def _element(self, idx: int) -> RatMatrix:
        rows = [self.rows[r] for r in self.keys[idx]]
        return RatMatrix(self.n, self.n, [Fraction(x, den) for den, nums in rows for x in nums])

    def inverse(self, idx: int) -> RatMatrix:
        """The inverse of element idx's matrix."""
        return self.derived(("inverse", idx), lambda: self.matrix(idx).inverse())

    def __repr__(self) -> str:
        return f"MatGroup(n={self.n}, order={self.order})"


def _lowest(den: int, nums) -> Row:
    """(den, nums) divided by their gcd, nums as a tuple."""
    c = gcd(den, *nums)
    if c > 1:
        return den // c, tuple(x // c for x in nums)
    return den, tuple(nums)


def _row_orbit(gens: list[Row], n: int, cap: int):
    """R, the orbit of the coordinate rows e_i under r -> r g_k, and one
    table per generator: tables[k][r] is the index of R[r] g_k.  R holds
    the rows of every element, at most n of each, so past n * cap rows the
    group has more than cap elements."""
    cols = [[nums[j::n] for j in range(n)] for _, nums in gens]
    rows: list[Row] = [(1, tuple(int(i == j) for j in range(n))) for i in range(n)]
    index = {r: i for i, r in enumerate(rows)}
    tables: list[list[int]] = [[] for _ in gens]
    for den, nums in rows:  # rows grows as it is read: a FIFO queue
        for (g_den, _), g_cols, table in zip(gens, cols, tables):
            y = _lowest(den * g_den, [sum(map(mul, nums, col)) for col in g_cols])
            j = index.get(y)
            if j is None:
                j = index[y] = len(rows)
                rows.append(y)
                if len(rows) > n * cap:
                    raise ClosureExceedsCap(f"closure exceeded cap={cap}; group may not be finite")
            table.append(j)
    return rows, tables


def close_group(generators: Sequence[RatMatrix], cap: int = DEFAULT_CAP) -> MatGroup:
    """Breadth-first closure of the generators under multiplication.

    In a finite group the closure under products alone already contains the
    identity and all inverses.  Raises ClosureExceedsCap once the element
    count passes `cap`, turning a non-finite input into a clean error.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    n = generators[0].rows
    if n < 1:
        raise DimensionMismatch("generators must be at least 1x1")
    for g in generators:
        if not g.is_square or g.rows != n:
            raise DimensionMismatch(
                f"generators must all be square of one size; got {g.rows}x{g.cols} vs n={n}"
            )
        try:
            g.inverse()  # only to refuse a singular generator
        except ValueError:
            raise NonInvertibleGenerator(f"generator {g!r} is singular") from None

    rows, tables = _row_orbit([g.integer_form() for g in generators], n, cap)
    identity = tuple(range(n))
    keys = [identity]
    seen = {identity: 0}
    for key in keys:  # keys grows as it is read: a FIFO queue
        for table in tables:
            y = tuple(map(table.__getitem__, key))
            if y not in seen:
                seen[y] = len(keys)
                keys.append(y)
                if len(keys) > cap:
                    raise ClosureExceedsCap(
                        f"closure exceeded cap={cap}; group may not be finite"
                    )
    return MatGroup(n, rows, keys, [seen[tuple(table[:n])] for table in tables])
