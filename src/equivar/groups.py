"""Finite matrix groups as explicit element lists.

A group is built by breadth-first closure of its generators under
multiplication.  Finiteness does the work of compactness here: every
averaging sum in the library runs over the closed element list.

The closure runs in integers.  Each element is keyed by its lowest-terms
pair (D, A): D the lcm of its denominators and A its integer numerators,
row-major, so equal matrices have equal keys.  Each new element y = x g
records the element x and the generator g it came from, which gives its
inverse as y^-1 = g^-1 x^-1: only the generators are ever inverted.  The
RatMatrix of each element is built once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .errors import ClosureExceedsCap, DimensionMismatch, NonInvertibleGenerator
from .linalg import Immutable, RatMatrix

DEFAULT_CAP = 10000

Key = tuple[int, tuple[int, ...]]


class MatGroup(Immutable):
    """Closed list of invertible rational matrices.

    elements[0] is the identity; the remaining order is BFS insertion order
    from the generators, which makes the whole object deterministic.
    inverses[i] is the index of the inverse of elements[i].  Values that
    depend on the group alone (Molien series, generator action tables) are
    memoised on it, through derived.
    """

    __slots__ = ("n", "elements", "gen_indices", "_inverses", "_derived")

    def __init__(
        self, n: int, elements: Sequence[RatMatrix], gen_indices: Sequence[int],
        inverses: Sequence[int],
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "gen_indices", tuple(gen_indices))
        object.__setattr__(self, "_inverses", tuple(inverses))
        object.__setattr__(self, "_derived", {})

    def derived(self, key, compute):
        """The value memoised under key, computed as compute() on first use."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    @property
    def order(self) -> int:
        return len(self.elements)

    def matrix(self, idx: int) -> RatMatrix:
        return self.elements[idx]

    def inverse_index(self, idx: int) -> int:
        """Index of the inverse of elements[idx]."""
        return self._inverses[idx]

    def __repr__(self) -> str:
        return f"MatGroup(n={self.n}, order={self.order})"


def _product(a: Key, b: Key, n: int) -> Key:
    """The key of the product of the matrices keyed a and b."""
    den, nums = a[0] * b[0], a[1]
    rows = [nums[i * n:(i + 1) * n] for i in range(n)]
    cols = [b[1][j::n] for j in range(n)]
    prod = tuple(sum(map(mul, row, col)) for row in rows for col in cols)
    if den > 1:
        c = gcd(den, *prod)
        if c > 1:
            den, prod = den // c, tuple(x // c for x in prod)
    return den, prod


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
    gen_inverses = []
    for g in generators:
        if not g.is_square or g.rows != n:
            raise DimensionMismatch(
                f"generators must all be square of one size; got {g.rows}x{g.cols} vs n={n}"
            )
        try:
            gen_inverses.append(g.inverse().integer_form())
        except ValueError:
            raise NonInvertibleGenerator(f"generator {g!r} is singular") from None

    gens = [g.integer_form() for g in generators]
    identity = RatMatrix.identity(n).integer_form()
    keys: list[Key] = [identity]
    # words[i] = (index of x, generator k) with elements[i] = x g_k
    words: list[tuple[int, int]] = [(0, -1)]
    seen = {identity: 0}
    for x, key in enumerate(keys):  # keys grows as it is read: a FIFO queue
        for k, g in enumerate(gens):
            y = _product(key, g, n)
            if y not in seen:
                seen[y] = len(keys)
                keys.append(y)
                words.append((x, k))
                if len(keys) > cap:
                    raise ClosureExceedsCap(
                        f"closure exceeded cap={cap}; group may not be finite"
                    )

    inverses = [0]
    for x, k in words[1:]:
        j = seen.get(_product(gen_inverses[k], keys[inverses[x]], n))
        if j is None:
            raise ValueError("element list is not closed under inversion")
        inverses.append(j)
    elements = [RatMatrix(n, n, [Fraction(x, den) for x in nums]) for den, nums in keys]
    return MatGroup(n, elements, [seen[g] for g in gens], inverses)
