"""Finite matrix groups as explicit element lists.

A group is built by breadth-first closure of its generators under
multiplication.  Finiteness does the work of compactness here: every
averaging sum in the library runs over the closed element list.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ClosureExceedsCap, DimensionMismatch, NonInvertibleGenerator
from .linalg import RatMatrix

DEFAULT_CAP = 10000


class MatGroup:
    """Closed list of invertible rational matrices.

    elements[0] is the identity; the remaining order is BFS insertion order
    from the generators, which makes the whole object deterministic.
    """

    __slots__ = ("n", "elements", "gen_indices", "_inverses", "_derived")

    def __init__(self, n: int, elements: Sequence[RatMatrix], gen_indices: Sequence[int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "gen_indices", tuple(gen_indices))
        index = {m: i for i, m in enumerate(self.elements)}
        inverses = []
        for m in self.elements:
            j = index.get(m.inverse())
            if j is None:
                raise ValueError("element list is not closed under inversion")
            inverses.append(j)
        object.__setattr__(self, "_inverses", tuple(inverses))
        # values that depend on the group alone (Molien series, generator
        # action tables), filled on first use by the module that computes them
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError("MatGroup is immutable")

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


def close_group(generators: Sequence[RatMatrix], cap: int = DEFAULT_CAP) -> MatGroup:
    """Breadth-first closure of the generators under multiplication.

    In a finite group the closure under products alone already contains the
    identity and all inverses.  Raises ClosureExceedsCap once the element
    count passes `cap`, turning a non-finite input into a clean error.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    n = generators[0].rows
    for g in generators:
        if not g.is_square or g.rows != n:
            raise DimensionMismatch(
                f"generators must all be square of one size; got {g.rows}x{g.cols} vs n={n}"
            )
        try:
            g.inverse()
        except ValueError:
            raise NonInvertibleGenerator(f"generator {g!r} is singular") from None

    identity = RatMatrix.identity(n)
    elements: list[RatMatrix] = [identity]
    seen = {identity: 0}
    frontier = [identity]
    while frontier:
        new_frontier: list[RatMatrix] = []
        for x in frontier:
            for g in generators:
                y = x @ g
                if y not in seen:
                    seen[y] = len(elements)
                    elements.append(y)
                    new_frontier.append(y)
                    if len(elements) > cap:
                        raise ClosureExceedsCap(
                            f"closure exceeded cap={cap}; group may not be finite"
                        )
        frontier = new_frontier
    gen_indices = [seen[g] for g in generators]
    return MatGroup(n, elements, gen_indices)
