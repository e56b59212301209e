"""Small exact-rational helpers for building inputs and checking outputs.

The benchmark builds its groups and fields, and checks the program's answers,
with this code rather than with equivar's own classes, so a check never
trusts the code it is checking.  Polynomials are dicts from exponent tuples
to Fractions; matrices are tuples of row tuples of Fractions, or of ints
where all entries are integers, which keeps integer work fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Poly = dict[tuple[int, ...], Fraction]


# -- matrices ----------------------------------------------------------------


def matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def perm_matrix(perm: Sequence[int]) -> Matrix:
    """Matrix sending basis vector e_j to e_perm[j]."""
    n = len(perm)
    return tuple(tuple(Fraction(int(perm[j] == i)) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in a)


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(x * y for x, y in zip(r, v)) for r in a]


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            raise ValueError("singular matrix")
        aug[c], aug[p] = aug[p], aug[c]
        inv_p = 1 / aug[c][c]
        aug[c] = [x * inv_p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(r[n:]) for r in aug)


def close(gens: Sequence[Matrix], cap: int = 10000) -> list[Matrix]:
    """All products of the generators (a finite group), identity first."""
    elements = [identity(len(gens[0]))]
    seen = set(elements)
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        if len(elements) > cap:
            raise ValueError("group closure exceeded the cap")
        frontier = nxt
    return elements


def matrix_to_doc(a: Matrix) -> list:
    return [[str(x) for x in r] for r in a]


def matrix_from_doc(doc) -> Matrix:
    return tuple(tuple(Fraction(x) for x in r) for r in doc)


# -- polynomials -------------------------------------------------------------


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(a: Poly, c: Fraction) -> Poly:
    return {e: c * x for e, x in a.items()} if c else {}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_pow(a: Poly, k: int, nvars: int) -> Poly:
    out: Poly = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_eval(p: Poly, x: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for v, k in zip(x, e):
            if k:
                term *= v**k
        total += term
    return total


def poly_deriv_eval(p: Poly, j: int, x: Sequence[Fraction]) -> Fraction:
    """Value of the partial derivative d p / d x_j at x."""
    total = Fraction(0)
    for e, c in p.items():
        if not e[j]:
            continue
        term = c * e[j]
        for i, (v, k) in enumerate(zip(x, e)):
            k = k - 1 if i == j else k
            if k:
                term *= v**k
        total += term
    return total


def poly_from_doc(doc) -> Poly:
    return {tuple(t["e"]): Fraction(t["c"]) for t in doc["terms"]}


def poly_to_doc(p: Poly, nvars: int) -> dict:
    """Terms in descending graded-lex order, as the program writes them."""
    terms = sorted(p.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
    return {"nvars": nvars, "terms": [{"c": str(c), "e": list(e)} for e, c in terms]}
