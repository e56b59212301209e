"""Exact matrices and row reduction.

The integer elimination engine, Echelon, is held against Fraction
arithmetic kept here as the oracle, on random rational matrices: its
incremental spans against a Fraction echelon, and the reduced row echelon
form read back from it (conftest.rref, and through it kernel_basis,
kernel_rref and solve_free_zero) against a plain Fraction Gauss-Jordan.
Its sparse twin, SparseEchelon, is held against Echelon on random integer
rows.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import (
    MultiPoly,
    PolyVectorField,
    close_group,
    equivariant_module_generators,
    invariant_ring_generators,
    molien,
    reduce_field,
    relations,
    variables,
)
from equivar.linalg import (
    Echelon,
    RatMatrix,
    SparseEchelon,
    as_rational,
    block_diag,
    clear_denominators,
    kernel_basis,
    kernel_rref,
    solve_free_zero,
)

from conftest import rref


def F(n, d=1):
    return Fraction(n, d)


def test_matmul_and_identity():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    i = RatMatrix.identity(2)
    assert a @ i == a
    assert i @ a == a
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == RatMatrix.from_rows([[2, 1], [4, 3]])


def test_transpose():
    a = RatMatrix.from_rows([[0, -1], [1, 0]])
    assert a.transpose() == RatMatrix.from_rows([[0, 1], [-1, 0]])
    sym = RatMatrix.from_rows([[1, 2], [2, 5]])
    assert sym.transpose() == sym


def test_inverse_round_trip():
    a = RatMatrix.from_rows([[1, 2], [3, 5]])
    assert a @ a.inverse() == RatMatrix.identity(2)
    assert a.inverse() @ a == RatMatrix.identity(2)


def test_inverse_rational_entries():
    a = RatMatrix.from_rows([[2]])
    assert a.inverse() == RatMatrix.from_rows([[Fraction(1, 2)]])


def test_singular_raises():
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[0]]).inverse()


def test_apply():
    a = RatMatrix.from_rows([[0, -1], [1, 0]])
    assert a @ RatMatrix.from_rows([[1], [2]]) == RatMatrix.from_rows([[-2], [1]])


def test_block_diag():
    a = RatMatrix.from_rows([[2]])
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    d = block_diag(a, b)
    assert d.rows == 3 and d.cols == 3
    assert d[0, 0] == 2 and d[1, 2] == 1 and d[2, 1] == 1 and d[0, 1] == 0


def test_rref_and_rank():
    rows = [[F(1), F(2), F(1)], [F(2), F(4), F(2)], [F(0), F(1), F(1)]]
    red, pivots = rref(rows)
    assert pivots == [0, 1]
    assert len(rref(rows)[0]) == 2
    # pivot columns are clean unit columns
    assert red[0][0] == 1 and red[1][1] == 1 and red[0][1] == 0


def test_kernel_basis():
    # x + z = 0, y + z = 0 -> kernel spanned by (-1, -1, 1)
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    basis = kernel_basis(rows, 3)
    assert basis == [[F(-1), F(-1), F(1)]]
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_free_zero_prefers_early_columns():
    # columns 0 and 1 are identical; the free (later) one stays zero
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    sol, = solve_free_zero(rows, [[F(3), F(5)]])
    assert sol == [F(3), F(0), F(5)]


def test_solve_inconsistent_returns_none():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    assert solve_free_zero(rows, [[F(1), F(2)]]) == [None]


def test_echelon_incremental():
    e = Echelon()
    assert e.add([F(1), F(1), F(0)])
    assert not e.add([F(2), F(2), F(0)])
    assert e.add([F(0), F(1), F(1)])
    assert e.rank == 2
    # membership through the rank: a vector in the span leaves it unchanged
    assert not e.add([F(1), F(0), F(-1)]) and e.rank == 2
    assert e.add([F(0), F(0), F(1)]) and e.rank == 3


def test_as_rational_keeps_messages():
    assert as_rational("3/4") == F(3, 4) and as_rational(2) == F(2)
    with pytest.raises(TypeError, match="^expected exact rational, got float$"):
        RatMatrix.from_rows([[0.5]])
    with pytest.raises(TypeError, match="^coefficient must be an exact rational, got float$"):
        MultiPoly(1, {(1,): 0.5})
    with pytest.raises(TypeError, match="^coefficient must be an exact rational, got float$"):
        MultiPoly.variable(1, 0).evaluate([0.5])


# ---------------------------------------------------------------------------
# The integer engine against Fraction Gauss-Jordan.


def fraction_rref(rows):
    """Gauss-Jordan over Fraction: first pivot column, rows scanned top-down."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    pivots, pr = [], 0
    for pc in range(len(m[0])):
        sel = next((r for r in range(pr, len(m)) if m[r][pc] != 0), None)
        if sel is None:
            continue
        m[pr], m[sel] = m[sel], m[pr]
        inv_p = 1 / m[pr][pc]
        m[pr] = [x * inv_p for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return m[:pr], pivots


def _entries(max_den):
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    wide = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, max_den))
    return st.one_of(st.just(Fraction(0)), small, wide)


@st.composite
def rational_matrices(draw, max_den=10**6):
    """Tall, wide, single-column and empty matrices, some rows zero or repeated."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(_entries(max_den), min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if rows:
            rows[i] = [Fraction(0)] * ncols
    if rows and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows.append([k * x for x in rows[0]])
    return rows, ncols


def _apply(rows, x):
    return [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(case):
    rows, ncols = case
    assert rref(rows) == fraction_rref(rows)
    for v in kernel_basis(rows, ncols):
        assert _apply(rows, v) == [0] * len(rows)
    assert len(kernel_basis(rows, ncols)) == ncols - len(fraction_rref(rows)[1])
    # kernel_rref is the rref of the null space, in the same column order
    kernel = kernel_basis(rows, ncols)
    assert kernel_rref(rows, ncols) == fraction_rref(kernel)[0]


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_free_zero_solves(case, data):
    rows, ncols = case
    x0 = data.draw(st.lists(_entries(10**6), min_size=ncols, max_size=ncols))
    b = _apply(rows, x0)
    if not rows:
        assert solve_free_zero(rows, [b]) == [None]
        return
    x, = solve_free_zero(rows, [b])
    assert x is not None and _apply(rows, x) == b
    # free coordinates are zero
    pivots = fraction_rref(rows)[1]
    assert all(x[j] == 0 for j in range(ncols) if j not in pivots)
    # a right-hand side outside the column space has no solution
    bad = data.draw(st.lists(_entries(10**6), min_size=len(rows), max_size=len(rows)))
    consistent = len(fraction_rref([r + [c] for r, c in zip(rows, bad)])[1]) == len(pivots)
    assert (solve_free_zero(rows, [bad])[0] is not None) == consistent


def test_solve_free_zero_many_right_hand_sides():
    # rank 2 over three rows: b is consistent iff b_3 == b_1 + b_2
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)], [F(1), F(1), F(1)]]
    rhss = [[F(1), F(2), F(3)], [F(1), F(2), F(4)], [F(0), F(5), F(5)]]
    assert solve_free_zero(rows, rhss) == [
        [F(1), F(0), F(2)], None, [F(0), F(0), F(5)]
    ]
    assert solve_free_zero(rows, []) == []
    assert solve_free_zero([], rhss) == [None] * 3


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_free_zero_together_matches_one_at_a_time(case, data):
    # consistent right-hand sides around one drawn at random, which is
    # almost always inconsistent when A has fewer independent columns than rows
    rows, ncols = case
    if not rows:
        return
    column = st.lists(_entries(10**6), min_size=ncols, max_size=ncols)
    before, after = (
        [_apply(rows, x) for x in data.draw(st.lists(column, max_size=2))] for _ in range(2)
    )
    bad = data.draw(st.lists(_entries(10**6), min_size=len(rows), max_size=len(rows)))
    rhss = before + [bad] + after
    assert solve_free_zero(rows, rhss) == [solve_free_zero(rows, [b])[0] for b in rhss]


class FractionEchelon:
    """The incremental span in Fraction arithmetic, each row scaled to pivot 1."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def residual(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return not any(self.residual(vec))

    def add(self, vec):
        v = self.residual(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        self.rows.append([x / v[p] for x in v])
        self.pivots.append(p)
        return True


def _in_form(v, form):
    """The vector v of Fractions as the caller may hand it over: as it is,
    as a row of ints on the same line (its denominators cleared), with its
    integral entries as ints, or as bools (nonzero entries true)."""
    if form == "ints":
        return clear_denominators(v)[1]
    if form == "mixed":
        return [int(x) if x.denominator == 1 else x for x in v]
    if form == "bools":
        return [bool(x) for x in v]
    return v


@st.composite
def echelon_sequences(draw):
    """add/contains calls on zero vectors, repeats of a small pool, rational
    combinations of the pool and fresh vectors, denominators up to 10**6,
    each handed over as Fractions, ints, a mix of both, or bools."""
    ncols = draw(st.integers(1, 7))
    vectors = st.lists(_entries(10**6), min_size=ncols, max_size=ncols)
    pool = draw(st.lists(vectors, min_size=1, max_size=5))
    ops = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination", "fresh"]))
        if kind == "zero":
            v = [Fraction(0)] * ncols
        elif kind == "repeat":
            v = draw(st.sampled_from(pool))
        elif kind == "combination":
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            s, t = draw(_entries(10**6)), draw(_entries(10**6))
            v = [s * x + t * y for x, y in zip(a, b)]
        else:
            v = draw(vectors)
        v = _in_form(v, draw(st.sampled_from(["fractions", "ints", "mixed", "bools"])))
        ops.append((draw(st.sampled_from(["add", "contains"])), v))
    return ops


def span_contains(added, vec) -> bool:
    """vec lies in the span of the added vectors: adding it keeps the rank."""
    e = Echelon()
    for v in added:
        e.add(v)
    rank = e.rank
    e.add(vec)
    return e.rank == rank


@settings(max_examples=80, deadline=None)
@given(echelon_sequences())
def test_echelon_matches_fraction_echelon(ops):
    fast, slow, added = Echelon(), FractionEchelon(), []
    for op, v in ops:
        if op == "add":
            assert fast.add(v) == slow.add(v)
            added.append(v)
        else:
            assert span_contains(added, v) == slow.contains(v)
        assert fast.rank == len(slow.rows)
    # the stored rows are coprime integer rows, not Fractions
    assert all(type(x) is int for row in fast._rows for x in row)
    assert all(gcd(*row) == 1 for row in fast._rows)


@settings(max_examples=40, deadline=None)
@given(echelon_sequences())
def test_echelon_keeps_no_list_it_was_given(ops):
    # after each add the caller's list is emptied and refilled: the span must
    # keep the rank and rows that a twin fed copies of the vectors keeps
    span, twin = Echelon(), Echelon()
    for _, v in ops:
        given = list(v)
        assert span.add(given) == twin.add(list(v))
        given[:] = [7] * len(given)
        given.append(1)
        assert span.rank == twin.rank and span.rows == twin.rows
    assert all(type(x) is int for row in span.rows for x in row)


@st.composite
def sparse_sequences(draw):
    """Integer rows for add on up to 30 columns: a pool of sparse rows (a
    few nonzeros) and dense ones, then zero rows, repeats and integer
    multiples of the pool, integer combinations of two of its rows and fresh
    rows, with entries up to 10**30."""
    ncols = draw(st.integers(1, 30))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    sparse = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4).map(
        lambda d: [d.get(k, 0) for k in range(ncols)])
    dense = st.lists(entry, min_size=ncols, max_size=ncols)
    fresh = st.one_of(sparse, dense)
    pool = draw(st.lists(fresh, min_size=1, max_size=6))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "combination", "fresh"]))
        if kind == "zero":
            v = [0] * ncols
        elif kind == "repeat":
            v = draw(st.sampled_from(pool))
        elif kind == "multiple":
            s = draw(entry)
            v = [s * x for x in draw(st.sampled_from(pool))]
        elif kind == "combination":
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            s, t = draw(entry), draw(entry)
            v = [s * x + t * y for x, y in zip(a, b)]
        else:
            v = draw(fresh)
        rows.append(v)
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_sequences(), st.booleans())
def test_sparse_echelon_matches_echelon(rows, with_zeros):
    # the same rows as dicts and as lists: each add answers alike, and the
    # rank and pivot set agree after every step; a dict may carry explicit
    # zeros, and the stored rows never do
    sparse, dense = SparseEchelon(), Echelon()
    for v in rows:
        vec = {k: x for k, x in enumerate(v) if x or with_zeros}
        copy_of = dict(vec)
        assert sparse.add(vec) == dense.add(v)
        assert vec == copy_of
        assert sparse.rank == dense.rank
        assert set(sparse.pivots) == set(dense.pivots)
    for p, row in sparse._rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert p == min(row) and gcd(*row.values()) == 1


def test_core_edge_cases():
    assert rref([]) == ([], [])
    assert rref([[F(0), F(0)], [F(0), F(0)]]) == ([], [])
    assert kernel_basis([[F(0), F(0)]], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert kernel_rref([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert rref([[F(-2, 3)], [F(5)]]) == ([[F(1)]], [0])
    # integer rows as well as Fraction rows
    assert rref([[2, 4], [1, 3]]) == ([[F(1), F(0)], [F(0), F(1)]], [0, 1])
    big = F(999_983, 999_979)
    assert rref([[big, F(1)], [F(1), 1 / big]]) == ([[F(1), 1 / big]], [0])


def _values() -> dict:
    """One fresh value of each immutable type, on the quarter turn: built
    here, not shared, so a guard that gave way could spoil no other test."""
    group = close_group([RatMatrix.from_rows([[0, -1], [1, 0]])])
    inv = invariant_ring_generators(group)
    field = PolyVectorField(variables(2))
    return {
        "MultiPoly": inv.gens[0], "RatMatrix": group.matrix(1), "MatGroup": group,
        "PolyVectorField": field, "ReducedSystem": reduce_field(field, inv),
        "MolienSeries": molien(group), "InvariantGens": inv,
        "EquivariantGens": equivariant_module_generators(inv), "RelationSet": relations(inv, 8),
    }


VALUE_TYPES = ["MultiPoly", "RatMatrix", "MatGroup", "PolyVectorField", "ReducedSystem",
               "MolienSeries", "InvariantGens", "EquivariantGens", "RelationSet"]


def _slots(value) -> list[str]:
    return [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]


def _state(value):
    """What a value holds: itself for a type with an __eq__ of its own,
    else its type and its slots, recursively, less the memos
    (MatGroup._derived, InvariantGens._table)."""
    if isinstance(value, tuple):
        return tuple(_state(v) for v in value)
    if type(value).__eq__ is not object.__eq__:
        return value
    return type(value), tuple(_state(getattr(value, s)) for s in _slots(value)
                              if s not in ("_derived", "_table"))


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_copy_and_pickle(name):
    # copy, deepcopy and pickle restore slots through __setstate__; through
    # setattr, which the types refuse, all three raised "... is immutable"
    value = _values()[name]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert _state(twin) == _state(value)
        for attr in _slots(twin) + ["extra"]:
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(twin, attr, None)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_refuse_assignment_and_deletion(name):
    value = _values()[name]
    assert type(value).__name__ == name
    slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots
    for attr in slots + ["extra"]:
        before = getattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, attr)
        assert getattr(value, attr, None) is before
