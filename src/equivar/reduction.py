"""Pushing invariant dynamics down to the orbit space.

For an equivariant polynomial field X and invariant generators p_1..p_k, the
functions X(p_i) = sum_j X_j dp_i/dx_j are again invariant, so each can be
written as a polynomial Y_i in the generators.  The resulting k-dimensional
system Y is the reduced dynamics: sigma-images of X-trajectories solve it.

The exact side runs on integer columns.  Each X(p_i) is built once, degree
by degree, as integer numerators over the generators' table's monomials with
one denominator (poly.ProductTable.directional).  Those columns are the
right-hand sides of reduce_field's solve, read at the leader rows, and the
left-hand sides of the identity that reduce_field re-verifies and
check_related checks: Y_i(p) is summed in the same form
(ProductTable.substitution), the two are compared as lhs * den_Y ==
Y * den_lhs row by row, and a MultiPoly difference is built only for the
first failing component.

check_related verifies the defining identity for a given (X, Y) pair, and
integrate_pair witnesses it numerically by running classical fixed-step RK4
in double precision.  Exact arithmetic stops at that boundary.  One Python
function, generated for the call, is the whole float side: it runs RK4 over
the stacked state (x, P) held in scalar locals and evaluates the Hilbert map
on x at every state, at the start to set P and after each step for the
defect.  It holds the code of X, Y and the Hilbert map once each, chosen by
the map's size: a small map is straight-line Python, where every monomial
is one product of a lower monomial and one coordinate (no pow); a large one
is a call of a numpy evaluator that builds a table of integer powers of
every coordinate and ends in one matrix-vector product.  Each block reads
only its own coordinates, so each path is bit for bit the one RK4 gives its
system alone.  The path is checked for non-finite states once, afterwards.
numpy is loaded only for a map on that evaluator or when a report's arrays
are read.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from typing import Sequence

from .actions import THETA, PolyVectorField, _check_fit, _require_invariant
from .errors import DimensionMismatch, NoSolution, NonFiniteState
from .invariants import InvariantGens, _express_all
from .poly import Exponents, MultiPoly, grlex_key


class ReducedSystem(PolyVectorField):
    """The dynamics Y in the orbit-space coordinates P_1..P_k: a PolyVectorField."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.n

    def __repr__(self) -> str:
        names = [f"P{i + 1}" for i in range(self.k)]
        inner = ", ".join(c.format(names) for c in self.comps)
        return f"ReducedSystem({inner})"


def _reduced_system(
    field: PolyVectorField, reduced: ReducedSystem | Sequence[MultiPoly], inv: InvariantGens
) -> ReducedSystem:
    """reduced as a ReducedSystem, a sequence checked by its constructor;
    DimensionMismatch, as reduce_field raises it, unless field is of the
    dimension inv's group acts on, and unless reduced has one component per
    generator of inv."""
    _check_fit(inv.group, THETA, field)
    if not isinstance(reduced, ReducedSystem):
        reduced = ReducedSystem(reduced)
    if reduced.k != inv.k:
        raise DimensionMismatch(f"reduced system has {reduced.k} components, expected {inv.k}")
    return reduced


def reduce_field(field: PolyVectorField, inv: InvariantGens) -> ReducedSystem:
    """Reduce an equivariant field to the orbit space.

    Requires the field to be equivariant (raises NotInvariant otherwise, or
    DimensionMismatch when it is not of the group's dimension), which makes
    every X(p_i) invariant, so they are expressed without a second
    invariance check.  The identity comps_i(p_1(x),..,p_k(x)) ==
    X(p_i)(x) is re-verified on the same integer columns of X(p_i) that
    the solve read, before returning.
    """
    _require_invariant(inv.group, field, THETA, "field is not equivariant")
    derivs = inv._table.directional(field.comps)
    comps = _express_all(inv, derivs)
    chk = _related(derivs, comps, inv)
    if not chk:
        raise NoSolution(f"internal: reduced component {chk.index} fails the defining identity")
    return ReducedSystem(comps)


class RelatednessCheck:
    """Truthy iff the pair is related through the Hilbert map; otherwise
    carries the failing component index and the exact difference."""

    __slots__ = ("related", "index", "difference")

    def __init__(self, related: bool, index: int | None = None, difference=None) -> None:
        self.related = related
        self.index = index
        self.difference = difference

    def __bool__(self) -> bool:
        return self.related

    def __repr__(self) -> str:
        if self.related:
            return "RelatednessCheck(related=True)"
        return f"RelatednessCheck(related=False, index={self.index}, difference={self.difference!r})"


def check_related(
    field: PolyVectorField,
    reduced: ReducedSystem | Sequence[MultiPoly],
    inv: InvariantGens,
) -> RelatednessCheck:
    """Verify sum_j X_j dp_i/dx_j == Y_i(p_1,..,p_k) for every i, exactly.
    Raises DimensionMismatch when a size is wrong (_reduced_system)."""
    reduced = _reduced_system(field, reduced, inv)
    return _related(inv._table.directional(field.comps), reduced.comps, inv)


def _related(derivs, comps: Sequence[MultiPoly], inv: InvariantGens) -> RelatednessCheck:
    """X(p_i) == Y_i(p_1,..,p_k) checked exactly, derivs holding the graded
    integer columns of the X(p_i) (ProductTable.directional) and comps the
    Y_i, summed in the same form: the first failing i with X(p_i) - Y_i(p),
    built only for it, else related."""
    table = inv._table
    for i, (lhs, y_i) in enumerate(zip(derivs, comps)):
        rhs = table.substitution(y_i)
        if not _same(lhs, rhs):
            return RelatednessCheck(False, i, table.polynomial(lhs) - table.polynomial(rhs))
    return RelatednessCheck(True)


def _same(a: dict, b: dict) -> bool:
    """Whether two graded integer columns hold one polynomial: at every
    degree the numerators agree across the denominators, a row of one side
    times the other's denominator, and a degree on one side alone is zero."""
    for d in a.keys() | b.keys():
        if d not in a or d not in b:
            if any((a.get(d) or b[d])[0]):
                return False
            continue
        (x, dx), (y, dy) = a[d], b[d]
        if any(s * dy != t * dx for s, t in zip(x, y)):
            return False
    return True


class TrajectoryReport:
    """Sampled trajectories of the full and reduced systems.

    max_defect is the sup-norm distance between the Hilbert-map image of the
    full trajectory and the reduced trajectory over the whole grid, and
    samples the number of grid points.  The times t_grid and the paths
    x_path and p_path are numpy arrays, built from the kernel's flat list of
    states on first read (which loads numpy) and kept from then on.
    """

    __slots__ = ("samples", "max_defect", "_states", "_n", "_step", "_arrays")

    def __init__(self, states: list[float], samples: int, n: int, step: float, max_defect: float) -> None:
        self.samples = samples
        self.max_defect = max_defect
        self._states, self._n, self._step, self._arrays = states, n, step, None

    def _paths(self) -> tuple:
        if self._arrays is None:
            import numpy as np

            path = np.fromiter(self._states, float, len(self._states)).reshape(self.samples, -1)
            t_grid = np.arange(self.samples, dtype=float) * self._step
            self._arrays, self._states = (t_grid, path[:, :self._n], path[:, self._n:]), None
        return self._arrays

    t_grid = property(lambda self: self._paths()[0], doc="The sample times i * step.")
    x_path = property(lambda self: self._paths()[1], doc="The full system's states, one row each.")
    p_path = property(lambda self: self._paths()[2], doc="The reduced system's states, one row each.")

    def __repr__(self) -> str:
        return f"TrajectoryReport({self.samples} samples, max_defect={self.max_defect:.3e})"


def _float(v, what: str) -> float:
    """v (an int, Fraction, float or rational string) as a finite double;
    ValueError naming v when it is inf, nan or beyond the double range."""
    try:
        x = float(v if isinstance(v, (int, float, Fraction)) else Fraction(v))
    except OverflowError:
        reason = "lies beyond the double range"
    else:
        if math.isfinite(x):
            return x
        reason = "is not finite"
    text = str(v)
    text = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
    raise ValueError(f"{what} {text} {reason}")


# A map of at most this many terms (summed over its components) compiles to
# straight-line Python; a larger one keeps the numpy evaluator.  Measured per
# call on 2 vCPUs with Python 3.11: straight-line code costs 25-60 ns per term
# (its monomial products included) and numpy a fixed 8-12 us, so the two
# cross at 270-350 terms on the benchmark's fields and reduced systems and at
# 100-200 terms on random dense maps of degree <= 9.  The limit also keeps
# every generated sum far below the ~3,000 terms at which CPython 3.11's
# compiler runs out of recursion.
_STRAIGHT_LINE_TERMS = 300

# integrate_pair refuses a run of more steps than this before it allocates
# anything: it keeps every state, so 10^9 steps would ask for gigabytes and
# run for hours.  A witness needs far fewer; the documented runs take 1,000.
_MAX_STEPS = 10**6


def _vectorised(polys: Sequence[MultiPoly]) -> bool:
    """Whether _map_lines gives a map the numpy evaluator: more than
    _STRAIGHT_LINE_TERMS terms, summed over its components."""
    return sum(len(p) for p in polys) > _STRAIGHT_LINE_TERMS


def _map_lines(polys: Sequence[MultiPoly], inputs: Sequence[str], outputs: Sequence[str],
               tag: str, scope: dict) -> list[str]:
    """The statements that set the names in outputs to the values of a
    polynomial map at the floats named in inputs: the one code generator
    behind the RK4 kernel.

    A map of at most _STRAIGHT_LINE_TERMS terms (summed over its components)
    becomes straight-line code.  Each monomial x^e is one multiplication of
    a lower monomial by one coordinate: x^e = x^(e - u_j) * x_j, with j the
    last variable of e, so monomials sharing a prefix share its products and
    no pow is called; the products are named tag0, tag1, ...  Each component
    is c_1*m_1 + c_2*m_2 + ..., its terms in descending grlex order, summed
    left to right; a component reads only its own monomials.  A term -c*m
    is written as a subtraction of c*m and a factor 1.0 is left out, which
    changes no bit of the sum.  A larger map becomes one call of its numpy
    evaluator (_power_table), stored in scope under tag.
    """
    if _vectorised(polys):
        scope[tag] = _power_table(polys, len(inputs))
        return [f"{_targets(outputs)}= {tag}([{', '.join(inputs)}])"]

    def lower(e: Exponents) -> tuple[Exponents, int]:
        j = max(i for i, a in enumerate(e) if a)
        return e[:j] + (e[j] - 1,) + e[j + 1:], j

    needed = set()
    for p in polys:
        for e, _ in p:
            while any(e) and e not in needed:
                needed.add(e)
                e = lower(e)[0]
    names: dict[Exponents, str] = {}
    lines = []
    for e in sorted(needed, key=grlex_key):
        below, j = lower(e)
        if any(below):
            names[e] = f"{tag}{len(lines)}"
            lines.append(f"{names[e]} = {names[below]} * {inputs[j]}")
        else:
            names[e] = inputs[j]
    for p, out in zip(polys, outputs):
        text = ""
        for e, c in p:
            c = _float(c, "coefficient")
            if not any(e):
                term = repr(abs(c))
            elif abs(c) == 1.0:
                term = names[e]
            else:
                term = f"{abs(c)!r} * {names[e]}"
            if text:
                text += f" - {term}" if c < 0 else f" + {term}"
            else:
                text = f"-{term}" if c < 0 else term
        lines.append(f"{out} = {text or '0.0'}")
    return lines


def _targets(names: Sequence[str]) -> str:
    """names as the target list of an unpacking assignment: 'a, b, '."""
    return "".join(f"{name}, " for name in names)


def _power_table(polys: Sequence[MultiPoly], nvars: int):
    """Compile a large polynomial map into a numpy evaluator.

    The monomials form one exponent table, and the coefficients one dense
    (components x monomials) float matrix.  Each call rebuilds one table of
    powers v_j^0..v_j^D of every coordinate (D the top exponent) by repeated
    multiplication, never calling pow, gathers it into the monomials,
    multiplying each monomial's powers in variable order, and ends in one
    matrix-vector product.  The table belongs to the evaluator, so one
    evaluator serves one thread at a time.
    """
    import numpy as np

    monos = sorted({e for p in polys for e, _ in p}, key=grlex_key, reverse=True)
    column = {e: j for j, e in enumerate(monos)}
    coeffs = np.zeros((len(polys), len(monos)))
    for i, p in enumerate(polys):
        for e, c in p:
            coeffs[i, column[e]] = _float(c, "coefficient")
    exps = np.array(monos, dtype=np.intp).reshape(len(monos), nvars)
    # gather[j, t] is the flat index of v_j^exps[t, j] in the power table
    gather = (exps * nvars + np.arange(nvars)).T
    # reused by every call: row 0 stays 1.0 and rows 1..D are rebuilt from v
    powers = np.ones((int(exps.max(initial=0)) + 1, nvars))

    def power_table(v: list[float]) -> list[float]:
        powers[1:] = v
        np.multiply.accumulate(powers, axis=0, out=powers)
        values = np.multiply.reduce(powers.take(gather), axis=0)
        return np.matmul(coeffs, values).tolist()

    return power_table


def _rk4_kernel(field: Sequence[MultiPoly], reduced: Sequence[MultiPoly], sigma: Sequence[MultiPoly]):
    """Compile classical fixed-step RK4 for the stacked system
    (x, P)' = (X(x), Y(P)), X = field (n components) and Y = reduced (k),
    with the defect against the Hilbert map sigma, into one generated
    function rk4(x0, nsteps, h) -> (states, defect).

    The state lives in scalar locals.  One loop visits the nsteps + 1
    states: it evaluates sigma on x (at the start, to set P to sigma(x0)),
    then steps, unless the state is the last, with the four stages as one
    inner loop.  Each map's code appears once (_map_lines); X reads only the
    stage point's x coordinates and Y only its P ones, so each block's
    path is bit for bit the one RK4 gives its system alone.  Each coordinate
    is updated as numpy evaluates y + 0.5 * h * k1, ..,
    y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4): the stage points are
    y + (0.5 * h) * k and y + h * k, and the sum is accumulated as s = k1,
    then s + 2.0 * k2, s + 2.0 * k3 and s + 1.0 * k4, which groups as that
    sum does (1.0 * k is k).  states holds the nsteps + 1 states one after
    another, in one flat list.

    On each state, defect takes the largest |sigma(x) - P|, passing over a
    state with a nan gap, as Python's max passes over numpy's per-row
    maximum, which is nan there; the start's gaps are 0 or nan.  No step
    checks for finiteness: a non-finite coordinate stays non-finite, so the
    caller scans the states once, afterwards.
    """
    n, k = len(field), len(reduced)
    y, z = [f"y{i}" for i in range(n + k)], [f"z{i}" for i in range(n + k)]
    dy, s = [f"k{i}" for i in range(n + k)], [f"s{i}" for i in range(n + k)]
    q, gaps = [f"q{i}" for i in range(k)], [f"g{i}" for i in range(k)]
    scope: dict = {}

    stage_body = [
        *_map_lines(field, z[:n], dy[:n], "mx", scope),
        *_map_lines(reduced, z[n:], dy[n:], "mp", scope),
        "if stage:",
        *(f"    {c} = {c} + weight * {d}" for c, d in zip(s, dy)),
        "else:",
        *(f"    {c} = {d}" for c, d in zip(s, dy)),
        "if stage < 3:",
        *(f"    {b} = {a} + length * {d}" for a, b, d in zip(y, z, dy)),
        "else:",
        *(f"    {a} = {b} = {a} + sixth * {c}" for a, b, c in zip(y, z, s)),
    ]
    state_body = [
        *_map_lines(sigma, y[:n], q, "ms", scope),
        "if not i:",
        *(f"    {a} = {b} = {c}" for a, b, c in zip(y[n:], z[n:], q)),
        *(f"{g} = abs({a} - {b})" for g, a, b in zip(gaps, q, y[n:])),
        f"total = {' + '.join(gaps)}",
        "if total == total:",
        f"    defect = max(defect, {', '.join(gaps)})",
        f"extend(({_targets(y)}))",
        "if i == nsteps:",
        "    break",
        "for stage, weight, length in stages:",
        *(f"    {line}" for line in stage_body),
    ]
    lines = [
        "def rk4(x0, nsteps, h):",
        "    half, sixth = 0.5 * h, h / 6.0",
        # (index, weight of the stage's k in the sum, step from y to the next
        # stage point); stage 0 starts the sum and stage 3 ends the step
        "    stages = (0, None, half), (1, 2.0, half), (2, 2.0, h), (3, 1.0, None)",
        f"    {_targets(y[:n])}= {_targets(z[:n])}= x0",
        "    states = []",
        "    extend = states.extend",
        "    defect = 0.0",
        "    for i in range(nsteps + 1):",
        *(f"        {line}" for line in state_body),
        "    return states, defect",
    ]
    exec("\n".join(lines), scope)
    return scope["rk4"]


def integrate_pair(
    field: PolyVectorField,
    reduced: ReducedSystem | Sequence[MultiPoly],
    inv: InvariantGens,
    x0: Sequence,
    t_end: float,
    step: float,
) -> TrajectoryReport:
    """Integrate dx/dt = X(x) and dp/dt = Y(p) from matched starts.

    Classical fixed-step RK4 in Python floats, run by one kernel generated
    for this call (_rk4_kernel) over the stacked state z = (x, p), so each
    path is the one RK4 gives its system alone; the same kernel tracks the
    defect.  The report keeps the kernel's flat list of states and builds
    the numpy arrays of the paths when they are first read; numpy is loaded
    during the run only when X, Y or sigma takes the numpy evaluator.  Each
    start value becomes a double once (_float), before the kernel is
    generated, and exact coefficients only inside it.  P starts from the
    kernel's own Hilbert-map image of the float start, so a constant pair
    has defect exactly zero.

    Raises DimensionMismatch when a size is wrong (_reduced_system, x0).
    Raises NonFiniteState on overflow or NaN, with the time of the first
    non-finite state; the full system is reported whenever it diverges,
    else the reduced one.  Raises ValueError unless step and t_end are
    finite and positive and t_end is a whole number (at least one and at
    most _MAX_STEPS) of steps, so the run never stops short of t_end,
    passes without integrating or asks for more memory than a witness
    needs; also when a start value is not a finite double or a coefficient
    lies beyond the double range.
    """
    if not (0 < step < math.inf and 0 < t_end < math.inf):  # also false for NaN
        raise ValueError(f"step and t_end must be finite and positive, got {step} and {t_end}")
    if t_end / step > _MAX_STEPS + 0.5:  # round(t_end / step) > _MAX_STEPS, inf included
        raise ValueError(f"t_end {t_end} is more than {_MAX_STEPS} steps of {step}")
    nsteps = int(round(t_end / step))
    if nsteps < 1:
        raise ValueError(f"step {step} is longer than t_end {t_end}; no step would be taken")
    if abs(nsteps * step - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end {t_end} is not a whole number of steps of {step}")
    reduced = _reduced_system(field, reduced, inv)
    n = field.n
    if len(x0) != n:
        raise DimensionMismatch(f"x0 has length {len(x0)}, field dimension is {n}")
    x0_float = [_float(v, "x0 entry") for v in x0]
    maps = field.comps, reduced.comps, inv.gens
    rk4 = _rk4_kernel(*maps)
    quiet = contextlib.nullcontext()
    # numpy is loaded only for a map on its evaluator (it takes longer to load
    # than all of equivar); Python float arithmetic overflows without a word,
    # and divergence is reported through NonFiniteState, not numpy warnings
    if any(map(_vectorised, maps)):
        import numpy as np

        quiet = np.errstate(over="ignore", invalid="ignore")
    with quiet:
        states, defect = rk4(x0_float, nsteps, step)
    # a float sum is finite only if every term is, so the rows are scanned
    # only when it is not: the first non-finite row after the start is the
    # step at which a check after every step would have stopped that system
    # alone; a non-finite start (sigma(x0) overflowing) is thus reported
    # after one step
    if not math.isfinite(sum(states)):
        width = n + reduced.k
        for label, lo, hi in (("full", 0, n), ("reduced", n, width)):
            for i in range(1, nsteps + 1):
                if not all(map(math.isfinite, states[i * width + lo:i * width + hi])):
                    t = i * step
                    raise NonFiniteState(f"{label} trajectory became non-finite at t={t}", t)
    return TrajectoryReport(states, nsteps + 1, n, step, defect)
