"""Pushing invariant dynamics down to the orbit space.

For an equivariant polynomial field X and invariant generators p_1..p_k, the
functions X(p_i) = sum_j X_j dp_i/dx_j are again invariant, so each can be
written as a polynomial Y_i in the generators.  The resulting k-dimensional
system Y is the reduced dynamics: sigma-images of X-trajectories solve it.

check_related verifies the defining identity for a given (X, Y) pair, and
integrate_pair witnesses it numerically by running classical fixed-step RK4
in double precision.  Exact arithmetic stops at that boundary: coefficients
are converted to floats only inside the integrator.  There the full and the
reduced system run as one RK4 loop over the stacked state (x, P), from one
evaluator compiled once: each evaluation builds one table of integer powers
of every coordinate by repeated multiplication (no pow), gathers it once
into the monomials of both systems, and ends in one matrix-vector product
per system, so the blocks never mix.  The Hilbert map is compiled by the
same compiler as a single block.  The path is checked for non-finite
states once, after the loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .actions import THETA, PolyVectorField, is_invariant
from .errors import DimensionMismatch, NoSolution, NonFiniteState, NotInvariant
from .invariants import InvariantGens, _express_all
from .poly import MultiPoly, dot, grlex_key

if TYPE_CHECKING:
    import numpy as np


class ReducedSystem:
    """Polynomial dynamics in the orbit-space coordinates P_1..P_k."""

    __slots__ = ("k", "comps", "source")

    def __init__(
        self,
        comps: Sequence[MultiPoly],
        source: tuple[PolyVectorField, InvariantGens] | None = None,
    ) -> None:
        comps = tuple(comps)
        k = len(comps)
        for c in comps:
            if c.nvars != k:
                raise DimensionMismatch(
                    f"component has {c.nvars} variables, expected {k}"
                )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("ReducedSystem is immutable")

    def __getitem__(self, i: int) -> MultiPoly:
        return self.comps[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedSystem):
            return NotImplemented
        return self.comps == other.comps

    def __repr__(self) -> str:
        names = [f"P{i + 1}" for i in range(self.k)]
        inner = ", ".join(c.format(names) for c in self.comps)
        return f"ReducedSystem({inner})"


def directional_derivatives(field: PolyVectorField, inv: InvariantGens) -> list[MultiPoly]:
    """The polynomials X(p_i) = sum_j X_j dp_i/dx_j, one per generator,
    each summed in one dict (poly.dot): no partial sum is built."""
    return [dot(field.comps, [p.diff(j) for j in range(field.n)]) for p in inv.gens]


def reduce_field(field: PolyVectorField, inv: InvariantGens) -> ReducedSystem:
    """Reduce an equivariant field to the orbit space.

    Requires the field to be equivariant (raises NotInvariant otherwise),
    which makes every X(p_i) invariant, so they are expressed without a
    second invariance check.  The identity comps_i(p_1(x),..,p_k(x)) ==
    X(p_i)(x) is re-verified by substitution, read off the product table of
    inv, before returning.
    """
    if field.n != inv.group.n:
        raise DimensionMismatch("field dimension does not match the group")
    chk = is_invariant(inv.group, field, THETA)
    if not chk:
        raise NotInvariant("field is not equivariant", chk.generator_index, chk.difference)
    derivs = directional_derivatives(field, inv)
    comps = _express_all(inv, derivs)
    for i, (f, q) in enumerate(zip(comps, derivs)):
        if inv.substitute(f) != q:
            raise NoSolution(f"internal: reduced component {i} fails the defining identity")
    return ReducedSystem(comps, source=(field, inv))


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
    """Verify sum_j X_j dp_i/dx_j == Y_i(p_1,..,p_k) for every i, exactly."""
    comps = reduced.comps if isinstance(reduced, ReducedSystem) else tuple(reduced)
    if len(comps) != inv.k:
        raise DimensionMismatch(f"reduced system has {len(comps)} components, expected {inv.k}")
    derivs = directional_derivatives(field, inv)
    for i, (lhs, y_i) in enumerate(zip(derivs, comps)):
        diff = lhs - inv.substitute(y_i)
        if not diff.is_zero:
            return RelatednessCheck(False, i, diff)
    return RelatednessCheck(True)


class TrajectoryReport:
    """Sampled trajectories of the full and reduced systems.

    max_defect is the sup-norm distance between the Hilbert-map image of the
    full trajectory and the reduced trajectory over the whole grid.
    """

    __slots__ = ("t_grid", "x_path", "p_path", "max_defect")

    def __init__(self, t_grid, x_path, p_path, max_defect: float) -> None:
        self.t_grid = t_grid
        self.x_path = x_path
        self.p_path = p_path
        self.max_defect = max_defect

    def __repr__(self) -> str:
        return (
            f"TrajectoryReport({len(self.t_grid)} samples, "
            f"max_defect={self.max_defect:.3e})"
        )


def _float(v: Fraction, what: str) -> float:
    """v as a double; ValueError naming v when it lies beyond the double range."""
    try:
        return float(v)
    except OverflowError:
        text = str(v)
        text = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
        raise ValueError(f"{what} {text} lies beyond the double range") from None


def _compile_blocks(blocks: Sequence[tuple[Sequence[MultiPoly], int]]):
    """Compile polynomial maps, one per block, into one float evaluator.

    Block b is a map R^nvars_b -> R^len(polys_b).  The evaluator takes every
    block's coordinates stacked in block order and returns every block's
    values stacked the same way; block b reads only its own coordinates.
    Each block's monomials form one exponent table, and its coefficients one
    dense (components x monomials) float matrix; exact arithmetic ends here.

    Each call rebuilds one table of powers v_j^0..v_j^D of every coordinate
    (D the top exponent in any block) by repeated multiplication, never
    calling pow, and gathers it once for the monomials of all blocks,
    multiplying each monomial's powers in variable order.  The table belongs
    to the evaluator, so one evaluator serves one thread at a time.  A block
    narrower than the widest is padded with trailing factors v^0 = 1.0,
    which are exact.  Each
    block then ends in its own matrix-vector product into its slice of the
    output.  The products stay apart because a monomial that overflows makes
    every component that lacks it nan (inf * 0.0): inside a block that is
    wanted, as divergence then shows as a non-finite state, but in one
    block-diagonal product it would spread to the other blocks.
    """
    import numpy as np

    ncoords = sum(nvars for _, nvars in blocks)
    width = max((nvars for _, nvars in blocks), default=0)
    gathers, products = [], []
    top = first_var = first_mono = first_out = 0
    for polys, nvars in blocks:
        monos = sorted({e for p in polys for e, _ in p}, key=grlex_key, reverse=True)
        column = {e: j for j, e in enumerate(monos)}
        coeffs = np.zeros((len(polys), len(monos)))
        for i, p in enumerate(polys):
            for e, c in p:
                coeffs[i, column[e]] = _float(c, "coefficient")
        exps = np.array(monos, dtype=np.intp).reshape(len(monos), nvars)
        top = max(top, int(exps.max(initial=0)))
        # gather[j, t] is the flat index of v_j^exps[t, j] in the power table,
        # with j counted from the block's first coordinate; padding rows keep
        # index 0, where the table holds v_0^0 = 1.0
        gather = np.zeros((width, len(monos)), dtype=np.intp)
        gather[:nvars] = (exps * ncoords + np.arange(first_var, first_var + nvars)).T
        gathers.append(gather)
        products.append((
            coeffs,
            slice(first_mono, first_mono + len(monos)),
            slice(first_out, first_out + len(polys)),
        ))
        first_var += nvars
        first_mono += len(monos)
        first_out += len(polys)
    gather = np.concatenate(gathers, axis=1)
    # reused by every call: row 0 stays 1.0 and rows 1..D are rebuilt from v
    powers = np.ones((top + 1, ncoords))

    def evaluate(v: np.ndarray) -> np.ndarray:
        powers[1:] = v
        np.multiply.accumulate(powers, axis=0, out=powers)
        values = np.multiply.reduce(powers.take(gather), axis=0)
        out = np.empty(first_out)
        for coeffs, monos, comps in products:
            np.matmul(coeffs, values[monos], out=out[comps])
        return out

    return evaluate


def _compile_polys(polys: Sequence[MultiPoly], nvars: int):
    """Compile one polynomial map R^nvars -> R^len(polys): the one-block
    case of _compile_blocks."""
    return _compile_blocks([(polys, nvars)])


def _rk4_path(f, y0: np.ndarray, nsteps: int, h: float) -> np.ndarray:
    """Classical fixed-step RK4 for dy/dt = f(y): the (nsteps + 1) x len(y0)
    array of states at t = 0, h, .., nsteps * h.

    No step checks for finiteness: a coordinate that is nan or inf stays
    non-finite under the update, so the caller scans the path once,
    afterwards.
    """
    import numpy as np

    path = np.empty((nsteps + 1, y0.size), dtype=float)
    path[0] = y0
    y = y0
    for i in range(1, nsteps + 1):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = np.add(y, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=path[i])
    return path


def integrate_pair(
    field: PolyVectorField,
    reduced: ReducedSystem | Sequence[MultiPoly],
    inv: InvariantGens,
    x0: Sequence,
    t_end: float,
    step: float,
) -> TrajectoryReport:
    """Integrate dx/dt = X(x) and dp/dt = Y(p) from matched starts.

    Classical fixed-step RK4 in double precision, run once over the stacked
    state z = (x, p) with one evaluator for both systems (_compile_blocks);
    the two blocks never mix, so each path is the one RK4 gives its system
    alone.  Exact coefficients are converted to floats only at this
    boundary.  The reduced trajectory starts from the (float) Hilbert-map
    image of the float start, so a constant pair has defect exactly zero.

    Raises NonFiniteState on overflow or NaN, with the time of the first
    non-finite state; the full system is reported whenever it diverges,
    else the reduced one.  Raises ValueError unless step and t_end are
    finite and positive and t_end is a whole number (at least one) of
    steps, so the run never stops short of t_end or passes without
    integrating, and when a start value or a coefficient lies beyond the
    double range.
    """
    if not (0 < step < math.inf and 0 < t_end < math.inf):  # also false for NaN
        raise ValueError(f"step and t_end must be finite and positive, got {step} and {t_end}")
    nsteps = int(round(t_end / step))
    if nsteps < 1:
        raise ValueError(f"step {step} is longer than t_end {t_end}; no step would be taken")
    if abs(nsteps * step - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end {t_end} is not a whole number of steps of {step}")
    comps = reduced.comps if isinstance(reduced, ReducedSystem) else tuple(reduced)
    if len(comps) != inv.k:
        raise DimensionMismatch(f"reduced system has {len(comps)} components, expected {inv.k}")
    n = field.n
    if len(x0) != n:
        raise DimensionMismatch(f"x0 has length {len(x0)}, field dimension is {n}")
    x0_exact = [v if isinstance(v, Fraction) else Fraction(v) for v in x0]
    # numpy is imported here rather than with the module: only the integrator
    # needs it, and it takes several times longer to load than all of equivar
    import numpy as np

    t_grid = np.arange(nsteps + 1, dtype=float) * step
    f = _compile_blocks([(field.comps, n), (comps, inv.k)])
    sigma = _compile_polys(inv.gens, n)
    x0_float = np.array([_float(v, "x0 entry") for v in x0_exact])
    # divergence is reported through NonFiniteState, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        path = _rk4_path(f, np.concatenate((x0_float, sigma(x0_float))), nsteps, step)
    x_path, p_path = path[:, :n], path[:, n:]
    # the first non-finite row after the start is the step at which a check
    # after every step would have stopped that system alone; a non-finite
    # start (sigma(x0) overflowing) is thus reported after one step
    for label, block in (("full", x_path), ("reduced", p_path)):
        bad = ~np.isfinite(block[1:]).all(axis=1)
        if bad.any():
            t = (int(bad.argmax()) + 1) * step
            raise NonFiniteState(f"{label} trajectory became non-finite at t={t}", t)
    defect = 0.0
    for xi, pi in zip(x_path, p_path):
        defect = max(defect, float(np.max(np.abs(sigma(xi) - pi))))
    return TrajectoryReport(t_grid, x_path, p_path, defect)
