"""JSON forms for every value the CLI reads or writes.

Rationals travel as decimal-free strings ("3", "-1/2") of ASCII digits;
floats are rejected on input so no coefficient is ever corrupted.  A
polynomial document is read with one Fraction per distinct coefficient
string, parsed where it first occurs.  Terms are listed in descending
graded-lex order and documents are dumped with sorted keys, so identical
inputs always produce byte-identical files.

Phase polynomials use the same polynomial form with nvars = 2n; the first n
exponents belong to the x block and the last n to the dual block.  A
generator set's document takes its Molien series from the set's group.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .actions import PolyVectorField
from .equivariants import EquivariantGens
from .errors import DimensionMismatch, ParseError
from .groups import DEFAULT_CAP, MatGroup, close_group
from .invariants import InvariantGens
from .linalg import RatMatrix
from .molien import MolienSeries, molien, molien_equivariant
from .poly import Exponents, MultiPoly
from .reduction import ReducedSystem

_RAT_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def frac_to_str(c: Fraction) -> str:
    return str(c)


def frac_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RAT_RE.match(value.strip())
        if not m:
            raise ParseError(f"not a decimal-free rational string: {value!r}")
        # built from the match: Fraction(value) would parse the string again
        num, den = m.groups()
        den = 1 if den is None else int(den)
        if not den:
            raise ParseError(f"zero denominator in rational: {value!r}")
        return Fraction(int(num), den)
    raise ParseError(f"rationals must be integers or strings, got {type(value).__name__}")


def _is_int(value) -> bool:
    """True for an int that is not a bool (isinstance(True, int) holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(doc, key, kind, where):
    """doc[key], which must be of type kind unless kind is None; an int
    asked for is never a bool."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"{where}: key {key!r} has type {type(value).__name__}")
    return value


# -- polynomials ------------------------------------------------------------


def poly_to_doc(p: MultiPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [{"c": frac_to_str(c), "e": list(e)} for e, c in p.sorted_terms()],
    }


def poly_from_doc(doc) -> MultiPoly:
    """Each term is checked here, once; equal exponents are summed and zero
    sums dropped, as the MultiPoly constructor does.  Each distinct
    coefficient string is parsed once, at its first occurrence."""
    nvars = _expect(doc, "nvars", int, "polynomial")
    terms = _expect(doc, "terms", list, "polynomial")
    if nvars < 0:
        raise ParseError("invalid polynomial: nvars must be non-negative")
    acc: dict[Exponents, Fraction] = {}
    parsed: dict[str, Fraction] = {}
    for t in terms:
        c = _expect(t, "c", None, "polynomial term")
        if type(c) is str:
            if c not in parsed:
                parsed[c] = frac_from_json(c)
            c = parsed[c]
        else:
            c = frac_from_json(c)
        e = _expect(t, "e", list, "polynomial term")
        if not all(type(x) is int and x >= 0 for x in e):
            raise ParseError(f"polynomial term exponents must be non-negative ints: {e!r}")
        e = tuple(e)
        if len(e) != nvars:
            raise ParseError(
                f"invalid polynomial: exponent tuple {e} has length {len(e)}, expected {nvars}"
            )
        s = acc.get(e)
        if s is not None:
            c += s
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)
    return MultiPoly._of(nvars, acc)


# -- vector fields ----------------------------------------------------------


def field_to_doc(field: PolyVectorField) -> dict:
    return {"n": field.n, "comps": [poly_to_doc(c) for c in field.comps]}


def _comps_from_doc(doc, size_key: str, cls, what: str):
    """The cls of the polynomials under doc["comps"], whose count doc[size_key]
    states: the one reader of vector fields and reduced systems."""
    size = _expect(doc, size_key, int, what)
    comps = _expect(doc, "comps", list, what)
    if len(comps) != size:
        raise ParseError(f"{what}: expected {size} components, got {len(comps)}")
    try:
        return cls([poly_from_doc(c) for c in comps])
    except (ValueError, DimensionMismatch) as exc:
        raise ParseError(f"invalid {what}: {exc}") from exc


def field_from_doc(doc) -> PolyVectorField:
    return _comps_from_doc(doc, "n", PolyVectorField, "vector field")


# -- matrices and groups ----------------------------------------------------


def matrix_from_doc(doc, n: int) -> RatMatrix:
    if not isinstance(doc, list) or len(doc) != n:
        raise ParseError(f"matrix must be a list of {n} rows")
    rows = []
    for r in doc:
        if not isinstance(r, list) or len(r) != n:
            raise ParseError(f"matrix row must have {n} entries")
        rows.append([frac_from_json(x) for x in r])
    return RatMatrix.from_rows(rows)


def group_from_doc(doc, cap_override: int | None = None) -> MatGroup:
    n = _expect(doc, "n", int, "group")
    if n < 1:
        raise ParseError(f"group: n must be a positive integer, got {n!r}")
    gens_doc = _expect(doc, "generators", list, "group")
    if not gens_doc:
        raise ParseError("group: at least one generator is required")
    cap = _expect(doc, "cap", int, "group") if "cap" in doc else DEFAULT_CAP
    if cap < 1:
        raise ParseError(f"group: cap must be a positive integer, got {cap!r}")
    if cap_override is not None:
        cap = cap_override
    gens = [matrix_from_doc(g, n) for g in gens_doc]
    return close_group(gens, cap=cap)


# -- derived objects --------------------------------------------------------


def series_doc(series: MolienSeries) -> dict:
    return {
        "numer": [frac_to_str(c) for c in series.numer],
        "denom": [frac_to_str(c) for c in series.denom],
    }


def invariant_gens_to_doc(inv: InvariantGens) -> dict:
    return _generators_doc(inv, [poly_to_doc(g) for g in inv.gens], "molien", molien(inv.group))


def invariant_gens_from_doc(doc, group: MatGroup) -> InvariantGens:
    gens_doc = _expect(doc, "generators", list, "invariant generators")
    polys = [poly_from_doc(g) for g in gens_doc]
    for p in polys:
        if p.nvars != group.n:
            raise ParseError(
                f"invariant generator has {p.nvars} variables, group acts on {group.n}"
            )
    return InvariantGens.from_polys(group, polys)


def equivariant_gens_to_doc(eg: EquivariantGens) -> dict:
    return _generators_doc(eg, [field_to_doc(v) for v in eg.vgens],
                           "equivariant_molien", molien_equivariant(eg.group))


def _generators_doc(gens: InvariantGens | EquivariantGens, generators: list, key: str,
                    series: MolienSeries) -> dict:
    """A computed generator set: its generators and their degrees, the degree
    its loop stopped at, the rule that stopped it (and the hsop's generator
    indices when that rule is "hsop"), and, under key, the series of its
    group with the dimensions it gives up to that degree.  A set that no
    degree loop computed has no such degree, and is refused."""
    if gens.bound is None:
        raise ValueError("no degree loop computed this generator set, so it has no bound to write")
    doc = {
        "n": gens.group.n,
        "bound": gens.bound,
        "stop": gens.stop,
        "generators": generators,
        "degrees": list(gens.degrees),
        key: series_doc(series),
        "dimensions": [{"degree": d, "dim": series.coefficient(d)} for d in range(gens.bound + 1)],
    }
    if gens.stop == "hsop":
        doc["hsop"] = list(gens.hsop)
    return doc


def reduced_to_doc(rs: ReducedSystem) -> dict:
    return {"k": rs.k, "comps": [poly_to_doc(c) for c in rs.comps]}


def reduced_from_doc(doc) -> ReducedSystem:
    return _comps_from_doc(doc, "k", ReducedSystem, "reduced system")


# -- files ------------------------------------------------------------------


def dumps(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def parse_rational_vector(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals, e.g. '1/2,-3'."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ParseError(f"bad rational vector: {text!r}")
    return [frac_from_json(p) for p in parts]
