"""Batch command-line front end.

Every command reads JSON files, runs one pipeline, and writes canonical JSON
(to --out, or stdout when --out is omitted).  Outputs are byte-identical
across runs on identical inputs.  integrate-check also writes a one-line
summary (max_defect, tol, PASS or FAIL) to stderr, so stdout stays one JSON
document.

Exit codes: 0 success, 1 domain error (non-invariant input, closure cap
exceeded, failed check, ...) with a machine-readable JSON object on stderr,
2 parse/IO/usage errors.  EQUIVAR_CAP in the environment overrides the
group-closure cap.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from .actions import PolyVectorField, _require_invariant, infer_action
from .equivariants import equivariant_module_generators
from .errors import EquivarError, NotInvariant, ParseError
from .groups import MatGroup
from .invariants import InvariantGens, express, invariant_ring_generators, relations
from .molien import molien, molien_equivariant
from .reduction import check_related, integrate_pair, reduce_field
from . import serialize as sz


def _load_group(args) -> MatGroup:
    cap_env = os.environ.get("EQUIVAR_CAP")
    cap_override = None
    if cap_env is not None:
        try:
            cap_override = int(cap_env)
        except ValueError:
            raise ParseError(f"EQUIVAR_CAP must be an integer, got {cap_env!r}")
        if cap_override < 1:
            raise ParseError(f"EQUIVAR_CAP must be a positive integer, got {cap_env!r}")
    return sz.group_from_doc(sz.load_json(args.group), cap_override=cap_override)


def _load_or_compute_invariants(args, group: MatGroup) -> InvariantGens:
    if getattr(args, "invariants", None):
        return sz.invariant_gens_from_doc(sz.load_json(args.invariants), group)
    return invariant_ring_generators(group)


def _emit(args, doc) -> None:
    text = sz.dumps(doc)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly_error_doc(exc: NotInvariant) -> dict:
    witness = {"generator_index": exc.generator_index}
    diff = exc.difference
    if isinstance(diff, PolyVectorField):
        witness["difference"] = sz.field_to_doc(diff)
    elif diff is not None:
        witness["difference"] = sz.poly_to_doc(diff)
    return {"error": "NotInvariant", "message": str(exc), "witness": witness}


# -- commands ----------------------------------------------------------------


def _cmd_invariants(args) -> int:
    group = _load_group(args)
    inv = invariant_ring_generators(group, degree_bound=args.bound)
    _emit(args, sz.invariant_gens_to_doc(inv))
    return 0


def _cmd_equivariants(args) -> int:
    group = _load_group(args)
    inv = _load_or_compute_invariants(args, group)
    eg = equivariant_module_generators(inv, degree_bound=args.bound)
    _emit(args, sz.equivariant_gens_to_doc(eg))
    return 0


# The table holds one row per degree (20,000 degrees of F4 took about 4 s
# and 2 MB on 2 vCPUs), so a larger --degrees is refused before the group
# is set up.
_MAX_DEGREES = 100_000


def _cmd_molien(args) -> int:
    if not 0 <= args.degrees <= _MAX_DEGREES:
        raise ParseError(f"--degrees must be in 0..{_MAX_DEGREES}, got {args.degrees}")
    group = _load_group(args)
    inv_series = molien(group)
    eq_series = molien_equivariant(group)
    doc = {
        "n": group.n,
        "order": group.order,
        "molien": sz.series_doc(inv_series),
        "equivariant_molien": sz.series_doc(eq_series),
        "dimensions": [
            {
                "degree": d,
                "invariant_dim": inv_series.coefficient(d),
                "equivariant_dim": eq_series.coefficient(d),
            }
            for d in range(args.degrees + 1)
        ],
    }
    _emit(args, doc)
    return 0


def _cmd_express(args) -> int:
    group = _load_group(args)
    inv = _load_or_compute_invariants(args, group)
    q = sz.poly_from_doc(sz.load_json(args.poly))
    f = express(inv, q)
    _emit(args, {"generator_degrees": list(inv.degrees), "expression": sz.poly_to_doc(f)})
    return 0


def _cmd_relations(args) -> int:
    group = _load_group(args)
    inv = _load_or_compute_invariants(args, group)
    dmax = args.dmax if args.dmax is not None else 2 * max(inv.degrees, default=1)
    rset = relations(inv, dmax)
    doc = {
        "generator_degrees": list(inv.degrees),
        "weighted_degree_bound": dmax,
        "relations": [sz.poly_to_doc(r) for r in rset.rels],
        "weighted_degrees": list(rset.weighted_degrees),
    }
    _emit(args, doc)
    return 0


def _cmd_reduce(args) -> int:
    group = _load_group(args)
    inv = _load_or_compute_invariants(args, group)
    field = sz.field_from_doc(sz.load_json(args.field))
    rs = reduce_field(field, inv)
    _emit(args, sz.reduced_to_doc(rs))
    return 0


def _cmd_check_invariance(args) -> int:
    group = _load_group(args)
    if (args.poly is None) == (args.field is None):
        raise ParseError("exactly one of --poly or --field is required")
    if args.poly:
        obj = sz.poly_from_doc(sz.load_json(args.poly))
    else:
        obj = sz.field_from_doc(sz.load_json(args.field))
    action = infer_action(group, obj)
    _require_invariant(group, obj, action, "object is not invariant")
    _emit(args, {"invariant": True, "action": action})
    return 0


def _cmd_check_related(args) -> int:
    group = _load_group(args)
    inv = _load_or_compute_invariants(args, group)
    field = sz.field_from_doc(sz.load_json(args.field))
    reduced = sz.reduced_from_doc(sz.load_json(args.reduced))
    chk = check_related(field, reduced, inv)
    if not chk:
        err = {
            "error": "NotRelated",
            "message": "pair fails the relatedness identity",
            "witness": {"component": chk.index, "difference": sz.poly_to_doc(chk.difference)},
        }
        sys.stderr.write(sz.dumps(err))
        return 1
    _emit(args, {"related": True})
    return 0


def _cmd_integrate_check(args) -> int:
    if not 0 <= args.tol < math.inf:  # also false for NaN
        raise ParseError(f"--tol must be a finite non-negative number, got {args.tol}")
    for option, value in (("--t-end", args.t_end), ("--step", args.step)):
        if not 0 < value < math.inf:
            raise ParseError(f"{option} must be a finite positive number, got {value}")
    group = _load_group(args)
    inv = _load_or_compute_invariants(args, group)
    field = sz.field_from_doc(sz.load_json(args.field))
    if args.reduced:
        reduced = sz.reduced_from_doc(sz.load_json(args.reduced))
    else:
        reduced = reduce_field(field, inv)
    x0 = sz.parse_rational_vector(args.x0)
    report = integrate_pair(field, reduced, inv, x0, args.t_end, args.step)
    ok = report.max_defect <= args.tol
    doc = {
        "max_defect": report.max_defect,
        "tol": args.tol,
        "pass": ok,
        "t_end": args.t_end,
        "step": args.step,
        "samples": report.samples,
    }
    _emit(args, doc)
    sys.stderr.write(f"max_defect={report.max_defect:.6e} tol={args.tol:.6e} {'PASS' if ok else 'FAIL'}\n")
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):  # each subcommand's parser is one too
    def error(self, message):  # usage errors: main's exit 2, one JSON object
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call:
    its defaults are immutable, parse_args returns a fresh Namespace, and
    the _cmd_* functions read the module globals when called."""
    parser = _Parser(
        prog="equivar",
        description="Invariant rings, equivariant vector fields, and orbit-space reduction "
        "for finite rational matrix groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--group", required=True, help="group JSON file")
        p.add_argument("--out", help="output JSON path (stdout when omitted)")
        return p

    p = add("invariants", _cmd_invariants, help="generators of the invariant ring")
    p.add_argument("--bound", type=int, help="degree bound (default: the bound an hsop among "
                   "the generators certifies, or the group order when none beats it)")

    p = add("equivariants", _cmd_equivariants, help="module generators of equivariant fields")
    p.add_argument("--invariants", help="invariant generators JSON (computed when omitted)")
    p.add_argument("--bound", type=int, help="degree bound (default: the bound an hsop among "
                   "the invariant generators certifies, or the group order - 1 when none beats it)")

    p = add("molien", _cmd_molien, help="dimension series and per-degree table")
    p.add_argument("--degrees", type=int, default=8, help="expand the table through this degree")

    p = add("express", _cmd_express, help="write an invariant polynomial in the generators")
    p.add_argument("--invariants", help="invariant generators JSON (computed when omitted)")
    p.add_argument("--poly", required=True, help="polynomial JSON file")

    p = add("relations", _cmd_relations, help="relations among the invariant generators")
    p.add_argument("--invariants", help="invariant generators JSON (computed when omitted)")
    p.add_argument("--dmax", type=int, help="weighted degree bound (default: twice the max degree)")

    p = add("reduce", _cmd_reduce, help="push an equivariant field to the orbit space")
    p.add_argument("--invariants", help="invariant generators JSON (computed when omitted)")
    p.add_argument("--field", required=True, help="vector field JSON file")

    p = add("check-invariance", _cmd_check_invariance, help="test invariance of a polynomial or field")
    p.add_argument("--poly", help="polynomial JSON file")
    p.add_argument("--field", help="vector field JSON file")

    p = add("check-related", _cmd_check_related, help="verify a (field, reduced system) pair")
    p.add_argument("--invariants", help="invariant generators JSON (computed when omitted)")
    p.add_argument("--field", required=True, help="vector field JSON file")
    p.add_argument("--reduced", required=True, help="reduced system JSON file")

    p = add("integrate-check", _cmd_integrate_check, help="numeric witness of relatedness")
    # a dash then a digit is a value, so "--x0 -3/4,1/5" reads like "--x0=-3/4,1/5"
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("--invariants", help="invariant generators JSON (computed when omitted)")
    p.add_argument("--field", required=True, help="vector field JSON file")
    p.add_argument("--reduced", help="reduced system JSON (derived via reduce when omitted)")
    p.add_argument("--x0", required=True, help="start point, comma-separated rationals")
    p.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotInvariant as exc:
        sys.stderr.write(sz.dumps(_poly_error_doc(exc)))
        return 1
    except EquivarError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        time = getattr(exc, "time", None)
        if time is not None:
            doc["time"] = time
        sys.stderr.write(sz.dumps(doc))
        return 1
    except ParseError as exc:
        sys.stderr.write(sz.dumps({"error": "ParseError", "message": str(exc)}))
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(sz.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
