"""Golden CLI outputs: the case list, and a script that rewrites them.

Each case is one CLI invocation whose output bytes are committed next to
this file as `<name>`.  `tests/test_golden.py` reruns every case and
compares bytes, so any change to what the CLI prints fails there.  When a
change to the output is intended, regenerate on purpose and review the diff:

    PYTHONPATH=src python tests/golden/regen.py

Argument templates use `{root}` for the repository root, `{groups}` for the
group files kept here, `{inputs}` for the polynomial and field files kept
here, and `{out}` for the directory the outputs go to;
cases run in list order, so a later case may read an earlier one's output.
"""

from __future__ import annotations

import os
import sys

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN_DIR))

DEMO_GROUPS = ("c4", "swap", "z2_diag", "z2_line")

# (name, group file, invariants bound, equivariants bound); None keeps the
# CLI default.  Every group takes the one fixed-space pipeline: orbit sums of
# the monomial generators, cut down by the kernel of the others.  b3 and s4
# have only monomial generators, so only the sums act; c6_hex, d4_conj,
# s3_conj and d4_frac (conjugated by dense unimodular integer matrices or by
# [[2,1],[0,1]], so its entries are not integers) have none, so only the
# kernel acts; d6_hex mixes a monomial swap with a non-monomial rotation.
# swap_frac is the swap conjugated by diag(1, 1/2), [[0,2],[1/2,0]]: a monomial
# generator with entries that are not integers.
GENERATOR_CASES = [(g, "{root}/demos/data/%s.json" % g, None, None) for g in DEMO_GROUPS] + [
    ("b3", "{groups}/b3.json", 8, 5),
    ("s4", "{groups}/s4.json", 6, 4),
] + [(g, "{groups}/%s.json" % g, None, None)
     for g in ("d6_hex", "c6_hex", "d4_conj", "s3_conj", "d4_frac", "swap_frac")]

# relations on groups beyond the demos: the monomial groups s4 and b3, d6_hex
# with one monomial and one non-monomial generator, and swap_frac.
RELATION_GROUPS = DEMO_GROUPS + ("s4", "b3", "d6_hex", "swap_frac")

# relations above a relation's degree, where the multiples of the lower
# relations fill part of each kernel: (group, invariants file or None to
# compute them, weighted degree bound).  -I on Q^4 has 20 relations at degree
# 4 whose multiples span all of degree 6; C4 (the orbit benchmark's job) has
# one at degree 8 and only its multiples at degrees 10-16; Q8 has 104 at
# degrees 8, 10 and 12, where the multiples fall short without being empty.
RELATION_BOUND_CASES = [
    ("minus_i4", "{groups}/minus_i4.json", None, 6),
    ("c4", "{root}/demos/data/c4.json", "{out}/c4.invariants.json", 16),
    ("q8", "{groups}/q8.json", "{out}/q8.invariants.json", 12),
]

# The two monomial groups again at the CLI defaults, where both loops stop on
# an hsop certificate (S4 at 4 / 3, B3 at 6 / 5); run to Noether's bound
# (24 / 23 and 48 / 47) the same outputs took minutes.
DEFAULT_CASES = [("s4_default", "{groups}/s4.json"), ("b3_default", "{groups}/b3.json")]

# Groups that are not in the demos, at the CLI defaults: A4 and O (the cube's
# rotations) on Q^3 stop on an hsop, and Q8 on Q^4 runs to Noether's bound
# (8 / 7).  BT, the binary tetrahedral group on Q^4 (order 24), runs its
# invariants to an explicit bound: most of its degrees are spanned by the
# products of its generators, so it shows what a degree costs when no new
# generator lies there.
EXTRA_CASES = [(g, "{groups}/%s.json" % g) for g in ("q8", "a4", "o")]
BT_BOUND = 18

# Groups whose set-up is the cost, by the Molien series alone: S6 (order
# 720) and F4 (order 1152); the Weyl groups W(D5) (order 1920) and W(E6)
# (order 51,840, past the default cap, so its file carries "cap": 60000) in
# root coordinates, whose generators are integer and none monomial; and
# f4_conj, F4 conjugated by the dense unimodular [[6,-4,-4,-1],
# [5,-3,-5,-2], [-4,3,3,1], [-2,1,2,1]], whose coordinate rows have an
# orbit of 1,872 vectors where F4's have one of 24.
MOLIEN_CASES = ("s6", "f4", "d5", "e6", "f4_conj")

# S6 (order 720) on Q^6 at bounds 8 / 7: the only goldens in six variables,
# so monomial tables in 6 variables and relabellings in 12 (the phase
# action).  Its own list, since GENERATOR_CASES also writes a molien case,
# whose name would clash with MOLIEN_CASES' s6.molien.json.
S6_CASES = [("s6", "{groups}/s6.json", 8, 7)]

# (group, field) pairs for which the field is equivariant.
REDUCE_CASES = [
    ("z2_line", "cubic_line_field"),
    ("z2_diag", "radial_plane_field"),
    ("swap", "radial_plane_field"),
    ("c4", "radial_plane_field"),
]

# One start per reduce case for integrate-check, at its default t_end and
# step (1,000 RK4 steps), passed as --x0=... since a start may begin with
# "-".  Every map here has far fewer terms than the
# straight-line limit, so the printed max_defect comes from Python float
# arithmetic alone and does not depend on the BLAS numpy links.
X0 = {"z2_line": "1/2", "z2_diag": "1/2,1/3", "swap": "1/2,-1/3", "c4": "-3/4,1/5"}

# Groups with an invariant polynomial and an equivariant field kept in
# inputs/ as <name>_invariant.json and <name>_field.json, for express, reduce
# and check-related: S4's field of degree 5 (504 terms) and invariant of
# degree 6, and swap_frac's of the same degrees.  Both groups' generators are
# monomial, so an invariant's coefficients are fixed along each orbit of
# monomials.
SOLVE_GROUPS = ("s4", "swap_frac")


def _bound(b) -> list[str]:
    return [] if b is None else ["--bound", str(b)]


def _generator_cases(name: str, group: str, inv_bound, eq_bound) -> list[tuple[str, list[str]]]:
    inv = "{out}/%s.invariants.json" % name
    return [
        (f"{name}.invariants.json", ["invariants", "--group", group] + _bound(inv_bound)),
        (f"{name}.equivariants.json",
         ["equivariants", "--group", group, "--invariants", inv] + _bound(eq_bound)),
    ]


def cases() -> list[tuple[str, list[str]]]:
    """(output file name, argv template) for every golden, in run order."""
    out = []
    for name, group, inv_bound, eq_bound in GENERATOR_CASES:
        inv = "{out}/%s.invariants.json" % name
        out += _generator_cases(name, group, inv_bound, eq_bound)
        out.append((f"{name}.molien.json", ["molien", "--group", group, "--degrees", "12"]))
        if name in RELATION_GROUPS:
            out.append((f"{name}.relations.json",
                        ["relations", "--group", group, "--invariants", inv]))
    for name, group in DEFAULT_CASES + EXTRA_CASES:
        out += _generator_cases(name, group, None, None)
    for name, group, inv, bound in RELATION_BOUND_CASES:
        given = ["--group", group] + ([] if inv is None else ["--invariants", inv])
        out.append((f"{name}.dmax{bound}.relations.json", ["relations", *given, "--dmax", str(bound)]))
    out.append(("bt.invariants.json",
                ["invariants", "--group", "{groups}/bt.json", "--bound", str(BT_BOUND)]))
    for name in MOLIEN_CASES:
        out.append((f"{name}.molien.json",
                    ["molien", "--group", "{groups}/%s.json" % name, "--degrees", "12"]))
    for name, group, inv_bound, eq_bound in S6_CASES:
        out += _generator_cases(name, group, inv_bound, eq_bound)
    for name, field in REDUCE_CASES:
        given = [
            "--group", "{root}/demos/data/%s.json" % name,
            "--invariants", "{out}/%s.invariants.json" % name,
            "--field", "{root}/demos/data/%s.json" % field,
        ]
        reduced = ["--reduced", "{out}/%s.%s.reduce.json" % (name, field)]
        out += [
            (f"{name}.{field}.reduce.json", ["reduce", *given]),
            (f"{name}.{field}.check-related.json", ["check-related", *given, *reduced]),
            (f"{name}.{field}.integrate-check.json",
             ["integrate-check", *given, *reduced, f"--x0={X0[name]}"]),
        ]
    for name in SOLVE_GROUPS:
        given = ["--group", "{groups}/%s.json" % name, "--invariants", "{out}/%s.invariants.json" % name]
        field = ["--field", "{inputs}/%s_field.json" % name]
        out += [
            (f"{name}.invariant.express.json",
             ["express", *given, "--poly", "{inputs}/%s_invariant.json" % name]),
            (f"{name}.field.reduce.json", ["reduce", *given, *field]),
            (f"{name}.field.check-related.json",
             ["check-related", *given, *field, "--reduced", "{out}/%s.field.reduce.json" % name]),
        ]
    return out


def argv_for(template: list[str], out_dir: str, file_name: str) -> list[str]:
    subst = {"root": ROOT, "groups": os.path.join(GOLDEN_DIR, "groups"),
             "inputs": os.path.join(GOLDEN_DIR, "inputs"), "out": out_dir}
    return [a.format(**subst) for a in template] + ["--out", os.path.join(out_dir, file_name)]


def main() -> int:
    from equivar.cli import main as cli_main

    for file_name, template in cases():
        code = cli_main(argv_for(template, GOLDEN_DIR, file_name))
        if code != 0:
            print(f"{file_name}: exit {code}", file=sys.stderr)
            return 1
        print(file_name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
