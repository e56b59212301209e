"""The three workloads: seeded inputs, job lists and the checks on outputs.

`build(workload, seed, in_dir, run_cli)` writes a workload's inputs to
`in_dir` and returns its job list and an input manifest.  A job is a dict with
an `id`, the CLI `command`, its `argv` (with `{in}` and `{out}` standing for
the input and per-pass output directories), the `out` file name and a `check`
spec that `check_output` applies to the job's output.  Jobs and checks are
plain data, so the set-up process can hand them to the measuring process in a
JSON file.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from typing import Callable

from exact import (
    Matrix,
    Poly,
    close,
    mat_inv,
    mat_mul,
    mat_vec,
    matrix,
    matrix_from_doc,
    matrix_to_doc,
    perm_matrix,
    poly_add,
    poly_deriv_eval,
    poly_eval,
    poly_from_doc,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_to_doc,
    transpose,
)

WORKLOADS = ("noether", "large-group", "orbit")

HEX_ROT = [[1, -1], [1, 0]]
BASE_GROUPS: dict[str, list[Matrix]] = {
    "C4": [matrix([[0, -1], [1, 0]])],
    "C6": [matrix(HEX_ROT)],
    "D4": [matrix([[0, -1], [1, 0]]), matrix([[1, 0], [0, -1]])],
    "D6": [matrix(HEX_ROT), matrix([[0, 1], [1, 0]])],
    "S3": [perm_matrix([1, 0, 2]), perm_matrix([1, 2, 0])],
    "B3": [perm_matrix([1, 0, 2]), perm_matrix([1, 2, 0]), matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])],
    "S4": [perm_matrix([1, 0, 2, 3]), perm_matrix([1, 2, 3, 0])],
    "minusI2": [matrix([[-1, 0], [0, -1]])],
    "minusI4": [matrix([[-int(i == j) for j in range(4)] for i in range(4)])],
}

# Classical generator degrees: (invariant ring, equivariant module).
EXPECTED_DEGREES = {
    "C4": ([2, 4, 4], [1, 1, 3, 3]),
    "C6": ([2, 6, 6], [1, 1, 5, 5]),
    "D4": ([2, 4], [1, 3]),
    "D6": ([2, 6], [1, 5]),
    "S3": ([1, 2, 3], [0, 1, 2]),
    "B3": ([2, 4, 6], [1, 3, 5]),
    "S4": ([1, 2, 3, 4], [0, 1, 2, 3]),
    "minusI2": ([2, 2, 2], [1, 1, 1, 1]),
    "minusI4": ([2] * 10, None),
}

MAX_DEFECT = 1e-6


class CheckFailed(Exception):
    """An output disagrees with what the workload expects."""


# -- inputs ------------------------------------------------------------------


def _unit_triangular(n: int, rng: random.Random, upper: bool) -> tuple[Matrix, Matrix]:
    """A random unit triangular integer matrix and its (integer) inverse.

    Off-diagonal entries are drawn from [-2, 2] without 0.
    """
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if upper:
                a[i][j] = rng.choice((-2, -1, 1, 2))
            else:
                a[j][i] = rng.choice((-2, -1, 1, 2))
    # row i of the inverse is e_i minus the off-diagonal part of row i of a
    # applied to the rows of the inverse already found
    inv: list[list[int]] = [[] for _ in range(n)]
    for i in (range(n - 1, -1, -1) if upper else range(n)):
        others = range(i + 1, n) if upper else range(i)
        inv[i] = [int(i == j) - sum(a[i][k] * inv[k][j] for k in others) for j in range(n)]
    return tuple(map(tuple, a)), tuple(map(tuple, inv))


def conjugator(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random integer matrix T of determinant 1 (unit upper times unit
    lower) and its inverse, also integral."""
    u, u_inv = _unit_triangular(n, rng, True)
    lo, lo_inv = _unit_triangular(n, rng, False)
    return mat_mul(u, lo), mat_mul(lo_inv, u_inv)


def conjugate(gens: list[Matrix], t: Matrix, t_inv: Matrix) -> list[Matrix]:
    return [mat_mul(mat_mul(t, g), t_inv) for g in gens]


MAX_CONJUGATE_ENTRY = 30


def dense_conjugate(gens: list[Matrix], rng: random.Random) -> list[Matrix]:
    """T g T^-1 for the first random conjugator T under which every element
    of the group that is not a multiple of the identity has no zero entry,
    and no entry exceeds MAX_CONJUGATE_ENTRY in size.

    Averaging costs grow with the number of nonzero entries and, more
    slowly, with their size, so this keeps every seed's copy about equally
    expensive while the matrices still differ from seed to seed.
    """
    n = len(gens[0])
    int_gens = [tuple(tuple(int(x) for x in r) for r in g) for g in gens]
    while True:
        conj = conjugate(int_gens, *conjugator(n, rng))
        elements = close(conj)
        entries = [x for g in elements if any(g[i][j] for i in range(n) for j in range(n) if i != j)
                   for r in g for x in r]
        if all(entries) and max(abs(x) for g in elements for r in g for x in r) <= MAX_CONJUGATE_ENTRY:
            return [matrix(g) for g in conj]


def group_doc(gens: list[Matrix]) -> dict:
    return {"n": len(gens[0]), "generators": [matrix_to_doc(g) for g in gens]}


def group_size(gens: list[Matrix]) -> dict:
    return {
        "n": len(gens[0]),
        "order": len(close(gens)),
        "generators": len(gens),
        "generator_nonzeros": sum(x != 0 for g in gens for r in g for x in r),
        "max_entry": str(max(abs(x) for g in gens for r in g for x in r)),
    }


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _job(job_id: str, command: str, argv: list[str], out: str, check: dict) -> dict:
    return {
        "id": job_id,
        "command": command,
        "argv": [command] + argv + ["--out", "{out}/" + out],
        "out": out,
        "check": check,
    }


def _bound(bound) -> list[str]:
    """CLI arguments for an explicit degree bound; None keeps the default."""
    return [] if bound is None else ["--bound", str(bound)]


def _generator_jobs(name: str, base: str, inv_bound, eq_bound) -> list[dict]:
    group = f"{{in}}/{name}.group.json"
    return [
        _job(f"{name}.invariants", "invariants", ["--group", group] + _bound(inv_bound),
             f"{name}.inv.json", {"kind": "invariants", "group": name, "expect": base}),
        _job(f"{name}.equivariants", "equivariants",
             ["--group", group, "--invariants", f"{{out}}/{name}.inv.json"] + _bound(eq_bound),
             f"{name}.eq.json", {"kind": "equivariants", "group": name, "expect": base}),
    ]


def _noether(seed: int, in_dir: str, run_cli: Callable[[list[str]], None]) -> tuple[list[dict], dict]:
    rng = random.Random(f"noether-{seed}")
    groups = [(name, name, BASE_GROUPS[name]) for name in ("C4", "C6", "D4", "D6", "S3")]
    for base in ("D4", "S3"):
        groups.append((base + "c", base, dense_conjugate(BASE_GROUPS[base], rng)))
    jobs, sizes = [], {}
    for name, base, gens in groups:
        _write(os.path.join(in_dir, f"{name}.group.json"), group_doc(gens))
        sizes[name] = group_size(gens)
        jobs += _generator_jobs(name, base, None, None)
    return jobs + _probe(seed, in_dir, run_cli, sizes), sizes


def _large_group(seed: int, in_dir: str, run_cli: Callable[[list[str]], None]) -> tuple[list[dict], dict]:
    # The seed picks a generating set: the standard generators conjugated by a
    # random element of the group itself, in shuffled order.  The group, and
    # so every output, is the same for every seed.
    rng = random.Random(f"large-group-{seed}")
    jobs, sizes = [], {}
    for name, inv_bound, eq_bound in (("B3", 8, 5), ("S4", 6, 4)):
        base = BASE_GROUPS[name]
        h = rng.choice(close(base))
        gens = conjugate(base, h, mat_inv(h))
        rng.shuffle(gens)
        _write(os.path.join(in_dir, f"{name}.group.json"), group_doc(gens))
        sizes[name] = group_size(gens)
        jobs += _generator_jobs(name, name, inv_bound, eq_bound)
    return jobs + _probe(seed, in_dir, run_cli, sizes), sizes


# Orbit-space fields: group, invariant bound, module bound, damping power k
# (the field has degree 2k + 1).
ORBIT_FIELDS = (("S4", 4, 3, 3), ("D6", 6, 5, 5), ("C4", None, None, 4))
ORBIT_RELATIONS = (("minusI4", 6, 20), ("C4", 16, 1))


def _average_square_norm(gens: list[Matrix]) -> Poly:
    """q = Reynolds average of |x|^2, that is x^T (mean of g^T g) x."""
    elements = close(gens)
    n = len(gens[0])
    m = [[Fraction(0)] * n for _ in range(n)]
    for g in elements:
        gtg = mat_mul(transpose(g), g)
        for i in range(n):
            for j in range(n):
                m[i][j] += Fraction(gtg[i][j], len(elements))
    q: Poly = {}
    for i in range(n):
        for j in range(n):
            e = tuple(int(k == i) + int(k == j) for k in range(n))
            q = poly_add(q, {e: m[i][j]})
    return q


def _weighted_exponents(weights: list[int], limit: int) -> list[tuple[int, ...]]:
    """Exponent tuples a with sum a_i * weights_i <= limit."""
    out = [()]
    for w in weights:
        out = [a + (e,) for a in out for e in range(0, (limit - sum(x * y for x, y in zip(a, weights))) // w + 1)]
    return out


def orbit_field(inv_gens: list[Poly], module_gens: list[list[Poly]], q: Poly, k: int,
                n: int, rng: random.Random) -> list[Poly]:
    """-(1 + q^k) x plus every module generator times every invariant product
    of total degree at most 2k.

    Each such term T gets the coefficient s / 2^m, with s drawn from
    {+-1, +-2, +-3, +-4} / 16 and 2^m the least power of two that is at least
    (number of terms) * (sum of |coefficients| of T).  So every coefficient
    lies in [-1/4, 1/4], the random part is at most 1/4 in size on the unit
    cube, and the damping term, of the top degree 2k + 1, keeps the flow
    bounded and RK4 finite.
    """
    one = (0,) * n
    damp = poly_add({one: Fraction(1)}, poly_pow(q, k, n))
    field = [poly_scale(poly_mul(damp, {tuple(int(j == i) for j in range(n)): Fraction(1)}), Fraction(-1))
             for i in range(n)]
    weights = [max(sum(e) for e in p) for p in inv_gens]
    terms = []
    for w in module_gens:
        w_deg = max((sum(e) for comp in w for e in comp), default=0)
        for a in _weighted_exponents(weights, 2 * k - w_deg):
            mult: Poly = {one: Fraction(1)}
            for p, e in zip(inv_gens, a):
                for _ in range(e):
                    mult = poly_mul(mult, p)
            terms.append([poly_mul(mult, wc) for wc in w])
    for term in terms:
        size = len(terms) * sum(abs(c) for comp in term for c in comp.values())
        scale = 1 << max(0, math.ceil(math.log2(size)))
        c = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 16 * scale)
        field = [poly_add(f, poly_scale(t, c)) for f, t in zip(field, term)]
    return field


def _field_jobs(name: str, inv_bound, eq_bound, k: int, in_dir: str,
                run_cli: Callable[[list[str]], None], rng: random.Random, sizes: dict) -> list[dict]:
    """Compute the group's generators with the CLI, write a seeded field of
    degree 2k + 1, and return the reduce, check-related and integrate-check
    jobs on it."""
    gens = BASE_GROUPS[name]
    group = os.path.join(in_dir, f"{name}.group.json")
    inv_path = os.path.join(in_dir, f"{name}.inv.json")
    eq_path = os.path.join(in_dir, f"{name}.eq.json")
    run_cli(["invariants", "--group", group, "--out", inv_path] + _bound(inv_bound))
    run_cli(["equivariants", "--group", group, "--invariants", inv_path, "--out", eq_path] + _bound(eq_bound))
    inv_doc, eq_doc = _load(inv_path), _load(eq_path)
    check_invariants(inv_doc, gens, EXPECTED_DEGREES[name][0])
    check_equivariants(eq_doc, gens, EXPECTED_DEGREES[name][1])
    n = len(gens[0])
    inv_gens = [poly_from_doc(p) for p in inv_doc["generators"]]
    module_gens = [[poly_from_doc(c) for c in v["comps"]] for v in eq_doc["generators"]]
    field = orbit_field(inv_gens, module_gens, _average_square_norm(gens), k, n, rng)
    _write(os.path.join(in_dir, f"{name}.field.json"), {"n": n, "comps": [poly_to_doc(c, n) for c in field]})
    # Signs alternate, starting with +, and only the sizes are random: RK4
    # evaluates x^e with libm's pow, which is several times slower on a
    # negative base, so a seed's sign pattern alone would change the cost.
    # Sizes stay at most 1/2: from (3/4, -3/4) the reduced D6 system is stiff
    # enough that RK4's error at step 1e-3 exceeds the 1e-6 tolerance.
    x0 = ",".join(str(Fraction((-1) ** i * rng.choice((1, 2)), 4)) for i in range(n))
    sizes[f"{name}.field"] = {
        "degree": 2 * k + 1,
        "terms": sum(len(c) for c in field),
        "invariant_generator_terms": sum(len(p) for p in inv_gens),
        "module_generator_terms": sum(len(c) for v in module_gens for c in v),
        "x0": x0,
    }
    common = ["--group", f"{{in}}/{name}.group.json", "--invariants", f"{{in}}/{name}.inv.json",
              "--field", f"{{in}}/{name}.field.json"]
    reduced = f"{{out}}/{name}.reduced.json"
    return [
        _job(f"{name}.reduce", "reduce", common, f"{name}.reduced.json", {"kind": "reduce", "group": name}),
        _job(f"{name}.check-related", "check-related", common + ["--reduced", reduced],
             f"{name}.related.json", {"kind": "related"}),
        _job(f"{name}.integrate-check", "integrate-check",
             common + ["--reduced", reduced, f"--x0={x0}", "--t-end", "1", "--step", "1e-3",
                       "--tol", str(MAX_DEFECT)],
             f"{name}.integrate.json", {"kind": "integrate"}),
    ]


def _relations_job(name: str, dmax: int, count: int) -> dict:
    return _job(f"{name}.relations", "relations", ["--group", f"{{in}}/{name}.group.json", "--dmax", str(dmax)],
                f"{name}.relations.json", {"kind": "relations", "group": name, "count": count})


def _write_groups(names, in_dir: str, sizes: dict) -> None:
    for name in names:
        _write(os.path.join(in_dir, f"{name}.group.json"), group_doc(BASE_GROUPS[name]))
        sizes[name] = group_size(BASE_GROUPS[name])


def _probe(seed: int, in_dir: str, run_cli: Callable[[list[str]], None], sizes: dict) -> list[dict]:
    """The orbit-space pipeline on -I acting on Q^2, a few hundredths of a
    second per pass.  It keeps every layer's time above 0 on the workloads
    built around the generator loops."""
    _write_groups(["minusI2"], in_dir, sizes)
    rng = random.Random(f"probe-{seed}")
    return _field_jobs("minusI2", None, None, 1, in_dir, run_cli, rng, sizes) + [_relations_job("minusI2", 4, 1)]


def _orbit(seed: int, in_dir: str, run_cli: Callable[[list[str]], None]) -> tuple[list[dict], dict]:
    rng = random.Random(f"orbit-{seed}")
    jobs: list[dict] = []
    sizes: dict = {}
    _write_groups(["S4", "D6", "C4", "minusI4"], in_dir, sizes)
    for name, inv_bound, eq_bound, k in ORBIT_FIELDS:
        jobs += _field_jobs(name, inv_bound, eq_bound, k, in_dir, run_cli, rng, sizes)
    jobs += [_relations_job(name, dmax, count) for name, dmax, count in ORBIT_RELATIONS]
    # the one small generator-loop job, so no layer reads exactly 0 here
    jobs.append(_job("C4.equivariants", "equivariants",
                     ["--group", "{in}/C4.group.json", "--invariants", "{in}/C4.inv.json"],
                     "C4.eq.json", {"kind": "equivariants", "group": "C4", "expect": "C4"}))
    return jobs, sizes


def build(workload: str, seed: int, in_dir: str, run_cli: Callable[[list[str]], None]) -> tuple[list[dict], dict]:
    if workload == "noether":
        return _noether(seed, in_dir, run_cli)
    if workload == "large-group":
        return _large_group(seed, in_dir, run_cli)
    if workload == "orbit":
        return _orbit(seed, in_dir, run_cli)
    raise ValueError(f"unknown workload {workload!r}")


# -- checks ------------------------------------------------------------------


def _points(n: int) -> list[list[Fraction]]:
    """Two fixed, generic rational points at which identities are tested."""
    return [
        [Fraction((-1) ** i * (3 + 2 * i), 7 + 3 * i) for i in range(n)],
        [Fraction(5 - 4 * i, 11 + 2 * i) for i in range(n)],
    ]


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def check_invariants(doc: dict, gens: list[Matrix], degrees: list[int]) -> None:
    _expect_equal("invariant degrees", doc["degrees"], degrees)
    polys = [poly_from_doc(p) for p in doc["generators"]]
    _expect_equal("generator count", len(polys), len(degrees))
    for p, d in zip(polys, degrees):
        if any(sum(e) != d for e in p):
            raise CheckFailed(f"generator is not homogeneous of degree {d}")
    for x in _points(len(gens[0])):
        for g in gens:
            gx = mat_vec(g, x)
            for i, p in enumerate(polys):
                if poly_eval(p, gx) != poly_eval(p, x):
                    raise CheckFailed(f"invariant generator {i} is not invariant")


def check_equivariants(doc: dict, gens: list[Matrix], degrees: list[int]) -> None:
    _expect_equal("equivariant degrees", doc["degrees"], degrees)
    fields = [[poly_from_doc(c) for c in v["comps"]] for v in doc["generators"]]
    _expect_equal("module generator count", len(fields), len(degrees))
    for x in _points(len(gens[0])):
        for g in gens:
            gx = mat_vec(g, x)
            for i, v in enumerate(fields):
                if [poly_eval(c, gx) for c in v] != mat_vec(g, [poly_eval(c, x) for c in v]):
                    raise CheckFailed(f"module generator {i} is not equivariant")


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_reduced(doc: dict, inv_doc: dict, field_doc: dict) -> None:
    """Y_i(p(x)) == sum_j X_j(x) dp_i/dx_j(x) at the check points."""
    inv = [poly_from_doc(p) for p in inv_doc["generators"]]
    field = [poly_from_doc(c) for c in field_doc["comps"]]
    comps = [poly_from_doc(c) for c in doc["comps"]]
    _expect_equal("reduced components", len(comps), len(inv))
    for x in _points(field_doc["n"]):
        px = [poly_eval(p, x) for p in inv]
        xx = [poly_eval(c, x) for c in field]
        for i, (p, y) in enumerate(zip(inv, comps)):
            lhs = sum((xj * poly_deriv_eval(p, j, x) for j, xj in enumerate(xx)), Fraction(0))
            if poly_eval(y, px) != lhs:
                raise CheckFailed(f"reduced component {i} fails the defining identity")


def check_output(check: dict, out_path: str, in_dir: str) -> None:
    """Raise CheckFailed unless the job's output satisfies its check spec."""
    doc = _load(out_path)
    kind = check["kind"]
    if kind in ("invariants", "equivariants"):
        gens = [matrix_from_doc(g) for g in _load(os.path.join(in_dir, f"{check['group']}.group.json"))["generators"]]
        inv_degrees, eq_degrees = EXPECTED_DEGREES[check["expect"]]
        if kind == "invariants":
            check_invariants(doc, gens, inv_degrees)
        else:
            check_equivariants(doc, gens, eq_degrees)
    elif kind == "reduce":
        name = check["group"]
        check_reduced(doc, _load(os.path.join(in_dir, f"{name}.inv.json")),
                      _load(os.path.join(in_dir, f"{name}.field.json")))
    elif kind == "related":
        _expect_equal("check-related output", doc, {"related": True})
    elif kind == "integrate":
        _expect_equal("integrate-check pass", doc.get("pass"), True)
        if not 0 <= doc["max_defect"] <= MAX_DEFECT:
            raise CheckFailed(f"max_defect {doc['max_defect']} above {MAX_DEFECT}")
        _expect_equal("integrate-check samples", doc["samples"], 1001)
    elif kind == "relations":
        _expect_equal("generator degrees", doc["generator_degrees"], EXPECTED_DEGREES[check["group"]][0])
        _expect_equal("relation count", len(doc["relations"]), check["count"])
    else:
        raise ValueError(f"unknown check kind {kind!r}")
