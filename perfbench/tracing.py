"""Per-layer spans, recorded by wrapping equivar's functions from outside.

`Tracer.install()` replaces each function named in `WRAPPED` by a wrapper
that records a span (layer, start, end, parent span, job) and, for a few
layers, one number taken from the call (rows reduced, vectors accepted, ...).
A module-level function is replaced in every `equivar.*` namespace that binds
it, because modules import each other's functions by name; a method is
replaced on its class.  A name that no longer exists is listed in
`Tracer.absent` and its metrics read 0, so renaming or deleting a function
does not break the benchmark.  `uninstall()` puts the originals back.

Spans stay in memory; `pass_metrics` turns the spans of one pass into the
per-layer metrics, and `Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

JOB = "cli.job"


def _rows(args, kwargs, result):
    return len(args[0] if args else kwargs["rows"])


def _accepted(args, kwargs, result):
    return int(bool(result))


def _group_order(args, kwargs, result):
    return result.order


def _group_degree(args, kwargs, result):
    group = args[0] if args else kwargs["group"]
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    return (id(group), degree)


# (layer, module, attribute, what to record from the call)
WRAPPED = (
    ("actions.reynolds", "actions", "reynolds", None),
    ("actions.is_invariant", "actions", "is_invariant", None),
    ("poly.compose_linear", "poly", "MultiPoly.compose_linear", None),
    ("poly.substitute", "poly", "MultiPoly.substitute", None),
    ("invariants.invariant_basis", "invariants", "invariant_basis", _group_degree),
    ("invariants.invariant_ring_generators", "invariants", "invariant_ring_generators", None),
    ("invariants.express", "invariants", "express", None),
    ("invariants.power_product", "invariants", "power_product", None),
    ("invariants.relations", "invariants", "relations", None),
    ("equivariants.equivariant_basis", "equivariants", "equivariant_basis", None),
    ("equivariants.equivariant_module_generators", "equivariants", "equivariant_module_generators", None),
    ("linalg.rref", "linalg", "rref", _rows),
    ("linalg.echelon_add", "linalg", "Echelon.add", _accepted),
    ("linalg.solve_free_zero", "linalg", "solve_free_zero", None),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None),
    ("reduction.check_related", "reduction", "check_related", None),
    ("reduction.directional_derivatives", "reduction", "directional_derivatives", None),
    ("reduction.reduce_field", "reduction", "reduce_field", None),
    ("reduction.integrate_pair", "reduction", "integrate_pair", None),
    ("groups.close_group", "groups", "close_group", _group_order),
    ("molien.molien", "molien", "molien", None),
    ("molien.molien_equivariant", "molien", "molien_equivariant", None),
    ("serialize.load_json", "serialize", "load_json", None),
    ("serialize.poly_from_doc", "serialize", "poly_from_doc", None),
    ("serialize.field_from_doc", "serialize", "field_from_doc", None),
    ("serialize.reduced_from_doc", "serialize", "reduced_from_doc", None),
    ("serialize.dumps", "serialize", "dumps", None),
    ("serialize.poly_to_doc", "serialize", "poly_to_doc", None),
    ("serialize.field_to_doc", "serialize", "field_to_doc", None),
)

LOAD = ("serialize.load_json", "serialize.poly_from_doc", "serialize.field_from_doc",
        "serialize.reduced_from_doc")
DUMP = ("serialize.dumps", "serialize.poly_to_doc", "serialize.field_to_doc")
SERIES = ("molien.molien", "molien.molien_equivariant")
SOLVES = ("linalg.solve_free_zero", "linalg.kernel_basis")
# The fixed-space and series calls inside each generator loop; the rest of
# the loop's time is span building plus the second Molien pass.
LOOP_PARTS = {
    "invariants.invariant_ring_generators": ("invariants.invariant_basis",) + SERIES,
    "equivariants.equivariant_module_generators": ("equivariants.equivariant_basis",) + SERIES,
}

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
PER_LAYER_UNITS = {
    "actions.reynolds_s": "s",
    "actions.reynolds.calls": "count",
    "poly.compose_linear.calls": "count",
    "poly.compose_linear_s": "s",
    "invariants.invariant_basis_s": "s",
    "invariants.invariant_basis.calls": "count",
    "invariants.invariant_basis.repeat_ratio": "ratio",
    "invariants.generators_self_s": "s",
    "equivariants.generators_self_s": "s",
    "linalg.echelon_add.calls": "count",
    "linalg.echelon_add.useful_ratio": "ratio",
    "linalg.echelon_add_s": "s",
    "invariants.degrees_run": "count",
    "equivariants.degrees_run": "count",
    "linalg.rref_s": "s",
    "linalg.rref.rows": "count",
    "equivariants.equivariant_basis_s": "s",
    "invariants.express_s": "s",
    "invariants.power_product_s": "s",
    "invariants.power_product.calls": "count",
    "linalg.solve_free_zero_s": "s",
    "invariants.relations_s": "s",
    "linalg.kernel_basis_s": "s",
    "poly.substitute_s": "s",
    "reduction.check_related_s": "s",
    "reduction.directional_derivatives_s": "s",
    "reduction.reduce_field_s": "s",
    "reduction.integrate_pair_s": "s",
    "groups.close_group_s": "s",
    "groups.elements": "count",
    "molien.series_s": "s",
    "actions.is_invariant_s": "s",
    "serialize.load_s": "s",
    "serialize.dumps_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.layer: list[str] = []
        self.parent: list[int] = []
        self.job: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.info: list = []
        self.absent: list[str] = []
        self.job_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.info.append(None)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_job(self, job_id: str, fn, *args):
        """Call fn(*args) inside a job span."""
        self.job_id = job_id
        idx = self._open(JOB)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn, record):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if record is not None:
                try:
                    tracer.info[idx] = record(args, kwargs, result)
                except (LookupError, AttributeError, TypeError):
                    pass
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        # Import every module before patching any, so that none binds a
        # wrapper at import time and keeps it after uninstall().
        modules = {}
        for name in {m for _, m, _, _ in WRAPPED} | {"cli"}:
            try:
                modules[name] = importlib.import_module(f"equivar.{name}")
            except ImportError:
                pass
        for layer, module_name, attr, record in WRAPPED:
            module = modules.get(module_name)
            if module is None:
                self.absent.append(layer)
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original, record)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "equivar" or mod_name.startswith("equivar.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------------

    def dump(self) -> dict:
        """All spans as columns, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "layer": self.layer,
            "parent": self.parent,
            "job": self.job,
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "info": [list(x) if isinstance(x, tuple) else x for x in self.info],
        }


def _ancestors(parent: list[int], i: int, lo: int):
    p = parent[i]
    while p >= lo:
        yield p
        p = parent[p]


def pass_metrics(tr: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans lo..hi-1 (one traced pass).

    `_s` metrics are the time inside a layer's outermost spans, so nested
    calls are not counted twice, except where a metric says "self": then it
    is the span minus the part its child spans cover.  `poly.substitute_s`
    leaves out the substitutions that `compose_linear` makes, which belong
    to `poly.compose_linear_s`.  Likewise `linalg.rref_s` and
    `linalg.rref.rows` leave out the reductions inside `solve_free_zero` and
    `kernel_basis`, which have metrics of their own, so they measure the
    elimination that builds fixed spaces.
    """
    layer, parent, info = tr.layer, tr.parent, tr.info
    dur = [tr.end[i] - tr.start[i] for i in range(lo, hi)]
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        if parent[i] >= lo:
            child_time[parent[i] - lo] += dur[i - lo]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    # time of fixed-space and series spans inside each generator loop
    inner = dict.fromkeys(LOOP_PARTS, 0.0)
    load = dump = series = substitute = rref = 0.0
    basis_keys = set()
    degrees_run = {"invariants": 0, "equivariants": 0}
    rref_rows = accepted = elements = 0
    for i in range(lo, hi):
        name = layer[i]
        d = dur[i - lo]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + d - child_time[i - lo]
        ancestors = [layer[p] for p in _ancestors(parent, i, lo)]
        if name not in ancestors:
            total[name] = total.get(name, 0.0) + d
        if name in LOAD and not any(a in LOAD for a in ancestors):
            load += d
        elif name in DUMP and not any(a in DUMP for a in ancestors):
            dump += d
        elif name in SERIES and not any(a in SERIES for a in ancestors):
            series += d
        elif name == "poly.substitute" and "poly.compose_linear" not in ancestors:
            substitute += d
        elif name == "linalg.rref" and not any(a in SOLVES for a in ancestors):
            rref += d
            rref_rows += info[i] or 0
        parent_layer = ancestors[0] if ancestors else None
        if name == "invariants.invariant_basis":
            basis_keys.add((tr.job[i], info[i]))
            if parent_layer == "invariants.invariant_ring_generators":
                degrees_run["invariants"] += 1
        elif name == "equivariants.equivariant_basis" and parent_layer == "equivariants.equivariant_module_generators":
            degrees_run["equivariants"] += 1
        elif name == "linalg.echelon_add":
            accepted += info[i] or 0
        elif name == "groups.close_group":
            elements += info[i] or 0
        loop = next((a for a in ancestors if a in LOOP_PARTS), None)
        if loop is not None and name in LOOP_PARTS[loop]:
            inner[loop] += d

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    basis_calls = calls.get("invariants.invariant_basis", 0)
    add_calls = calls.get("linalg.echelon_add", 0)
    return {
        "actions.reynolds_s": t("actions.reynolds"),
        "actions.reynolds.calls": calls.get("actions.reynolds", 0),
        "poly.compose_linear.calls": calls.get("poly.compose_linear", 0),
        "poly.compose_linear_s": t("poly.compose_linear"),
        "invariants.invariant_basis_s": self_time.get("invariants.invariant_basis", 0.0),
        "invariants.invariant_basis.calls": basis_calls,
        "invariants.invariant_basis.repeat_ratio": ratio(basis_calls, len(basis_keys)),
        "invariants.generators_self_s": t("invariants.invariant_ring_generators")
        - inner["invariants.invariant_ring_generators"],
        "equivariants.generators_self_s": t("equivariants.equivariant_module_generators")
        - inner["equivariants.equivariant_module_generators"],
        "linalg.echelon_add.calls": add_calls,
        "linalg.echelon_add.useful_ratio": ratio(accepted, add_calls),
        "linalg.echelon_add_s": t("linalg.echelon_add"),
        "invariants.degrees_run": degrees_run["invariants"],
        "equivariants.degrees_run": degrees_run["equivariants"],
        "linalg.rref_s": rref,
        "linalg.rref.rows": rref_rows,
        "equivariants.equivariant_basis_s": self_time.get("equivariants.equivariant_basis", 0.0),
        "invariants.express_s": t("invariants.express"),
        "invariants.power_product_s": t("invariants.power_product"),
        "invariants.power_product.calls": calls.get("invariants.power_product", 0),
        "linalg.solve_free_zero_s": t("linalg.solve_free_zero"),
        "invariants.relations_s": t("invariants.relations"),
        "linalg.kernel_basis_s": t("linalg.kernel_basis"),
        "poly.substitute_s": substitute,
        "reduction.check_related_s": t("reduction.check_related"),
        "reduction.directional_derivatives_s": t("reduction.directional_derivatives"),
        "reduction.reduce_field_s": self_time.get("reduction.reduce_field", 0.0),
        "reduction.integrate_pair_s": t("reduction.integrate_pair"),
        "groups.close_group_s": t("groups.close_group"),
        "groups.elements": elements,
        "molien.series_s": series,
        "actions.is_invariant_s": t("actions.is_invariant"),
        "serialize.load_s": load,
        "serialize.dumps_s": dump,
        "cli.self_s": self_time.get(JOB, 0.0),
        "trace.spans": hi - lo,
    }
