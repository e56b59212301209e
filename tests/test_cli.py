"""Command-line front end: pipelines, exit codes, determinism."""

import importlib
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

from equivar.cli import _MAX_DEGREES, build_parser, main
from equivar.errors import ParseError
from equivar import serialize as sz

# the package's `molien` attribute is the function of that name
molien_module = importlib.import_module("equivar.molien")


Z2_DOC = {"n": 1, "generators": [[["-1"]]]}
Z2_DIAG_DOC = {"n": 2, "generators": [[["-1", "0"], ["0", "-1"]]]}
SWAP_DOC = {"n": 2, "generators": [[["0", "1"], ["1", "0"]]]}
C4_DOC = {"n": 2, "generators": [[["0", "-1"], ["1", "0"]]]}

CUBIC_FIELD_DOC = {
    "n": 1,
    "comps": [{"nvars": 1, "terms": [{"c": "1", "e": [1]}, {"c": "-1", "e": [3]}]}],
}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(sz.dumps(doc), encoding="utf-8")
        return str(path)

    return tmp_path, write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_z2(files, capsys):
    tmp, write = files
    group = write("z2.json", Z2_DOC)
    out = str(tmp / "inv.json")
    code, _, err = run(["invariants", "--group", group, "--out", out], capsys)
    assert code == 0 and err == ""
    doc = json.loads(open(out).read())
    assert doc["degrees"] == [2]
    assert doc["generators"] == [{"nvars": 1, "terms": [{"c": "1", "e": [2]}]}]
    assert {"degree": 2, "dim": 1} in doc["dimensions"]


def test_invariants_to_stdout(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    code, out, _ = run(["invariants", "--group", group], capsys)
    assert code == 0
    assert json.loads(out)["degrees"] == [2]


def test_full_pipeline_and_determinism(files, capsys):
    tmp, write = files
    outputs = {}
    for run_idx in (1, 2):
        blobs = []
        for name, doc in [
            ("z2", Z2_DOC),
            ("z2d", Z2_DIAG_DOC),
            ("swap", SWAP_DOC),
            ("c4", C4_DOC),
        ]:
            group = write(f"{name}.json", doc)
            inv = str(tmp / f"{name}.inv{run_idx}.json")
            eq = str(tmp / f"{name}.eq{run_idx}.json")
            mol = str(tmp / f"{name}.mol{run_idx}.json")
            rel = str(tmp / f"{name}.rel{run_idx}.json")
            assert run(["invariants", "--group", group, "--out", inv], capsys)[0] == 0
            assert (
                run(
                    ["equivariants", "--group", group, "--invariants", inv, "--out", eq],
                    capsys,
                )[0]
                == 0
            )
            assert run(["molien", "--group", group, "--degrees", "8", "--out", mol], capsys)[0] == 0
            assert run(["relations", "--group", group, "--invariants", inv, "--out", rel], capsys)[0] == 0
            blobs.append(open(inv, "rb").read() + open(eq, "rb").read() + open(mol, "rb").read() + open(rel, "rb").read())
        outputs[run_idx] = blobs
    assert outputs[1] == outputs[2]


def test_each_series_built_once_per_command(files, capsys):
    _, write = files
    group = write("c4.json", C4_DOC)
    with mock.patch.object(
        molien_module, "_averaged_series", wraps=molien_module._averaged_series
    ) as built, mock.patch.object(
        molien_module, "_power_traces", wraps=molien_module._power_traces
    ) as traces:
        assert run(["invariants", "--group", group], capsys)[0] == 0
        assert built.call_count == 1
        assert traces.call_count == 4  # one trace tuple per element of C4
        built.reset_mock()
        traces.reset_mock()
        # the invariant series for the ring computed on the way, then the
        # equivariant one, each shared by its loop and the output document;
        # both read the same determinants, from one pass over the elements
        assert run(["equivariants", "--group", group], capsys)[0] == 0
        assert built.call_count == 2
        assert traces.call_count == 4


def test_non_dimension_series_coefficient_exit_1(files, capsys):
    _, write = files
    group = write("c4.json", C4_DOC)
    bad = molien_module.MolienSeries([1], [2, -1])  # coefficients 1/2, 1/4, ...
    with mock.patch.object(molien_module, "_averaged_series", return_value=bad):
        code, out, err = run(["molien", "--group", group, "--degrees", "2"], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "DimensionMismatchWithMolien"


def test_express_not_invariant_exit_1(files, capsys):
    _, write = files
    group = write("z2d.json", Z2_DIAG_DOC)
    odd = write("odd.json", {"nvars": 2, "terms": [{"c": "1", "e": [3, 0]}]})
    code, out, err = run(["express", "--group", group, "--poly", odd], capsys)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "NotInvariant"
    assert "witness" in doc and "generator_index" in doc["witness"]


def test_express_valid(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    quartic = write("q.json", {"nvars": 1, "terms": [{"c": "1", "e": [4]}]})
    code, out, _ = run(["express", "--group", group, "--poly", quartic], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["expression"] == {"nvars": 1, "terms": [{"c": "1", "e": [2]}]}


def test_molien_dimension_table(files, capsys):
    _, write = files
    group = write("c4.json", C4_DOC)
    code, out, _ = run(["molien", "--group", group, "--degrees", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    dims = {d["degree"]: d["invariant_dim"] for d in doc["dimensions"]}
    assert dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 3, 5: 0, 6: 3, 7: 0, 8: 5}


def test_relations_z2_diag(files, capsys):
    _, write = files
    group = write("z2d.json", Z2_DIAG_DOC)
    code, out, _ = run(["relations", "--group", group], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["weighted_degrees"] == [4]
    assert doc["relations"] == [
        {"nvars": 3, "terms": [{"c": "1", "e": [1, 0, 1]}, {"c": "-1", "e": [0, 2, 0]}]}
    ]


def test_reduce_and_check_related(files, capsys):
    tmp, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", CUBIC_FIELD_DOC)
    reduced = str(tmp / "y.json")
    code, _, _ = run(["reduce", "--group", group, "--field", field, "--out", reduced], capsys)
    assert code == 0
    doc = json.loads(open(reduced).read())
    assert doc == {
        "comps": [
            {"nvars": 1, "terms": [{"c": "-2", "e": [2]}, {"c": "2", "e": [1]}]}
        ],
        "k": 1,
    }
    code, out, _ = run(
        ["check-related", "--group", group, "--field", field, "--reduced", reduced],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"related": True}


def test_check_related_failure(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", {"n": 1, "comps": [{"nvars": 1, "terms": [{"c": "1", "e": [1]}]}]})
    bad = write("bad.json", {"k": 1, "comps": [{"nvars": 1, "terms": [{"c": "1", "e": [1]}]}]})
    code, _, err = run(
        ["check-related", "--group", group, "--field", field, "--reduced", bad], capsys
    )
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "NotRelated"
    assert doc["witness"]["component"] == 0


def test_check_invariance(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    even = write("even.json", {"nvars": 1, "terms": [{"c": "1", "e": [2]}]})
    odd = write("odd.json", {"nvars": 1, "terms": [{"c": "1", "e": [1]}]})
    code, out, _ = run(["check-invariance", "--group", group, "--poly", even], capsys)
    assert code == 0
    assert json.loads(out) == {"invariant": True, "action": "phi_dagger"}
    code, _, err = run(["check-invariance", "--group", group, "--poly", odd], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "NotInvariant"
    # X = x^2 is not equivariant: the witness is the field X - g.X = 2 x^2
    square = write("square.json", {"n": 1, "comps": [{"nvars": 1, "terms": [{"c": "1", "e": [2]}]}]})
    code, out, err = run(["check-invariance", "--group", group, "--field", square], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["witness"] == {
        "generator_index": 1,
        "difference": {"n": 1, "comps": [{"nvars": 1, "terms": [{"c": "2", "e": [2]}]}]},
    }
    for objects in ([], ["--poly", even, "--field", square]):
        code, out, err = run(["check-invariance", "--group", group, *objects], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ParseError",
                                   "message": "exactly one of --poly or --field is required"}


THREE_VARS = {"nvars": 3, "terms": [{"c": "1", "e": [2, 0, 0]}, {"c": "1", "e": [0, 0, 2]}]}
THREE_COMPONENTS = {"n": 3, "comps": [
    {"nvars": 3, "terms": [{"c": "1", "e": [int(i == j) for j in range(3)]}]} for i in range(3)
]}
# (-2 P1, -4 P2, -4 P3): one component per invariant of C4 (degrees 2, 4, 4)
C4_SIZED_REDUCED = {"k": 3, "comps": [
    {"nvars": 3, "terms": [{"c": str(c), "e": [int(i == j) for j in range(3)]}]}
    for i, c in enumerate((-2, -4, -4))
]}


@pytest.mark.parametrize("argv, obj, message", [
    (["express", "--poly"], THREE_VARS, "polynomial has 3 variables, group acts on 2"),
    (["check-invariance", "--field"], THREE_COMPONENTS, "field dimension 3, group acts on 2"),
    (["reduce", "--field"], THREE_COMPONENTS, "field dimension 3, group acts on 2"),
    (["check-invariance", "--poly"], THREE_VARS,
     "polynomial has 3 variables, group acts on 2 (4 for a phase polynomial)"),
    (["check-related", "--reduced", "R", "--field"], THREE_COMPONENTS, "field dimension 3, group acts on 2"),
    (["integrate-check", "--reduced", "R", "--x0=1/2,1/3,1/5", "--field"], THREE_COMPONENTS,
     "field dimension 3, group acts on 2"),
], ids=["express", "check-invariance-field", "reduce", "check-invariance-infer", "check-related",
        "integrate-check"])
def test_object_size_mismatch_exit_1(files, capsys, argv, obj, message):
    # the size is checked against the action before any image is computed
    _, write = files
    group = write("c4.json", C4_DOC)
    paths = {"R": write("reduced.json", C4_SIZED_REDUCED)}
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run([*argv, write("obj.json", obj), "--group", group], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "DimensionMismatch", "message": message}


def test_integrate_check(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", CUBIC_FIELD_DOC)
    code, out, err = run(
        [
            "integrate-check",
            "--group",
            group,
            "--field",
            field,
            "--x0",
            "1/2",
            "--t-end",
            "1",
            "--step",
            "1e-3",
            "--tol",
            "1e-6",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pass"]
    assert "PASS" in err
    assert "max_defect=" in err


def test_integrate_check_fails_tight_tol(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", CUBIC_FIELD_DOC)
    code, out, err = run(
        ["integrate-check", "--group", group, "--field", field, "--x0", "1/2", "--step", "0.2", "--tol", "1e-18"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "FAIL" in err


def test_integrate_check_non_finite_exit_1(files, capsys):
    # x' = x^3 from 1 blows up at t = 1/2; RK4 with the default step 1e-3
    # first leaves the doubles two steps later
    _, write = files
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
    cube = write("cube.json", {"n": 1, "comps": [{"nvars": 1, "terms": [{"c": "1", "e": [3]}]}]})
    code, out, err = run(
        ["integrate-check", "--group", os.path.join(data, "z2_line.json"), "--field", cube, "--x0", "1"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "NonFiniteState", "time": 0.502,
                               "message": "full trajectory became non-finite at t=0.502"}


def test_integrate_check_out_is_deterministic(tmp_path, capsys):
    # the radial field on z2_diag from demos/data, run twice: identical bytes,
    # and the defect 1.83e-15 that RK4 gives on x86-64 with OpenBLAS; the
    # slack leaves room for a BLAS that sums its dot products in another order
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
    texts = []
    for name in ("a.json", "b.json"):
        code, stdout, _ = run(
            ["integrate-check", "--group", os.path.join(data, "z2_diag.json"),
             "--field", os.path.join(data, "radial_plane_field.json"),
             "--x0", "1/2,1/3", "--out", str(tmp_path / name)],
            capsys,
        )
        assert code == 0 and stdout == ""
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]
    assert abs(json.loads(texts[0])["max_defect"] - 1.8318679906315083e-15) <= 1e-12


def test_integrate_check_on_straight_line_maps_leaves_numpy_unloaded(tmp_path):
    # the radial field on C4 from demos/data: X, Y and sigma are all small
    # enough for straight-line code, so a fresh interpreter running the
    # command never imports numpy; reading the report's arrays then does
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """if True:
        import sys
        from equivar.cli import main
        from equivar.reduction import TrajectoryReport
        code = main(["integrate-check", "--group", "demos/data/c4.json",
                     "--field", "demos/data/radial_plane_field.json",
                     "--x0", "1/2,1/3", "--out", sys.argv[1]])
        print(code, "numpy" in sys.modules)
        report = TrajectoryReport([0.5, 0.25, 0.5, 0.25], 2, 1, 0.1, 0.0)
        print(repr(report), "numpy" in sys.modules)
        print(report.t_grid.tolist(), report.p_path.tolist(), "numpy" in sys.modules)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "c4.integrate-check.json"
    proc = subprocess.run([sys.executable, "-c", script, str(out)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 False",
        "TrajectoryReport(2 samples, max_defect=0.000e+00) False",
        "[0.0, 0.1] [[0.25], [0.25]] True",
    ]
    doc = json.loads(out.read_text())
    assert (doc["pass"], doc["samples"]) == (True, 1001)


@pytest.mark.parametrize(
    "t_end, step",
    [("0.001", "0.5"), ("1", "0.3")],
    ids=["step-longer-than-t-end", "t-end-not-whole-steps"],
)
def test_integrate_check_vacuous_or_short_run_exit_2(files, capsys, t_end, step):
    _, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", CUBIC_FIELD_DOC)
    code, out, err = run(
        ["integrate-check", "--group", group, "--field", field, "--x0", "1/2",
         "--t-end", t_end, "--step", step],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_integrate_check_bad_tol_exit_2(files, capsys, tol):
    _, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", CUBIC_FIELD_DOC)
    with mock.patch("equivar.cli.integrate_pair", side_effect=AssertionError("integrated")):
        code, out, err = run(
            ["integrate-check", "--group", group, "--field", field, "--x0", "1/2", "--tol", tol],
            capsys,
        )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "option, value",
    [("--t-end", "inf"), ("--t-end", "nan"), ("--t-end", "0"),
     ("--step", "inf"), ("--step", "nan"), ("--step", "-1")],
)
def test_integrate_check_bad_t_end_or_step_exit_2(files, capsys, option, value):
    _, write = files
    group = write("z2.json", Z2_DOC)
    field = write("x.json", CUBIC_FIELD_DOC)
    with mock.patch("equivar.cli.integrate_pair", side_effect=AssertionError("integrated")), \
            mock.patch("equivar.cli._load_group", side_effect=AssertionError("group loaded")):
        code, out, err = run(
            ["integrate-check", "--group", group, "--field", field, "--x0", "1/2", option, value],
            capsys,
        )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"
    assert option in json.loads(err)["message"]


def test_zero_denominator_exit_2(files, capsys):
    _, write = files
    group = write("bad.json", {"n": 1, "generators": [[["1/0"]]]})
    code, out, err = run(["molien", "--group", group], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"
    code, out, err = run(
        ["integrate-check", "--group", write("z2.json", Z2_DOC),
         "--field", write("x.json", CUBIC_FIELD_DOC), "--x0", "1/0,1"],
        capsys,
    )
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"


def test_integrate_check_x0_beyond_double_range_exit_2(capsys):
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
    code, out, err = run(
        ["integrate-check", "--group", os.path.join(data, "z2_line.json"),
         "--field", os.path.join(data, "cubic_line_field.json"), "--x0", str(10**400)],
        capsys,
    )
    assert code == 2 and out == "" and "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "beyond the double range" in doc["message"]


def test_integrate_check_x0_with_leading_minus_in_either_spelling(capsys):
    # "--x0 -3/4,1/5" is the start, not an unknown option: the same bytes and
    # exit code as "--x0=-3/4,1/5"; a malformed start is still exit 2 with
    # one JSON object
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
    given = ["integrate-check", "--group", os.path.join(data, "c4.json"),
             "--field", os.path.join(data, "radial_plane_field.json")]
    spaced = run(given + ["--x0", "-3/4,1/5"], capsys)
    assert spaced == run(given + ["--x0=-3/4,1/5"], capsys)
    assert spaced[0] == 0 and json.loads(spaced[1])["pass"]
    code, out, err = run(given + ["--x0", "-3/4,abc"], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("t_end, step", [("1000000", "1e-6"), ("1e300", "1e-300")])
def test_integrate_check_too_many_steps_exit_2(capsys, t_end, step):
    # 10^12 steps (and a step count past the float range) are refused before
    # the step grid is allocated or the kernel built: exit 2, no traceback
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "data")
    with mock.patch("equivar.reduction._rk4_kernel", side_effect=AssertionError("kernel built")):
        code, out, err = run(
            ["integrate-check", "--group", os.path.join(data, "z2_line.json"),
             "--field", os.path.join(data, "cubic_line_field.json"), "--x0", "1/2",
             "--t-end", t_end, "--step", step],
            capsys,
        )
    assert code == 2 and out == "" and "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "more than 1000000 steps" in doc["message"]


def test_stop_rule_in_generator_documents(files, capsys):
    tmp, write = files
    # D4 on the plane: the hsop x1^2 + x2^2, x1^2 x2^2 certifies 4 / 3 of |G| = 8
    group = write("d4.json", {"n": 2, "generators": [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]]})
    inv = str(tmp / "inv.json")
    assert run(["invariants", "--group", group, "--out", inv], capsys)[0] == 0
    doc = json.loads(open(inv).read())
    assert (doc["bound"], doc["stop"], doc["hsop"]) == (4, "hsop", [0, 1])
    assert [row["degree"] for row in doc["dimensions"]] == [0, 1, 2, 3, 4]
    # the certificate is found again from the file's generators
    code, out, _ = run(["equivariants", "--group", group, "--invariants", inv], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["bound"], doc["stop"], doc["hsop"]) == (3, "hsop", [0, 1])
    for argv in (["invariants", "--group", group, "--bound", "8"],
                 ["equivariants", "--group", group, "--bound", "7"]):
        code, out, _ = run(argv, capsys)
        doc = json.loads(out)
        assert code == 0 and doc["stop"] == "explicit" and "hsop" not in doc
        assert doc["bound"] == int(argv[-1])
    code, out, _ = run(["invariants", "--group", write("c4.json", C4_DOC)], capsys)
    doc = json.loads(out)
    assert (doc["bound"], doc["stop"]) == (4, "noether") and "hsop" not in doc


def test_parse_error_exit_2(files, capsys):
    tmp, write = files
    bad = tmp / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(["invariants", "--group", str(bad)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("doc", [
    {"n": 0, "generators": [[]]},
    {"n": True, "generators": [[["-1"]]]},
    {"n": 1, "generators": [[["-1"]]], "cap": True},
], ids=["n-zero", "n-bool", "cap-bool"])
@pytest.mark.parametrize("command", ["invariants", "equivariants", "relations"])
def test_bad_group_size_or_cap_exit_2(files, capsys, doc, command):
    _, write = files
    code, out, err = run([command, "--group", write("bad.json", doc)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


BOOL_FIELD_DOCS = {
    "exponent": {"n": 1, "comps": [{"nvars": 1, "terms": [{"c": "1", "e": [True]}, {"c": "-1", "e": [3]}]}]},
    "nvars": {"n": 1, "comps": [{"nvars": True, "terms": [{"c": "1", "e": [1]}]}]},
    "n": {**CUBIC_FIELD_DOC, "n": True},
}


@pytest.mark.parametrize("where", sorted(BOOL_FIELD_DOCS))
@pytest.mark.parametrize("command", ["reduce", "integrate-check"])
def test_boolean_in_field_exit_2(files, capsys, where, command):
    # a JSON true is not the integer 1, wherever an integer is asked for
    _, write = files
    argv = [command, "--group", write("z2.json", Z2_DOC), "--field", write("f.json", BOOL_FIELD_DOCS[where])]
    code, out, err = run(argv + (["--x0", "1/2"] if command == "integrate-check" else []), capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"


def test_boolean_in_reduced_exit_2(files, capsys):
    _, write = files
    reduced = {"k": True, "comps": [{"nvars": 1, "terms": [{"c": "2", "e": [1]}, {"c": "-2", "e": [2]}]}]}
    code, out, err = run(
        ["integrate-check", "--group", write("z2.json", Z2_DOC), "--field", write("x.json", CUBIC_FIELD_DOC),
         "--reduced", write("r.json", reduced), "--x0", "1/2"],
        capsys,
    )
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"


def test_component_in_wrong_variable_count_exit_2(files, capsys):
    # the documents state one size; a component in another variable count
    # is a malformed file, in a field and in a reduced system alike
    _, write = files
    group, field = write("z2.json", Z2_DOC), write("x.json", CUBIC_FIELD_DOC)
    wide = {"nvars": 2, "terms": [{"c": "1", "e": [1, 0]}]}
    bad_field = write("f.json", {"n": 1, "comps": [wide]})
    bad_reduced = write("r.json", {"k": 1, "comps": [wide]})
    for argv, what in ((["reduce", "--field", bad_field], "vector field"),
                       (["check-related", "--field", field, "--reduced", bad_reduced], "reduced system")):
        code, out, err = run([*argv, "--group", group], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ParseError",
                                   "message": f"invalid {what}: component has 2 variables, expected 1"}


EMPTY_INVARIANTS = {"generators": []}
CONSTANT_INVARIANTS = {"generators": [
    {"nvars": 2, "terms": [{"c": "1", "e": [0, 0]}]},
    {"nvars": 2, "terms": [{"c": "1", "e": [2, 0]}, {"c": "1", "e": [0, 2]}]},
]}
# (x1^2, 1), not equivariant under C4
SQUARE_ONE_FIELD = {"n": 2, "comps": [{"nvars": 2, "terms": [{"c": "1", "e": [2, 0]}]},
                                      {"nvars": 2, "terms": [{"c": "1", "e": [0, 0]}]}]}
ROTATION_FIELD = {"n": 2, "comps": [{"nvars": 2, "terms": [{"c": "-1", "e": [0, 1]}]},
                                    {"nvars": 2, "terms": [{"c": "1", "e": [1, 0]}]}]}


@pytest.mark.parametrize("invariants, argv, error", [
    (EMPTY_INVARIANTS, ["reduce", "--field", "rotation"], "ValueError"),
    (EMPTY_INVARIANTS, ["check-related", "--field", "square", "--reduced", "empty"], "ParseError"),
    (EMPTY_INVARIANTS, ["integrate-check", "--field", "rotation", "--x0", "1,1"], "ValueError"),
    (CONSTANT_INVARIANTS, ["equivariants"], "ValueError"),
    (CONSTANT_INVARIANTS, ["express", "--poly", "radius"], "ValueError"),
    (CONSTANT_INVARIANTS, ["relations"], "ValueError"),
    (CONSTANT_INVARIANTS, ["reduce", "--field", "rotation"], "ValueError"),
], ids=["empty-reduce", "empty-check-related", "empty-integrate-check", "constant-equivariants",
        "constant-express", "constant-relations", "constant-reduce"])
def test_degenerate_invariants_exit_2(files, capsys, invariants, argv, error):
    # no generator leaves no orbit-space coordinate, so nothing can be
    # reduced; a constant generator has degree 0 and is rejected on reading
    _, write = files
    paths = {
        "rotation": write("rotation.json", ROTATION_FIELD),
        "square": write("square.json", SQUARE_ONE_FIELD),
        "empty": write("empty.json", {"k": 0, "comps": []}),
        "radius": write("radius.json", CONSTANT_INVARIANTS["generators"][1]),
    }
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run([*argv, "--group", write("c4.json", C4_DOC),
                          "--invariants", write("inv.json", invariants)], capsys)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == error
    assert ("component" if invariants is EMPTY_INVARIANTS else "positive degree") in doc["message"]


def test_missing_file_exit_2(files, capsys):
    tmp, _ = files
    code, _, err = run(["invariants", "--group", str(tmp / "absent.json")], capsys)
    assert code == 2


def test_closure_cap_env_override(files, capsys, monkeypatch):
    _, write = files
    group = write("c4.json", C4_DOC)
    monkeypatch.setenv("EQUIVAR_CAP", "2")
    code, _, err = run(["invariants", "--group", group], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "ClosureExceedsCap"
    monkeypatch.setenv("EQUIVAR_CAP", "not-a-number")
    code, _, err = run(["invariants", "--group", group], capsys)
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_closure_cap_env_nonpositive_exit_2(files, capsys, monkeypatch, cap):
    _, write = files
    group = write("c4.json", C4_DOC)
    monkeypatch.setenv("EQUIVAR_CAP", cap)
    code, out, err = run(["invariants", "--group", group], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_molien_negative_degrees_exit_2(files, capsys):
    _, write = files
    group = write("c4.json", C4_DOC)
    code, out, err = run(["molien", "--group", group, "--degrees", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("degrees", [_MAX_DEGREES + 1, 10**11])
def test_molien_too_many_degrees_refused_before_the_group_is_set_up(files, capsys, degrees):
    # the table grows with --degrees: never run these for real
    _, write = files
    group = write("c4.json", C4_DOC)
    with mock.patch.object(molien_module.MolienSeries, "coefficient", side_effect=AssertionError), \
            mock.patch.object(sz, "group_from_doc", side_effect=AssertionError):
        code, out, err = run(["molien", "--group", group, "--degrees", str(degrees)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"--degrees must be in 0..{_MAX_DEGREES}, got {degrees}",
    }


def test_molien_degrees_at_the_limit_go_on_to_the_group(files, capsys):
    _, write = files
    group = write("c4.json", C4_DOC)
    with mock.patch.object(sz, "group_from_doc", side_effect=ParseError("group reached")):
        code, _, err = run(["molien", "--group", group, "--degrees", str(_MAX_DEGREES)], capsys)
    assert code == 2
    assert json.loads(err)["message"] == "group reached"


def test_bad_bound_exit_2(files, capsys):
    _, write = files
    group = write("z2.json", Z2_DOC)
    code, _, err = run(["invariants", "--group", group, "--bound", "0"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


# -- one parser per process -----------------------------------------------------

HELP_DIR = os.path.join(os.path.dirname(__file__), "golden", "help")
COMMANDS = ["invariants", "equivariants", "molien", "express", "relations", "reduce",
            "check-invariance", "check-related", "integrate-check"]


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_forgets_options(files, capsys):
    _, write = files
    argv = ["integrate-check", "--group", write("z2.json", Z2_DOC),
            "--field", write("x.json", CUBIC_FIELD_DOC), "--x0", "1/2"]
    code, out, _ = run(argv + ["--tol", "1e-3"], capsys)
    assert code == 0 and json.loads(out)["tol"] == 1e-3
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["tol"] == 1e-6
    group = write("c4.json", C4_DOC)
    code, out, _ = run(["invariants", "--group", group, "--bound", "3"], capsys)
    assert code == 0 and (json.loads(out)["bound"], json.loads(out)["stop"]) == (3, "explicit")
    code, out, _ = run(["invariants", "--group", group], capsys)
    assert code == 0 and (json.loads(out)["bound"], json.loads(out)["stop"]) == (4, "noether")


def test_usage_error_then_valid_command(files, capsys):
    _, write = files
    code, out, err = run(["invariants"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ParseError",
                               "message": "the following arguments are required: --group"}
    code, out, _ = run(["invariants", "--group", write("z2.json", Z2_DOC)], capsys)
    assert code == 0 and json.loads(out)["degrees"] == [2]


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--bogus"], "the following arguments are required: --group"),
    (["invariants", "--group", "G", "--bogus"], "unrecognized arguments: --bogus"),
    (["invariants"], "the following arguments are required: --group"),
    (["invariants", "--group", "G", "--bound", "x"], "argument --bound: invalid int value: 'x'"),
    (["integrate-check", "--group", "G", "--field", "F", "--x0", "-abc"],
     "argument --x0: expected one argument"),
])
def test_usage_errors_print_one_json_object(files, capsys, argv, message):
    # argparse's own errors take the ParseError exit: code 2 and one JSON
    # object on stderr, with no usage block
    _, write = files
    paths = {"G": write("c4.json", C4_DOC), "F": write("field.json", CUBIC_FIELD_DOC)}
    code, out, err = run([paths.get(a, a) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ParseError", "message": message}


@pytest.mark.parametrize("command", [None] + COMMANDS)
def test_help_text_is_pinned(command, capsys, monkeypatch):
    # the expected texts were printed by Python 3.11 at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    with open(os.path.join(HELP_DIR, f"{command or 'equivar'}.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_every_command_has_pinned_help():
    assert sorted(os.listdir(HELP_DIR)) == sorted(f"{c}.txt" for c in ["equivar"] + COMMANDS)
