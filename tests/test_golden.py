"""CLI output bytes against the committed goldens in tests/golden/.

The goldens were written by tests/golden/regen.py; a failure here means the
CLI now prints something different for the same input.  Every case runs
twice in one interpreter, in order and then in reverse order, so that
nothing the library keeps for the whole process (the monomial tables, the
weighted monomials) can change a later output.
"""

import importlib.util
import os
import shutil

import pytest

from equivar.cli import main

_REGEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "regen.py")
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = regen.cases()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every case once, in order, into one directory."""
    out_dir = str(tmp_path_factory.mktemp("golden"))
    codes = {}
    for file_name, template in CASES:
        codes[file_name] = main(regen.argv_for(template, out_dir, file_name))
    return out_dir, codes


@pytest.fixture(scope="module")
def reversed_outputs(outputs, tmp_path_factory):
    """Every case again, after the first run, in reverse order: a case that
    reads an earlier case's output reads the first run's copy of it."""
    first_dir, _ = outputs
    out_dir = str(tmp_path_factory.mktemp("golden_reversed"))
    shutil.copytree(first_dir, out_dir, dirs_exist_ok=True)
    codes = {}
    for file_name, template in reversed(CASES):
        codes[file_name] = main(regen.argv_for(template, out_dir, file_name))
    return out_dir, codes


def _assert_matches_golden(run, file_name):
    out_dir, codes = run
    assert codes[file_name] == 0
    with open(os.path.join(out_dir, file_name), "rb") as fh:
        got = fh.read()
    with open(os.path.join(regen.GOLDEN_DIR, file_name), "rb") as fh:
        want = fh.read()
    assert got == want


@pytest.mark.parametrize("file_name", [name for name, _ in CASES])
def test_cli_output_matches_golden(outputs, file_name):
    _assert_matches_golden(outputs, file_name)


@pytest.mark.parametrize("file_name", [name for name, _ in CASES])
def test_cli_output_matches_golden_rerun_in_reverse(reversed_outputs, file_name):
    _assert_matches_golden(reversed_outputs, file_name)


def test_every_golden_file_has_a_case():
    on_disk = {f for f in os.listdir(regen.GOLDEN_DIR) if f.endswith(".json")}
    assert on_disk == {name for name, _ in CASES}
