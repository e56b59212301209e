"""CLI output bytes against the committed goldens in tests/golden/.

The goldens were written by tests/golden/regen.py; a failure here means the
CLI now prints something different for the same input.
"""

import importlib.util
import os

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


@pytest.mark.parametrize("file_name", [name for name, _ in CASES])
def test_cli_output_matches_golden(outputs, file_name):
    out_dir, codes = outputs
    assert codes[file_name] == 0
    with open(os.path.join(out_dir, file_name), "rb") as fh:
        got = fh.read()
    with open(os.path.join(regen.GOLDEN_DIR, file_name), "rb") as fh:
        want = fh.read()
    assert got == want


def test_every_golden_file_has_a_case():
    on_disk = {f for f in os.listdir(regen.GOLDEN_DIR) if f.endswith(".json")}
    assert on_disk == {name for name, _ in CASES}
