"""The narrative scripts in demos/ run to completion against the library.

Each demo runs in a fresh interpreter with PYTHONPATH=src, so a demo that
imports a deleted or renamed API fails here rather than only when a reader
runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_found():
    assert [p.name for p in DEMOS] == [
        "01_invariant_rings.py",
        "02_equivariant_fields.py",
        "03_orbit_space_reduction.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.name == "01_invariant_rings.py":
        assert "substitution check: True" in proc.stdout
