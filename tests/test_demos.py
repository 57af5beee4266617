"""Each demo's stdout is pinned byte for byte to tests/reference/demos/<name>.txt."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference" / "demos"
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_reference(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    assert run.stdout == (REFERENCE / f"{demo}.txt").read_bytes()
