"""Each demo's stdout is pinned byte for byte to tests/reference/demos/<name>.txt, and
the README's library example runs."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference" / "demos"
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


def run_python(*args):
    """The interpreter run on `args` with the package's src on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_reference(demo):
    run = run_python(str(ROOT / "demos" / f"{demo}.py"))
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    assert run.stdout == (REFERENCE / f"{demo}.txt").read_bytes()


def test_readme_library_example_runs():
    # the first python block of the README's "## Library" section
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n")[1]
    block = section.split("\n## ")[0].split("```python\n")[1].split("\n```")[0]
    run = run_python("-c", block)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
