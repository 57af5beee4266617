"""The benchmark's entry point, perfbench/child.py, runs a sweep in a fresh process."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from swiptmimo import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = "trials = 4\npsi = [0.3]\nratio_grid = [0, 1]\n"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_child_sweep_writes_the_library_csv_and_its_timings(tmp_path, trace):
    config, out, result = (tmp_path / name for name in ("sweep.cfg", "out.csv", "result.json"))
    config.write_text(CONFIG, encoding="utf-8")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "sweep", str(config), str(out),
         str(result), repr(t0), trace], cwd=ROOT, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    assert out.read_text(encoding="utf-8") == cli.run_sweep(cli.parse_config(text=CONFIG))
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0 and report["setup_s"] > 0
    assert ("layers" in report) == (trace == "1")
