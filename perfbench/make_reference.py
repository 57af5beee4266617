"""Regenerate the reference CSVs the benchmark checks outputs against.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Run it only when a change of results is intended and documented; the
references exist so that a faster program that computes something else is
caught. It also confirms that ``--verify`` has only criterion 2 red at every
program seed.
"""

import os
import shutil
import sys

import run


def main():
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(run.REFERENCE, exist_ok=True)
    status = 0
    for workload, (mode, _, _) in run.WORKLOADS.items():
        for seed in run.PROGRAM_SEEDS:
            config = os.path.join(run.WORK, f"{workload}-ref.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(run.config_text(workload, seed))
            rep = run.spawn(mode, config, 0, f"{workload}-ref")
            if "wall_s" not in rep:
                print(f"{workload} seed {seed}: child failed (exit {rep['exit']})")
                status = 1
                continue
            if mode == "verify":
                with open(rep["out"], encoding="utf-8") as fh:
                    _, failed = run.check_verify(fh.read(), rep.get("verify_ok"))
                print(f"{workload} seed {seed}: {failed} unexpected criterion states")
                status |= failed > 0
            else:
                shutil.copyfile(rep["out"], run.reference_path(workload, seed))
                print(f"{workload} seed {seed}: wrote reference "
                      f"({rep['wall_s']:.2f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
