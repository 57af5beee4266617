"""Benchmark driver for swiptmimo.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh child process (child.py) that imports the
package from ``src/`` and calls ``cli.parse_config`` and ``cli.run_sweep`` or
``cli.verify_anchors``. The load is batch work from one client: one child at a
time, the next started only after the previous one has exited. A run repeats
the workload until ``--seconds`` is spent, cycling through the program seeds.

The host's CPU speed drifts by tens of percent over seconds to minutes, and
each virtual CPU drifts on its own. So the driver and its children share one
CPU, and while a child runs the driver wakes every ``PROBE_PERIOD_S`` to time
fixed work (the probe) on that CPU. Each child's times lose the share of its
life that the hypervisor stole from that CPU (/proc/stat) and are scaled by
``PROBE_REF_S`` over the median probe time seen while it ran: ``wall_s`` and
``setup_s`` are in reference seconds, the time the child would have taken on
a CPU running the probe in ``PROBE_REF_S``. ``wall_s`` is the mean over the
run's repetitions, ``setup_s`` the median over all its children, and
``peak_rss_mb`` the highest of the run. The run record keeps the raw times.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced children, run in turn
with untraced ones so the tracing overhead is measured too. The line before it
is a run record (versions, seeds, per-repetition samples, host noise).

Outputs are checked against the reference CSVs in ``perfbench/reference``
(regenerate them with ``make_reference.py`` only when results change on
purpose). Exit code 2 means the program or the references are missing.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(ROOT, ".perfbench_out")

# 3x3 and 5x5 LAPACK calls gain nothing from BLAS threads on shared cores,
# and thread start-up adds noise, so every child runs single-threaded.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

# Program seeds; the benchmark seed sets the order in which a run's
# repetitions cycle through them. Reference CSVs are committed for each, and
# at each the acceptance battery has only criterion 2 red, as at the default
# seed. --verify's peak RSS depends on the seed (criterion 9 sizes a grid from
# a random budget), which is why a run covers all of them.
PROGRAM_SEEDS = (42, 7)

# The probe: fixed work timed on the benchmark's CPU every PROBE_PERIOD_S while
# a child runs (it costs the child about 3% of the CPU). It mixes the two
# kinds of work the program does, Python bytecode and small-matrix LAPACK
# calls, because host contention slows the two by different amounts: scaled by
# the loop alone, wall_s spread up to twice as widely over ten seeds (see
# README.md). PROBE_REF_S is its median time on the baseline host,
# so a child's times are reported as if the CPU had run at that speed
# throughout. The per-child median probe times in the run record double as the
# host-speed diagnostic.
PROBE_LOOPS = 2000
PROBE_EIGH = 5
PROBE_MATRICES = np.arange(256.0).reshape(16, 4, 4) % 7.0
PROBE_MATRICES += PROBE_MATRICES.transpose(0, 2, 1)
PROBE_PERIOD_S = 0.025
PROBE_REF_S = 7.5e-4

# Children that only import the package and parse the config, run before each
# workload repetition so setup_s is a median over cold starts spread across
# the whole run.
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170.0
ROW_TOL = 1e-8
VERIFY_CRITERIA = 10
EXPECTED_RED = {2}
# per-layer units that must repeat exactly between traced children, and the
# time units, which are scaled to the reference speed like the end-to-end times
COUNT_UNITS = ("count", "bytes_computed")
TIME_UNITS = ("s", "us")


# name -> (child mode, config lines without the seed, trials)
WORKLOADS = {
    # What users run: the CLI default, about half saddle and half Monte Carlo.
    "default-sweep": ("sweep", [], 2000),
    # 72 saddle points and no Monte Carlo: isolates the saddle solver and the
    # scalar rates layer. The seed does not change its output.
    "worst-case-grid": ("sweep", [
        "scenarios = [worst-case]",
        "psi = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]",
        "ratio_grid = [0, 2, 4, 6, 8, 10, 12, 14]"], 2000),
    # 30 Monte-Carlo points at T = 20000 and no saddle: ensemble draw, batched
    # eigh and waterfill_batch; scales T against default-sweep's T = 2000.
    "mc-scale": ("sweep", [
        "scenarios = [average, structure2, swipt, energy-struct1, energy-struct2]",
        "psi = [0.3, 0.6]",
        "ratio_grid = [1, 7, 14]",
        "trials = 20000"], 20000),
    # The acceptance battery: repeated metric_samples reads (the LRU caches
    # pay off here) and the only caller of acceptance, harvesting, transfer.
    "verify": ("verify", ["trials = 2000"], 2000),
}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def config_text(workload, program_seed):
    _, lines, _ = WORKLOADS[workload]
    return "\n".join(lines + [f"seed = {program_seed}"]) + "\n"


def reference_path(workload, program_seed):
    return os.path.join(REFERENCE, f"{workload}-seed{program_seed}.csv")


# -- children ------------------------------------------------------------------

def probe_s():
    """Time of one probe on the current CPU."""
    t = now()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    for _ in range(PROBE_EIGH):
        np.linalg.eigh(PROBE_MATRICES)
    return now() - t


def spawn(mode, config, trace, tag):
    """Run one child to completion, probing host speed on its CPU meanwhile.

    Returns its exit code, rusage, the median probe time, the time stolen from
    its CPU and the timings the child wrote, raw and scaled to the reference
    speed (``*_ref``).
    """
    out = os.path.join(WORK, f"{tag}.out")
    result = os.path.join(WORK, f"{tag}.json")
    for path in (out, result):
        if os.path.exists(path):
            os.remove(path)
    env = dict(os.environ, **THREAD_PINS)
    probes = []
    cpu = f"cpu{min(os.sched_getaffinity(0))}"
    steal0 = steal_seconds(cpu)
    t0 = now()
    with open(os.path.join(WORK, f"{tag}.stderr"), "w") as err:
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, config, out, result, repr(t0), str(trace)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() - t0 > CHILD_TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            probes.append(probe_s())
            time.sleep(PROBE_PERIOD_S)
    life = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = statistics.median(probes) if probes else PROBE_REF_S
    rep = {"exit": proc.returncode, "out": out, "probe_s": probe,
           "probes": len(probes), "life_s": life,
           "stolen_s": min(steal_seconds(cpu) - steal0, life),
           # replaced by the child's own figure (child.peak_rss_mb) when it
           # writes one; ru_maxrss also counts this process's memory
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0 and os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            rep.update(json.load(fh))
        for key in ("setup_s", "wall_s"):
            if key in rep:
                rep[key + "_ref"] = rep[key] * speed(rep)
    return rep


# -- output checks --------------------------------------------------------------

def _csv_rows(text):
    lines = text.splitlines()
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        try:
            key = (float(fields[0]), fields[1], float(fields[2]))
        except (IndexError, ValueError):
            key = line
        rows[key] = None if key in rows else fields[3:]
    return (lines[0] if lines else ""), rows


def _close(a, b):
    if a == "" or b == "":
        return a == b
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return x == y or math.isclose(x, y, rel_tol=ROW_TOL, abs_tol=ROW_TOL)


def check_sweep(reference, out_text):
    """(attempted, failed): a row fails when missing, extra, or off by > 1e-8."""
    ref_header, ref = _csv_rows(reference)
    header, got = _csv_rows(out_text)
    keys = set(ref) | set(got)
    if header != ref_header:
        return len(keys), len(keys)
    failed = 0
    for key in keys:
        a, b = ref.get(key), got.get(key)
        if a is None or b is None or len(a) != len(b) or \
                not all(_close(x, y) for x, y in zip(a, b)):
            failed += 1
    return len(keys), failed


def verify_states(out_text):
    states = {}
    for line in out_text.splitlines():
        if line.startswith("[PASS]") or line.startswith("[FAIL]"):
            number = line[6:].split(".", 1)[0].strip()
            if number.isdigit():
                states[int(number)] = line.startswith("[PASS]")
    return states


def check_verify(out_text, verify_ok):
    """(attempted, failed): only criterion 2 red and an overall FAIL expected."""
    states = verify_states(out_text)
    failed = sum(states.get(i) != (i not in EXPECTED_RED)
                 for i in range(1, VERIFY_CRITERIA + 1))
    if verify_ok is not False and failed == 0:
        failed = 1
    return VERIFY_CRITERIA, failed


def check(mode, reference, rep):
    """Attempted and failed operations of one repetition; a crash fails all."""
    expected = VERIFY_CRITERIA if mode == "verify" else len(_csv_rows(reference)[1])
    if "wall_s" not in rep or not os.path.exists(rep["out"]):
        return expected, expected
    with open(rep["out"], encoding="utf-8") as fh:
        text = fh.read()
    if mode == "verify":
        return check_verify(text, rep.get("verify_ok"))
    return check_sweep(reference, text)


# -- host noise and run record --------------------------------------------------

def steal_seconds(cpu="cpu"):
    """Time the hypervisor has stolen from ``cpu`` (a /proc/stat label, by
    default all CPUs together), or 0 where /proc/stat cannot be read."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == cpu:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def host_state():
    return {"steal_s": steal_seconds(), "loadavg_1m": os.getloadavg()[0],
            "monotonic_s": now()}


def environment(args, program_seeds):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "swiptmimo")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "program_seeds": program_seeds,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
        "probe": {"loops": PROBE_LOOPS, "eigh": PROBE_EIGH,
                  "period_s": PROBE_PERIOD_S, "ref_s": PROBE_REF_S},
        "thread_pins": THREAD_PINS, "commit": commit, "src_sha256": digest.hexdigest(),
    }


# -- the run ---------------------------------------------------------------------

def median_of(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else None


def speed(rep):
    """Factor that scales a child's measured times to the reference speed.

    It removes the share of the child's life the hypervisor stole from its
    CPU, then scales what is left by the probe's speed.
    """
    return (1.0 - rep["stolen_s"] / rep["life_s"]) * PROBE_REF_S / rep["probe_s"]


def mean_of(reps, key):
    return statistics.fmean(r[key] for r in reps)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "swiptmimo", "__init__.py")):
        print("error: run from a source checkout holding src/swiptmimo",
              file=sys.stderr)
        return 2
    mode, _, trials = WORKLOADS[args.workload]
    # repetition i uses program seed seeds[i % 2], so a run covers every seed
    seeds = [PROGRAM_SEEDS[(args.seed + i) % len(PROGRAM_SEEDS)]
             for i in range(len(PROGRAM_SEEDS))]
    references = {}
    if mode == "sweep":
        for seed in seeds:
            try:
                with open(reference_path(args.workload, seed), encoding="utf-8") as fh:
                    references[seed] = fh.read()
            except OSError as exc:
                print(f"error: missing reference output: {exc}", file=sys.stderr)
                return 2
    os.makedirs(WORK, exist_ok=True)
    configs = {}
    for seed in seeds:
        configs[seed] = os.path.join(WORK, f"{args.workload}-seed{seed}.cfg")
        with open(configs[seed], "w", encoding="utf-8") as fh:
            fh.write(config_text(args.workload, seed))
    # the driver and its children share one CPU, so the probe times the CPU
    # that the child runs on; the children inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    record = {"env": environment(args, seeds), "host_start": host_state()}
    start = now()
    deadline = start + args.seconds
    # untraced children only with --trace 0; with --trace 1 untraced and traced
    # in turn, all at one program seed so the traced counts must repeat exactly
    kinds = [0] if args.trace == 0 else [0, 1]
    setups = []
    reps = {k: [] for k in kinds}
    rounds = []
    attempted = failed = 0
    for i in itertools.count():
        round_start = now()
        seed = seeds[i % len(seeds)] if args.trace == 0 else seeds[0]
        setups += [spawn("setup", configs[seed], 0, f"{args.workload}-setup")
                   for _ in range(SETUP_REPS)]
        for kind in kinds:
            rep = spawn(mode, configs[seed], kind, f"{args.workload}-{kind}")
            a, f = check(mode, references.get(seed), rep)
            rep.update(program_seed=seed, attempted=a, failed=f)
            attempted += a
            failed += f
            reps[kind].append(rep)
        rounds.append(now() - round_start)
        # start another round only if it is expected to end by the deadline,
        # give or take half a round, so a run measures --seconds on average
        if now() + statistics.median(rounds) / 2 > deadline:
            break
    record["host_end"] = host_state()
    record["measured_s"] = now() - start
    fields = ("exit", "setup_s", "probe_s", "probes", "stolen_s", "life_s")
    record["setups"] = [{f: r.get(f) for f in fields} for r in setups]
    fields += ("program_seed", "wall_s", "peak_rss_mb", "cpu_s", "attempted", "failed")
    record["reps"] = {k: [{f: r.get(f) for f in fields} for r in v]
                      for k, v in reps.items()}

    untraced = [r for r in reps[0] if "wall_s" in r]
    if not untraced:
        print("record " + json.dumps(record))
        print("error: every repetition failed; see .perfbench_out/*.stderr",
              file=sys.stderr)
        return 1
    wall = mean_of(untraced, "wall_s_ref")
    correct = failed == 0
    if args.trace == 0:
        rows = VERIFY_CRITERIA if mode == "verify" else \
            len(_csv_rows(references[seeds[0]])[1])
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(median_of(setups + untraced, "setup_s_ref"), "s"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in untraced), "MB"),
            "us_per_trial_point": metric(wall * 1e6 / (trials * rows), "us"),
        }
    else:
        traced = [r for r in reps[1] if "layers" in r]
        if not traced:
            print("record " + json.dumps(record))
            print("error: every traced repetition failed", file=sys.stderr)
            return 1
        metrics = {}
        for name, (value, unit) in traced[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced]
            if unit in TIME_UNITS:
                values = [v * speed(r) for v, r in zip(values, traced)]
            if unit not in COUNT_UNITS:
                value = statistics.median(values)
            elif any(v != value for v in values):
                print(f"error: count {name} differs between traced runs: {values}",
                      file=sys.stderr)
                correct = False
            metrics[name] = metric(value, unit)
        with open(traced[0]["out"], encoding="utf-8") as fh:
            red = sum(not ok for ok in verify_states(fh.read()).values())
        metrics["acceptance.failed"] = metric(red, "count")
        metrics["process.cpu_s"] = metric(
            statistics.fmean(r["cpu_s"] * speed(r) for r in untraced), "s")
        metrics["trace_overhead_frac"] = metric(
            (mean_of(traced, "wall_s_ref") - wall) / wall, "ratio")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
