"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

Usage, from the root of a source checkout:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
    python3 perfbench/steady.py --counts

Runs ``run.py`` ``--runs`` times per workload, each with another seed, rotating
the workload order from one round to the next. For each end-to-end metric it
prints the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json, plus the host-noise readings of each run (steal seconds, the
raw mean wall time and the median probe time). The raw results go to
``.perfbench_out/steady.json``. With ``--against`` an earlier steady.json, it
also prints how far each median moved from that set's median, in the
metric's worse direction, as the bound limits it.

With ``--counts`` it instead makes two traced runs per workload and checks
that every per-layer count is identical between them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def one_run(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    record = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), record


def check_counts(workloads, seed, seconds):
    """Two traced runs per workload must report identical per-layer counts."""
    ok = True
    for workload in workloads:
        first, second = (one_run(workload, seed, seconds, trace=1)[0]["metrics"]
                         for _ in range(2))
        counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
        differ = [k for k in counts if second[k]["value"] != counts[k]]
        ok &= not differ
        print(f"{workload:16s} {len(counts)} counts, differing: {differ or 'none'}; "
              f"trace_overhead_frac {first['trace_overhead_frac']['value']:.3f} "
              f"{second['trace_overhead_frac']['value']:.3f}; "
              + " ".join(f"{k}={counts[k]}" for k in (
                  "saddle.iterations.sum", "saddle.bs_best_response.calls",
                  "kernel.eigh.matrices", "montecarlo.trial_points", "cli.rows")))
    return 0 if ok else 1


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--counts", action="store_true")
    parser.add_argument("--against",
                        help="an earlier steady.json to compare the medians with")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.counts:
        return check_counts(workloads, args.first_seed, args.seconds)

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result, record = one_run(workload, seed, args.seconds)
            steal = record["host_end"]["steal_s"] - record["host_start"]["steal_s"]
            untraced = [r for r in record["reps"]["0"] if r["wall_s"] is not None]
            raw = sum(r["wall_s"] for r in untraced) / len(untraced)
            probe = sorted(r["probe_s"] for r in untraced)[len(untraced) // 2]
            results[workload].append({"seed": seed, "result": result, "record": record})
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{workload:16s} seed {seed:3d} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values} "
                  f"steal={steal:.2f}s "
                  f"raw_wall={raw:.4g}s probe={probe * 1e3:.3f}ms "
                  f"reps={len(record['reps']['0'])}", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)

    ok = True
    print(f"\n{'workload':16s} {'metric':20s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}" + (f" {'worse':>8s}" if earlier else ""))
    for workload in workloads:
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in results[workload]]
            med = statistics.median(values)
            worse = ""
            if earlier and earlier.get(workload):
                before = statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                           for r in earlier[workload])
                change = (med - before) / before
                change = change if m["better"] == "lower" else -change
                ok &= change <= m["bound"]
                worse = f" {change:8.4f}" + ("  <- worse than bound"
                                              if change > m["bound"] else "")
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            steady = spread < m["bound"] / 3
            ok &= steady
            print(f"{workload:16s} {m['name']:20s} {med:12.6g} {spread:8.4f} "
                  f"{m['bound']:6.2f}{worse}{'' if steady else '  <- above bound/3'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
