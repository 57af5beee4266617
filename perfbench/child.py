"""One benchmark repetition in a fresh process.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py MODE CONFIG OUT RESULT T0 TRACE

MODE is ``sweep``, ``verify`` or ``setup``. T0 is the parent's
CLOCK_MONOTONIC reading taken just before this process was spawned, so
``setup_s`` covers interpreter start, ``import swiptmimo`` and
``parse_config``. ``wall_s`` runs from the parsed config to the output file
being written. The child writes its timings, its own peak RSS (and, with
TRACE=1, the per-layer metrics) as JSON to RESULT; a traced child also writes
its raw spans to RESULT.spans.json.
"""

import json
import os
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb():
    """This process's own peak RSS since exec, from /proc/self/status.

    ru_maxrss from wait4 would also count the parent's memory, which the
    child shares between fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def main(argv):
    mode, config, out, result_path, t0, trace = argv
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import swiptmimo
    from swiptmimo import cli

    if not os.path.abspath(swiptmimo.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported swiptmimo from {swiptmimo.__file__}, not {src}")
    cfg = cli.parse_config(config)
    t_ready = now()
    result = {"setup_s": t_ready - float(t0)}
    if mode != "setup":
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer(swiptmimo)
            tracer.install()
        t_start = now()
        if mode == "sweep":
            text = cli.run_sweep(cfg)
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                result["verify_ok"] = bool(cli.verify_anchors(
                    trials=cfg.trials, seed=cfg.seed, out=fh))
        result["wall_s"] = now() - t_start
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            with open(result_path + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
