"""Per-layer tracing for one benchmark child, installed from outside the program.

Every public function of interest is replaced by a wrapper under each name it
is bound to: module attributes across the whole package (``saddle`` imports
``waterfill`` by name, ``montecarlo`` imports ``waterfill_batch`` and the
``linalg`` samplers by name) and tuples of functions such as
``acceptance.ALL_CRITERIA``. Patching only the defining module would miss those
calls. ``numpy.linalg.eigh`` is wrapped as the kernel layer.

Spans (name, start, end, parent) are kept in memory and reduced to metrics
once the workload has finished.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function): timed spans; layer times and call counts come from these.
TIMED = [
    ("cli", "run_sweep"),
    ("saddle", "solve_saddle"),
    ("saddle", "bs_best_response"),
    ("saddle", "p2p_best_response"),
    ("rates", "waterfill"),
    ("rates", "worst_case_rate"),
    ("rates", "waterfill_batch"),
    ("montecarlo", "ensemble_for"),
    ("montecarlo", "metric_samples"),
    ("montecarlo", "average_metric"),
    ("linalg", "haar_from_gaussian"),
] + [("acceptance", f"criterion_{i}") for i in range(1, 11)]

# (module, function): plain call counters, for functions too small to time.
COUNTED = [("linalg", "complex_gaussian")]

# Modules whose public functions are timed as one layer each.
MODULE_LAYERS = ("harvesting", "transfer", "scenario")


def _clock():
    return time.perf_counter()


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.iterations = []     # SaddleSolution.iterations per solve
        self.sample_keys = []    # metric_samples argument keys, in call order
        self.trial_points = 0
        self.rows = 0
        self.eigh_matrices = 0
        self.eigh_bytes = 0
        self._originals = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _rebind(self, original, wrapper):
        """Replace `original` under every package name and tuple that holds it."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    self._originals.append((module, attr, value))
                    setattr(module, attr, tuple(wrapper if v is original else v
                                                for v in value))

    def _timed(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, _clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _clock()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import importlib

        pkg = self.package.__name__
        mods = {name: importlib.import_module(f"{pkg}.{name}")
                for name in {m for m, _ in TIMED + COUNTED} | set(MODULE_LAYERS)}
        hooks = {
            ("saddle", "solve_saddle"): self._on_saddle,
            ("montecarlo", "metric_samples"): self._on_samples,
            ("cli", "run_sweep"): self._on_sweep,
        }
        for module, fn_name in TIMED:
            fn = getattr(mods[module], fn_name)
            self._rebind(fn, self._timed(f"{module}.{fn_name}", fn,
                                         hooks.get((module, fn_name))))
        for module, fn_name in COUNTED:
            fn = getattr(mods[module], fn_name)
            self._rebind(fn, self._counted(f"{module}.{fn_name}", fn))
        for module in MODULE_LAYERS:
            mod = mods[module]
            for fn_name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not fn_name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    self._rebind(fn, self._timed(f"{module}.{fn_name}", fn))
        eigh = np.linalg.eigh
        wrapped_eigh = self._timed("kernel.eigh", eigh, self._on_eigh)
        self._originals.append((np.linalg, "eigh", eigh))
        np.linalg.eigh = wrapped_eigh

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    # -- result hooks -------------------------------------------------------

    def _on_saddle(self, args, kwargs, sol):
        self.iterations.append(int(sol.iterations))

    def _on_samples(self, args, kwargs, values):
        cfg, metric, pb_budget = (list(args) + [None] * 3)[:3]
        cfg = kwargs.get("cfg", cfg)
        metric = kwargs.get("metric", metric)
        pb_budget = kwargs.get("pb_budget", pb_budget)
        self.sample_keys.append((cfg, metric, float(pb_budget)))
        self.trial_points += len(values)

    def _on_sweep(self, args, kwargs, text):
        self.rows += text.count("\n") - 1

    def _on_eigh(self, args, kwargs, result):
        a = np.asarray(args[0])
        w, v = result
        self.eigh_matrices += int(np.prod(a.shape[:-2], dtype=np.int64))
        self.eigh_bytes += a.nbytes + w.nbytes + v.nbytes

    # -- reduction ----------------------------------------------------------

    def metrics(self):
        """Per-layer times, self times and exact counts from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        layer_total = defaultdict(float)
        layer_calls = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            total[name] += dur
            self_time[name] += dur - child_time[i]
            calls[name] += 1
            layer = name.split(".", 1)[0]
            if layer in MODULE_LAYERS:
                layer_calls[layer] += 1
                # count a module's time once when its functions nest
                p = parent
                while p >= 0 and spans[p][0].split(".", 1)[0] != layer:
                    p = spans[p][3]
                if p < 0:
                    layer_total[layer] += dur
        n_keys = len(self.sample_keys)
        repeats = n_keys - len(set(self.sample_keys))
        mc_s = total["montecarlo.metric_samples"]
        out = {
            "cli.run_sweep.s": (total["cli.run_sweep"], "s"),
            "cli.run_sweep.self_s": (self_time["cli.run_sweep"], "s"),
            "cli.rows": (self.rows, "count"),
            "saddle.iterations.sum": (sum(self.iterations), "count"),
            "saddle.iterations.max": (max(self.iterations, default=0), "count"),
            "montecarlo.repeat_frac": (repeats / n_keys if n_keys else 0.0, "ratio"),
            "montecarlo.trial_points": (self.trial_points, "count"),
            "montecarlo.us_per_trial_point": (
                mc_s * 1e6 / self.trial_points if self.trial_points else 0.0, "us"),
            "linalg.complex_gaussian.calls": (self.counts["linalg.complex_gaussian"],
                                              "count"),
            "kernel.eigh.matrices": (self.eigh_matrices, "count"),
            "kernel.eigh.bytes": (self.eigh_bytes, "bytes_computed"),
        }
        for name in [f"{m}.{f}" for m, f in TIMED if m != "acceptance"] + ["kernel.eigh"]:
            if name != "cli.run_sweep":
                out[f"{name}.s"] = (total[name], "s")
                out[f"{name}.calls"] = (calls[name], "count")
        for i in range(1, 11):
            out[f"acceptance.criterion_{i}.s"] = (total[f"acceptance.criterion_{i}"], "s")
        for layer in MODULE_LAYERS:
            out[f"{layer}.s"] = (layer_total[layer], "s")
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
        return out
