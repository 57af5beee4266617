"""Experiment runner: config parsing, sweeps over the power ratio, CSV output.

Config files are UTF-8 `key = value` lines with `#` comments; lists are
non-empty comma-separated values in brackets, and `FIELDS` states each key's
kind and bounds. An empty (or absent) file reproduces the baseline setup.
Exit codes: 0 success, 2 parse error, 3 convergence failure, 4 anchor failure.
"""

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import montecarlo, saddle
from .errors import ConfigError, ConvergenceError
from .scenario import (REFERENCE_SIGMA_BS, REFERENCE_SIGMA_P2P, ScenarioConfig)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_ANCHORS = 4

# scenario tag -> Monte-Carlo metric; worst-case is handled by the saddle solver
SCENARIO_METRICS = {
    "average": "rate-struct1",
    "structure2": "rate-struct2",
    "swipt": "energy-swipt",
    "energy-struct1": "energy-struct1",
    "energy-struct2": "energy-struct2",
}
SCENARIOS = ("worst-case",) + tuple(SCENARIO_METRICS)
DEFAULT_SCENARIOS = ("worst-case", "average", "swipt", "structure2")
ENERGY_SCENARIOS = ("swipt", "energy-struct1", "energy-struct2")

CSV_HEADER = "ratio,scenario,psi,value,stderr"


@dataclass(frozen=True)
class SweepConfig:
    """Sweep specification: base link setup plus the grid to run."""

    k: int = 3
    m: int = 3
    n: int = 5
    sigma_p2p: tuple = REFERENCE_SIGMA_P2P
    sigma_bs: tuple = REFERENCE_SIGMA_BS
    psis: tuple = (0.3, 0.6, 0.9)
    sigma2_w: float = 1.0
    sigma2_n: float = 1.0
    p: float = 5.0
    ratio_grid: tuple = tuple(float(r) for r in range(15))
    scenarios: tuple = DEFAULT_SCENARIOS
    trials: int = 2000
    seed: int = 42

    def scenario_for(self, psi):
        return ScenarioConfig(
            K=self.k, M=self.m, N=self.n, sigma_p2p=self.sigma_p2p, sigma_bs=self.sigma_bs,
            psi=(float(psi),) * self.k, sigma2_w=self.sigma2_w, sigma2_n=self.sigma2_n,
            P=self.p, seed=self.seed, trials=self.trials)


# key -> (SweepConfig attribute, kind, bound every value meets, message when one
# does not). Kinds: "int" and "float" are one value; "list" is a non-empty
# bracketed list of numbers; "grid" is a "list" without repeats, and psi's grid
# may also be one bare number; "tags" is a non-empty list of distinct scenarios.
FIELDS = {
    "k": ("k", "int", lambda v: v >= 1, "must be >= 1"),
    "m": ("m", "int", lambda v: v >= 1, "must be >= 1"),
    "n": ("n", "int", lambda v: v >= 1, "must be >= 1"),
    "trials": ("trials", "int", lambda v: v >= 1, "must be >= 1"),
    "seed": ("seed", "int", lambda v: v >= 0, "must be >= 0"),
    "sigma_p2p": ("sigma_p2p", "list", lambda v: True, ""),
    "sigma_bs": ("sigma_bs", "list", lambda v: True, ""),
    "psi": ("psis", "grid", lambda v: 0.0 <= v <= 1.0, "split ratio {} outside [0, 1]"),
    "sigma2_w": ("sigma2_w", "float", lambda v: v > 0, "noise variance must be positive"),
    "sigma2_n": ("sigma2_n", "float", lambda v: v > 0, "noise variance must be positive"),
    "p": ("p", "float", lambda v: v >= 0, "power budget must be nonnegative"),
    "ratio_grid": ("ratio_grid", "grid", lambda v: v >= 0, "ratios must be nonnegative"),
    "scenarios": ("scenarios", "tags", lambda v: v in SCENARIOS,
                  f"unknown scenario '{{}}' (choose from {SCENARIOS})"),
}


def _read_field(key, raw, line):
    """(attribute, value) of one `key = raw` entry, checked against FIELDS."""
    attr, kind, in_bound, message = FIELDS[key]
    raw = raw.strip()
    if kind in ("int", "float") or (key == "psi" and not raw.startswith("[")):
        items = [raw]
    elif raw.startswith("[") and raw.endswith("]"):
        items = [item.strip() for item in raw[1:-1].split(",")]
        if items == [""]:
            raise ConfigError("list must not be empty", field=key, line=line)
    else:
        raise ConfigError("expected a bracketed comma-separated list", field=key, line=line)
    convert = {"int": int, "tags": str}.get(kind, float)
    try:
        values = tuple(map(convert, items))
    except ValueError as exc:
        raise ConfigError(f"invalid value: {exc}", field=key, line=line)
    for value in values:
        if convert is float and not np.isfinite(value):
            raise ConfigError(f"{value} is not a finite number", field=key, line=line)
        if not in_bound(value):
            raise ConfigError(message.format(value), field=key, line=line)
    if kind in ("grid", "tags") and len(set(values)) < len(values):
        raise ConfigError("repeated entry", field=key, line=line)
    return attr, values[0] if kind in ("int", "float") else values


def parse_config(path=None, text=None):
    """Parse a config file (or literal text) into a SweepConfig.

    Unknown keys are rejected; every error names the offending field and line.
    """
    if text is None:
        if path is None:
            return SweepConfig()
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    overrides, lines = {}, {}  # lines: key -> the line that set it
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        if key not in FIELDS:
            raise ConfigError(f"unknown key '{key}'", field=key, line=lineno)
        if key in lines:
            raise ConfigError(f"key already set on line {lines[key]}", field=key, line=lineno)
        name, value = _read_field(key, raw, lineno)
        overrides[name], lines[key] = value, lineno
    cfg = SweepConfig(**overrides)
    for profile, dim in (("sigma_p2p", "m"), ("sigma_bs", "n")):
        expected, actual = min(cfg.k, getattr(cfg, dim)), len(getattr(cfg, profile))
        if actual != expected:  # blame the latest of the keys the length depends on
            line = max(lines.get(key, 0) for key in ("k", dim, profile))
            raise ConfigError(f"{profile} has length {actual}, expected min(k, {dim}) = "
                              f"{expected}", field=profile, line=line)
    if not np.isfinite((top := max(cfg.ratio_grid)) * cfg.p):  # the largest BS budget
        raise ConfigError(f"ratio {top} times p = {cfg.p} is not finite", field="ratio_grid",
                          line=max(lines.get(key, 0) for key in ("ratio_grid", "p")))
    if cfg.k > min(cfg.m, cfg.n):
        raise ConfigError(f"k = {cfg.k} must not exceed min(m, n) = {min(cfg.m, cfg.n)}",
                          field="k", line=max(lines.get(key, 0) for key in ("k", "m", "n")))
    try:
        cfg.scenario_for(cfg.psis[0])  # surface the remaining dimension/profile checks now
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


class SweepFailure(ConvergenceError):
    """Convergence failure annotated with the sweep point that triggered it."""

    def __init__(self, scenario_tag, psi, ratio, cause):
        super().__init__(
            f"convergence failure in scenario '{scenario_tag}' "
            f"(psi={psi}, ratio={ratio}): {cause}")
        self.scenario_tag = scenario_tag
        self.psi = psi
        self.ratio = ratio


def _fmt(value):
    return format(value, ".9g")


def _worst_case_points(cfg, points):
    """Saddle rates of the (psi, ratio) points, solved as one batch, in order.

    Raises SweepFailure for the first point, in order, that did not converge.
    """
    psi, ratio = (np.array(v, dtype=float) for v in zip(*points))
    lam2 = psi[:, None] * np.asarray(cfg.sigma_p2p) ** 2
    lam2_bs = psi[:, None] * np.asarray(cfg.sigma_bs) ** 2
    beta = np.repeat(psi[:, None] * cfg.sigma2_w + cfg.sigma2_n, cfg.k, axis=1)
    batch = saddle.solve_saddle_batch(lam2, lam2_bs, beta, cfg.p, ratio * cfg.p)
    for b, (psi_b, ratio_b) in enumerate(points):
        try:
            yield batch.solution(b).rate, None
        except ConvergenceError as exc:
            raise SweepFailure("worst-case", psi_b, ratio_b, exc) from exc


def _monte_carlo_points(cfg, tags):
    """{tag: mean and stderr (in dB for energy tags) of each sweep point, in order},
    from one request per (psi, structure family), all on one draw."""
    budgets = [ratio * cfg.p for ratio in sorted(cfg.ratio_grid)]
    groups = list(filter(None, ([tag for tag in sorted(tags) if SCENARIO_METRICS[tag] in f]
                                for f in montecarlo.FAMILIES)))  # tags per structure
    grids = montecarlo.sample_grids([
        (cfg.scenario_for(psi), tuple(SCENARIO_METRICS[tag] for tag in group), budgets)
        for psi in sorted(cfg.psis) for group in groups])
    values = {tag: [] for tag in tags}
    for group, grid in zip(groups * len(cfg.psis), grids):  # psi-major order
        for tag, results in zip(group, grid):
            values[tag] += [res.db() if tag in ENERGY_SCENARIOS else (res.mean, res.stderr)
                            for res in map(montecarlo.McResult.from_samples, results)]
    return values


def run_sweep(cfg):
    """Evaluate every (scenario, psi, ratio) point and render the CSV text."""
    rows = []
    points = [(psi, ratio) for psi in sorted(cfg.psis) for ratio in sorted(cfg.ratio_grid)]
    mc_values = _monte_carlo_points(cfg, set(cfg.scenarios) & set(SCENARIO_METRICS))
    for tag in sorted(cfg.scenarios):
        values = _worst_case_points(cfg, points) if tag == "worst-case" else mc_values[tag]
        for (psi, ratio), (value, stderr) in zip(points, values):
            stderr_text = "" if stderr is None else _fmt(stderr)
            rows.append(f"{_fmt(ratio)},{tag},{_fmt(psi)},{_fmt(value)},{stderr_text}")
    return "\n".join([CSV_HEADER] + rows) + "\n"


def verify_anchors(trials=2000, seed=42, out=None):
    """Run every acceptance check and print a pass/fail table."""
    from . import acceptance

    out = sys.stdout if out is None else out
    results = acceptance.run_all(trials=trials, seed=seed)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok &= res.passed
        print(f"[{status}] {res.criterion:2d}. {res.name}: {res.detail}", file=out)
    print(f"overall: {'PASS' if all_ok else 'FAIL'}", file=out)
    return all_ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="swiptmimo",
        description="Sweep rates and harvested energy of a power-splitting "
                    "MIMO receiver against interferer power.")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--verify", action="store_true",
                        help="run the acceptance checks instead of a sweep")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--seed", type=int, help="override the seed")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        # command-line overrides pass the same field checks as file values
        overrides = dict(_read_field(key, str(value), None)
                         for key, value in (("trials", args.trials), ("seed", args.seed))
                         if value is not None)
        cfg = replace(cfg, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.verify:
        ok = verify_anchors(trials=cfg.trials, seed=cfg.seed)
        return EXIT_OK if ok else EXIT_ANCHORS

    try:
        csv_text = run_sweep(cfg)
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
