"""Experiment runner: config parsing, sweeps over the power ratio, CSV output.

Config files are UTF-8 `key = value` lines with `#` comments; lists are
comma-separated values in brackets. An empty (or absent) file reproduces the
baseline setup. Exit codes: 0 success, 2 parse error, 3 convergence failure,
4 anchor failure.
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

    def scenario_for(self, psi, ratio=0.0):
        return ScenarioConfig(
            K=self.k, M=self.m, N=self.n, sigma_p2p=self.sigma_p2p,
            sigma_bs=self.sigma_bs, psi=(float(psi),) * self.k,
            sigma2_w=self.sigma2_w, sigma2_n=self.sigma2_n, P=self.p,
            Pb=float(ratio) * self.p, seed=self.seed, trials=self.trials)


_PARSERS = {}


def _field(name):
    def register(fn):
        _PARSERS[name] = fn
        return fn
    return register


def _parse_list(raw, line, name):
    raw = raw.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ConfigError("expected a bracketed comma-separated list",
                          field=name, line=line)
    inner = raw[1:-1].strip()
    return [item.strip() for item in inner.split(",")] if inner else []


def _parse_float(raw, line, name):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid number: {exc}", field=name, line=line)
    if not np.isfinite(value):
        raise ConfigError(f"{raw} is not a finite number", field=name, line=line)
    return value


def _parse_floats(raw, line, name):
    return tuple(_parse_float(x, line, name) for x in _parse_list(raw, line, name))


def _positive_int(raw, line, name, minimum=1):
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError("expected an integer", field=name, line=line)
    if value < minimum:
        raise ConfigError(f"must be >= {minimum}", field=name, line=line)
    return value


@_field("k")
def _parse_k(raw, line):
    return "k", _positive_int(raw, line, "k")


@_field("m")
def _parse_m(raw, line):
    return "m", _positive_int(raw, line, "m")


@_field("n")
def _parse_n(raw, line):
    return "n", _positive_int(raw, line, "n")


@_field("trials")
def _parse_trials(raw, line):
    return "trials", _positive_int(raw, line, "trials")


@_field("seed")
def _parse_seed(raw, line):
    return "seed", _positive_int(raw, line, "seed", minimum=0)


@_field("sigma_p2p")
def _parse_sigma_p2p(raw, line):
    return "sigma_p2p", _parse_floats(raw, line, "sigma_p2p")


@_field("sigma_bs")
def _parse_sigma_bs(raw, line):
    return "sigma_bs", _parse_floats(raw, line, "sigma_bs")


@_field("psi")
def _parse_psi(raw, line):
    values = _parse_floats(raw, line, "psi") if raw.strip().startswith("[") \
        else (_parse_float(raw, line, "psi"),)
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"split ratio {v} outside [0, 1]", field="psi", line=line)
    return "psis", tuple(values)


@_field("sigma2_w")
def _parse_s2w(raw, line):
    value = _parse_float(raw, line, "sigma2_w")
    if value <= 0:
        raise ConfigError("noise variance must be positive", field="sigma2_w", line=line)
    return "sigma2_w", value


@_field("sigma2_n")
def _parse_s2n(raw, line):
    value = _parse_float(raw, line, "sigma2_n")
    if value <= 0:
        raise ConfigError("noise variance must be positive", field="sigma2_n", line=line)
    return "sigma2_n", value


@_field("p")
def _parse_p(raw, line):
    value = _parse_float(raw, line, "p")
    if value < 0:
        raise ConfigError("power budget must be nonnegative", field="p", line=line)
    return "p", value


@_field("ratio_grid")
def _parse_ratio_grid(raw, line):
    grid = _parse_floats(raw, line, "ratio_grid")
    if not grid:
        raise ConfigError("ratio grid must not be empty", field="ratio_grid", line=line)
    if any(r < 0 for r in grid):
        raise ConfigError("ratios must be nonnegative", field="ratio_grid", line=line)
    return "ratio_grid", grid


@_field("scenarios")
def _parse_scenarios(raw, line):
    tags = tuple(_parse_list(raw, line, "scenarios"))
    for tag in tags:
        if tag not in SCENARIOS:
            raise ConfigError(f"unknown scenario '{tag}' (choose from {SCENARIOS})",
                              field="scenarios", line=line)
    if not tags:
        raise ConfigError("scenario list must not be empty", field="scenarios", line=line)
    return "scenarios", tags


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
    overrides = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        if key not in _PARSERS:
            raise ConfigError(f"unknown key '{key}'", field=key, line=lineno)
        try:
            name, value = _PARSERS[key](raw.strip(), lineno)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid value: {exc}", field=key, line=lineno)
        overrides[name] = value
    try:
        cfg = SweepConfig(**overrides)
        cfg.scenario_for(cfg.psis[0])  # surface dimension/profile mismatches now
    except (ConfigError, ValueError) as exc:
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


def _monte_carlo_point(cfg, tag, psi, ratio):
    metric = SCENARIO_METRICS[tag]
    result = montecarlo.average_metric(
        cfg.scenario_for(psi), metric, ratio * cfg.p)
    if tag in ENERGY_SCENARIOS:
        value = 10.0 * np.log10(result.mean) if result.mean > 0 else -np.inf
        stderr = (10.0 / np.log(10.0)) * result.stderr / result.mean \
            if result.mean > 0 else np.inf
        return value, stderr
    return result.mean, result.stderr


def run_sweep(cfg):
    """Evaluate every (scenario, psi, ratio) point and render the CSV text."""
    rows = []
    points = [(psi, ratio) for psi in sorted(cfg.psis) for ratio in sorted(cfg.ratio_grid)]
    for tag in sorted(cfg.scenarios):
        if tag == "worst-case":
            values = _worst_case_points(cfg, points)
        else:
            values = (_monte_carlo_point(cfg, tag, psi, ratio) for psi, ratio in points)
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
        overrides = dict(_PARSERS[key](str(value), None)
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
