"""Experiment runner: config parsing, sweeps over the power ratio, CSV output.

Config files are UTF-8 `key = value` lines with `#` comments; lists are comma-separated
values in brackets, `FIELDS` states each key's kind, and ScenarioConfig and SweepConfig
check the values. An empty (or absent) file reproduces the baseline setup.
Exit codes: 0 success, 2 config or usage error (including sample rows too large to
allocate and an unwritable --out), 3 convergence failure, 4 anchor failure.
"""

import argparse
import io
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import montecarlo, saddle
from .errors import ConfigError, ConvergenceError, InvalidInputError
from .rates import MAX_BUDGET
from .scenario import ScenarioConfig

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
    """Sweep specification: a link setup plus the grid to run over it; each point
    sets the link's split from `psis` and the interferer budget to a ratio times P."""

    link: ScenarioConfig = ScenarioConfig()
    psis: tuple = (0.3, 0.6, 0.9)
    ratio_grid: tuple = tuple(float(r) for r in range(15))
    scenarios: tuple = DEFAULT_SCENARIOS

    def __post_init__(self):
        for key, values in (("psi", self.psis), ("ratio_grid", self.ratio_grid),
                            ("scenarios", self.scenarios)):
            if not len(values):
                raise InvalidInputError("list must not be empty", (key,))
        for psi in self.psis:
            self.scenario_for(psi)  # the link's bound on the split
        if not all(ratio >= 0 for ratio in self.ratio_grid):
            raise InvalidInputError("ratios must be nonnegative", ("ratio_grid",))
        top = max(self.ratio_grid)
        if not top * self.link.P <= MAX_BUDGET:  # top * P is the largest BS budget
            raise InvalidInputError(f"ratio {top} times p = {self.link.P} exceeds "
                                    f"{MAX_BUDGET:g}", ("ratio_grid", "p"))
        for tag in self.scenarios:
            if tag not in SCENARIOS:
                raise InvalidInputError(f"unknown scenario '{tag}' (choose from {SCENARIOS})",
                                        ("scenarios",))

    trials = property(lambda self: self.link.trials)
    seed = property(lambda self: self.link.seed)

    def scenario_for(self, psi):
        return replace(self.link, psi=float(psi))


# key -> (ScenarioConfig or, for SWEEP_KEYS, SweepConfig attribute, kind). Kinds: "int"
# and "float" are one value; "list" is a bracketed comma-separated list of numbers;
# "grid" is a "list" without repeats, and psi's grid may also be one bare number;
# "tags" is a list of distinct words.
FIELDS = {
    "k": ("K", "int"), "m": ("M", "int"), "n": ("N", "int"), "trials": ("trials", "int"),
    "seed": ("seed", "int"), "sigma_p2p": ("sigma_p2p", "list"),
    "sigma_bs": ("sigma_bs", "list"), "sigma2_w": ("sigma2_w", "float"),
    "sigma2_n": ("sigma2_n", "float"), "p": ("P", "float"), "psi": ("psis", "grid"),
    "ratio_grid": ("ratio_grid", "grid"), "scenarios": ("scenarios", "tags")}
SWEEP_KEYS = ("psi", "ratio_grid", "scenarios")


def _read_field(key, raw, line):
    """The value of one `key = raw` entry, of the kind FIELDS gives its key."""
    kind = FIELDS[key][1]
    raw = raw.strip()
    if kind in ("int", "float") or (key == "psi" and not raw.startswith("[")):
        items = [raw]
    elif raw.startswith("[") and raw.endswith("]"):
        items = [item.strip() for item in raw[1:-1].split(",")] if raw[1:-1].strip() else []
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
    if kind in ("grid", "tags") and len(set(values)) < len(values):
        raise ConfigError("repeated entry", field=key, line=line)
    return values[0] if kind in ("int", "float") else values


def _checked(build, lines):
    """build(), with an InvalidInputError turned into a ConfigError that names the
    first key its check read and the latest of their lines in `lines` (key -> line)."""
    try:
        return build()
    except InvalidInputError as exc:
        line = max((lines[key] for key in exc.keys if key in lines), default=None)
        raise ConfigError(str(exc), field=exc.keys[0], line=line) from exc


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
    values, lines = {}, {}  # lines: key -> the line that set it
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
        values[key], lines[key] = _read_field(key, raw, lineno), lineno
    top = max(values.get("ratio_grid", SweepConfig.ratio_grid), default=0.0)
    p = values.get("p", ScenarioConfig.P)
    if not np.isfinite(top * p):  # an overflow is the grid's fault before p's bound
        raise ConfigError(f"ratio {top} times p = {p} is not finite", field="ratio_grid",
                          line=max(lines.get(key, 0) for key in ("ratio_grid", "p")))
    link = {FIELDS[key][0]: value for key, value in values.items() if key not in SWEEP_KEYS}
    sweep = {FIELDS[key][0]: value for key, value in values.items() if key in SWEEP_KEYS}
    return _checked(lambda: SweepConfig(ScenarioConfig(**link), **sweep), lines)


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


@dataclass(frozen=True)
class SweepResult:
    """What `sweep` computed: the trial count and seed of its one draw, and its points."""

    trials: int
    seed: int
    samples: dict    # (psi, metric) -> (ratios, T) per-trial samples, ratios ascending
    solutions: dict  # (psi, ratio) -> saddle point, a SaddleBatch row


def sweep(configs):
    """Every point of SweepConfigs that share a link (`sample_grids`' rule) and no psi,
    on one draw: one `sample_grids` request per psi holding its config's Monte-Carlo
    metrics over its whole ratio grid (none if it has none), and one `solve_links` batch
    of every worst-case point. Raises SweepFailure for the first worst-case point, in
    row order, that did not converge."""
    psis = [psi for cfg in configs for psi in set(cfg.psis)]
    if len(set(psis)) < len(psis):
        raise InvalidInputError("a psi appears in two sweep configs", ("psi",))
    requests, keys, points = [], [], []
    for cfg in configs:
        ratios = sorted(cfg.ratio_grid)
        metrics = tuple(SCENARIO_METRICS[tag]
                        for tag in sorted(set(cfg.scenarios) & set(SCENARIO_METRICS)))
        for psi in sorted(cfg.psis):
            link = cfg.scenario_for(psi)
            if metrics:
                requests.append((link, metrics, [ratio * link.P for ratio in ratios]))
                keys += [(psi, metric) for metric in metrics]
            if "worst-case" in cfg.scenarios:
                points += [(link, psi, ratio) for ratio in ratios]
    grids = montecarlo.sample_grids(requests)
    samples = dict(zip(keys, (rows for grid in grids for rows in grid)))
    solutions = {}
    if points:
        batch = saddle.solve_links([link for link, _, _ in points],
                                   [ratio * link.P for link, _, ratio in points])
        for b, (_, psi, ratio) in enumerate(points):
            try:
                solutions[psi, ratio] = batch.row(b)
            except ConvergenceError as exc:
                raise SweepFailure("worst-case", psi, ratio, exc) from exc
    return SweepResult(configs[0].trials, configs[0].seed, samples, solutions)


def run_sweep(cfg):
    """Evaluate every (scenario, psi, ratio) point with `sweep` and render the CSV text:
    worst-case rows with the saddle rate, the others with the mean and stderr of their
    samples (in dB for energy tags)."""
    result, rows = sweep([cfg]), []
    ratios = sorted(cfg.ratio_grid)
    for tag in sorted(cfg.scenarios):
        for psi in sorted(cfg.psis):
            if tag == "worst-case":
                values = [(result.solutions[psi, ratio].rate, None) for ratio in ratios]
            else:
                values = [res.db() if tag in ENERGY_SCENARIOS else (res.mean, res.stderr)
                          for res in map(montecarlo.McResult.from_samples,
                                         result.samples[psi, SCENARIO_METRICS[tag]])]
            for ratio, (value, stderr) in zip(ratios, values):
                stderr_text = "" if stderr is None else _fmt(stderr)
                rows.append(f"{_fmt(ratio)},{tag},{_fmt(psi)},{_fmt(value)},{stderr_text}")
    return "\n".join([CSV_HEADER] + rows) + "\n"


def verify_anchors(trials=2000, seed=42, out=None):
    """Run every acceptance check and print a pass/fail table."""
    from . import acceptance  # here, not at the top: acceptance imports cli

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
    parser.add_argument("--out", help="CSV or --verify report path (default: stdout)")
    parser.add_argument("--verify", action="store_true",
                        help="run the acceptance checks instead of a sweep")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--seed", type=int, help="override the seed")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        # command-line overrides pass the same field checks as file values
        overrides = {key: value for key, value in vars(args).items()
                     if key in ("trials", "seed") and value is not None}
        cfg = _checked(lambda: replace(cfg, link=replace(cfg.link, **overrides)), {})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.out:
        # checked before any work, so a bad path costs none; opening to append
        # truncates nothing, so a run that fails leaves an existing file as it was
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        if args.verify:
            report = io.StringIO()
            passed = verify_anchors(trials=cfg.trials, seed=cfg.seed, out=report)
            text, code = report.getvalue(), EXIT_OK if passed else EXIT_ANCHORS
        else:
            text, code = run_sweep(cfg), EXIT_OK
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except MemoryError:  # the (metrics, ratios, trials) sample rows grow with the input
        print(f"config error: cannot allocate the sample rows of {cfg.trials} trials "
              "(field 'trials')", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    raise SystemExit(main())
