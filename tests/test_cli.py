import functools
import io
import pathlib
import warnings

import pytest

from swiptmimo import cli, montecarlo, saddle
from swiptmimo.errors import ConfigError

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference"
VERIFY_REFERENCES = pathlib.Path(__file__).resolve().parent / "reference"
SEEDS = (42, 7)  # the seeds the committed references pin


def write(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = cli.parse_config(write(tmp_path, ""))
        assert cfg.k == 3 and cfg.m == 3 and cfg.n == 5
        assert cfg.sigma_p2p == (0.9, 0.8, 0.7)
        assert cfg.sigma_bs == (0.8, 0.7, 0.5)
        assert cfg.p == 5.0
        assert cfg.ratio_grid == tuple(float(r) for r in range(15))
        assert cfg.trials == 2000 and cfg.seed == 42
        assert cfg.scenarios == cli.DEFAULT_SCENARIOS

    def test_no_path_gives_defaults(self):
        assert cli.parse_config() == cli.SweepConfig()

    def test_comments_and_overrides(self, tmp_path):
        cfg = cli.parse_config(write(tmp_path, """
            # comment line
            trials = 10
            psi = [0.5]            # trailing comment
            ratio_grid = [0, 2]
            scenarios = [worst-case]
        """))
        assert cfg.trials == 10
        assert cfg.psis == (0.5,)
        assert cfg.ratio_grid == (0.0, 2.0)
        assert cfg.scenarios == ("worst-case",)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, "k = 3\nbogus = 1\n"))
        assert "bogus" in str(err.value)
        assert "line 2" in str(err.value)

    def test_split_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, "psi = 1.2\n"))
        assert "psi" in str(err.value)

    def test_bad_scenario_tag(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_config(write(tmp_path, "scenarios = [nope]\n"))

    def test_single_point_grid(self, tmp_path):
        cfg = cli.parse_config(write(tmp_path, "ratio_grid = [0]\n"))
        assert cfg.ratio_grid == (0.0,)

    def test_inconsistent_profile_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_config(write(tmp_path, "sigma_p2p = [0.9, 0.8]\n"))

    def test_repeated_key_rejected_with_both_lines(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, "trials = 5\n# again\ntrials = 7\n"))
        assert str(err.value) == "key already set on line 1 (field 'trials', line 3)"

    @pytest.mark.parametrize("text, message", [
        ("k = 2", "sigma_p2p has length 3, expected min(k, m) = 2 (field 'sigma_p2p', line 1)"),
        ("n = 2", "sigma_bs has length 3, expected min(k, n) = 2 (field 'sigma_bs', line 1)"),
        # the latest line among k, the dimension and the profile is blamed
        ("k = 3\nsigma_p2p = [0.9, 0.8]",
         "sigma_p2p has length 2, expected min(k, m) = 3 (field 'sigma_p2p', line 2)"),
        ("m = 2\nk = 2\nsigma_p2p = [0.9, 0.8]\ntrials = 9",
         "sigma_bs has length 3, expected min(k, n) = 2 (field 'sigma_bs', line 2)"),
    ])
    def test_profile_length_error_names_profile_line_and_lengths(self, tmp_path, text,
                                                                 message):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, text + "\n"))
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("k = 4\nsigma_bs = [1, 1, 1, 1]",
         "k = 4 must not exceed min(m, n) = 3 (field 'k', line 1)"),
        # the latest line among k, m and n is blamed, not the profiles'
        ("n = 2\nk = 3\nsigma_bs = [1, 1]",
         "k = 3 must not exceed min(m, n) = 2 (field 'k', line 2)"),
        ("k = 4\nm = 4\nsigma_p2p = [1, 1, 1, 1]\nn = 3\nsigma_bs = [1, 1, 1]\ntrials = 9",
         "k = 4 must not exceed min(m, n) = 3 (field 'k', line 4)"),
    ])
    def test_too_many_streams_names_k_and_line(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, text + "\n"))
        assert str(err.value) == message
        assert err.value.field == "k"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize("line, field", [
        ("p = nan", "p"),
        ("p = inf", "p"),
        ("sigma2_w = nan", "sigma2_w"),
        ("sigma2_n = inf", "sigma2_n"),
        ("ratio_grid = [nan]", "ratio_grid"),
        ("ratio_grid = [0, inf]", "ratio_grid"),
        ("psi = [nan]", "psi"),
        ("sigma_bs = [0.8, nan, 0.5]", "sigma_bs"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, line, field):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, line + "\n"))
        assert f"field '{field}'" in str(err.value)

    @pytest.mark.parametrize("line, field", [
        ("psi = []", "psi"),
        ("ratio_grid = [ ]", "ratio_grid"),
        ("scenarios = []", "scenarios"),
        ("sigma_p2p = []", "sigma_p2p"),
        ("scenarios = [swipt, average, swipt]", "scenarios"),
        ("psi = [0.3, 0.6, 0.30]", "psi"),
        ("ratio_grid = [0, 1, 0.0]", "ratio_grid"),
    ])
    def test_empty_or_repeating_list_rejected_with_line(self, tmp_path, line, field):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write(tmp_path, "trials = 5\n" + line + "\n"))
        assert f"field '{field}'" in str(err.value)
        assert "line 2" in str(err.value)

    def test_repeated_profile_values_allowed(self, tmp_path):
        cfg = cli.parse_config(write(tmp_path, "sigma_bs = [0.5, 0.5, 0.5]\n"))
        assert cfg.sigma_bs == (0.5, 0.5, 0.5)

    def test_single_split_value(self, tmp_path):
        assert cli.parse_config(write(tmp_path, "psi = 0.6\n")).psis == (0.6,)


class TestRunSweep:
    def small_config(self, **overrides):
        base = dict(psis=(0.3,), ratio_grid=(0.0, 1.0), trials=25, seed=42)
        base.update(overrides)
        return cli.SweepConfig(**base)

    def test_header_and_row_count(self):
        cfg = self.small_config()
        lines = cli.run_sweep(cfg).strip().split("\n")
        assert lines[0] == "ratio,scenario,psi,value,stderr"
        assert len(lines) == 1 + len(cfg.scenarios) * len(cfg.ratio_grid)

    def test_each_ratio_once_per_scenario(self):
        cfg = self.small_config(ratio_grid=(0.0, 1.0, 3.0))
        rows = [line.split(",") for line in cli.run_sweep(cfg).strip().split("\n")[1:]]
        seen = {}
        for ratio, tag, psi, _, _ in rows:
            seen.setdefault((tag, psi), []).append(float(ratio))
        for ratios in seen.values():
            assert ratios == [0.0, 1.0, 3.0]

    def test_rows_sorted(self):
        cfg = self.small_config()
        rows = [line.split(",") for line in cli.run_sweep(cfg).strip().split("\n")[1:]]
        keys = [(r[1], float(r[2]), float(r[0])) for r in rows]
        assert keys == sorted(keys)

    def test_worst_case_rows_have_empty_stderr(self):
        cfg = self.small_config(scenarios=("worst-case",))
        rows = [line.split(",") for line in cli.run_sweep(cfg).strip().split("\n")[1:]]
        for row in rows:
            assert row[4] == ""

    def test_worst_case_endpoint_value(self):
        cfg = self.small_config(scenarios=("worst-case",), ratio_grid=(0.0,))
        row = cli.run_sweep(cfg).strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(1.016649, abs=1e-3)

    def test_structure2_endpoint_value(self):
        cfg = self.small_config(scenarios=("structure2",), psis=(0.6,),
                                ratio_grid=(0.0,))
        row = cli.run_sweep(cfg).strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(1.332708, abs=1e-3)

    def test_byte_identical_reruns(self):
        cfg = self.small_config(trials=1)
        first = cli.run_sweep(cfg)
        assert cli.run_sweep(cfg) == first

    def test_interleaved_sweeps_leave_no_state(self):
        # a sweep with another seed, trial count and grid in between must not
        # change the bytes: nothing is carried from one sweep to the next
        cfg = self.small_config(scenarios=cli.SCENARIOS, psis=(0.3, 0.6), trials=7)
        first = cli.run_sweep(cfg)
        other = self.small_config(scenarios=("average", "swipt"), trials=9, seed=3,
                                  ratio_grid=(2.0,))
        assert cli.run_sweep(other) != first
        assert cli.run_sweep(cfg) == first

    @pytest.mark.parametrize("seed", SEEDS)
    def test_worst_case_grid_matches_reference_csv(self, seed):
        cfg = cli.SweepConfig(
            scenarios=("worst-case",), psis=tuple(i / 10 for i in range(1, 10)),
            ratio_grid=tuple(float(r) for r in range(0, 15, 2)), seed=seed)
        expected = (REFERENCE / f"worst-case-grid-seed{seed}.csv").read_text(encoding="utf-8")
        assert cli.run_sweep(cfg) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_sweep_matches_reference_csv(self, seed):
        expected = (REFERENCE / f"default-sweep-seed{seed}.csv").read_text(encoding="utf-8")
        assert cli.run_sweep(cli.SweepConfig(seed=seed)) == expected

    def test_one_grid_call_per_psi_and_family(self, monkeypatch):
        # in each slice of trials, one kernel call per (psi, structure family)
        calls, kernel = [], montecarlo.metric_samples_grid

        def recording(cfg, metrics, budgets, ens, out=None):
            calls.append((ens.trials, cfg.psi[0], metrics, tuple(budgets)))
            return kernel(cfg, metrics, budgets, ens, out)

        monkeypatch.setattr(cli.montecarlo, "metric_samples_grid", recording)
        monkeypatch.setattr(montecarlo, "TRIAL_CHUNK", 2)
        cfg = self.small_config(scenarios=cli.SCENARIOS, psis=(0.6, 0.3), trials=5)
        cli.run_sweep(cfg)
        budgets = (0.0, 5.0)
        assert calls == [
            (trials, psi, metrics, budgets)
            for trials in (range(0, 2), range(2, 4), range(4, 5)) for psi in (0.3, 0.6)
            for metrics in (("rate-struct1", "energy-struct1"),
                            ("energy-struct2", "rate-struct2"), ("energy-swipt",))]

    def test_repeated_scenario_repeats_its_rows(self):
        once = cli.run_sweep(self.small_config(scenarios=("average", "swipt"), trials=4))
        twice = cli.run_sweep(self.small_config(
            scenarios=("swipt", "average", "swipt"), trials=4)).split("\n")
        rows = once.split("\n")
        assert twice == rows[:1] + rows[1:3] + rows[3:5] + rows[3:]

    def test_zero_split_worst_case_rate_is_zero(self):
        cfg = self.small_config(scenarios=("worst-case",), psis=(0.0,))
        rows = [line.split(",") for line in cli.run_sweep(cfg).strip().split("\n")[1:]]
        assert [row[3] for row in rows] == ["0", "0"]

    def test_zero_split_link_sends_nothing(self):
        # psi = 0 is defined as: the link water-fills over zero information
        # gains and sends nothing, so with no interferer the energy rows read
        # the antenna noise alone, 0 dB with stderr 0
        cfg = self.small_config(scenarios=("energy-struct1", "swipt"), psis=(0.0,),
                                trials=5)
        rows = [line.split(",") for line in cli.run_sweep(cfg).strip().split("\n")[1:]]
        at_zero = {row[1]: row[3:] for row in rows if row[0] == "0"}
        assert at_zero == {"energy-struct1": ["0", "0"], "swipt": ["0", "0"]}

    def test_first_unconverged_point_in_row_order_fails(self, monkeypatch):
        monkeypatch.setattr(cli.saddle, "solve_saddle_batch",
                            functools.partial(saddle.solve_saddle_batch, max_iter=3))
        cfg = self.small_config(scenarios=("worst-case",), psis=(0.3, 0.6),
                                ratio_grid=(0.0, 2.0, 1.0))
        with pytest.raises(cli.SweepFailure) as err:
            cli.run_sweep(cfg)
        assert (err.value.scenario_tag, err.value.psi, err.value.ratio) == \
            ("worst-case", 0.3, 1.0)

    def test_energy_scenarios_emit_db(self):
        cfg = self.small_config(scenarios=("energy-struct2",), ratio_grid=(0.0,))
        row = cli.run_sweep(cfg).strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(5.483894, abs=0.01)


class TestMainEntry:
    def test_sweep_to_file(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "trials = 5\nratio_grid = [0]\npsi = [0.3]\n")
        out_path = tmp_path / "out.csv"
        code = cli.main(["--config", cfg_path, "--out", str(out_path)])
        assert code == cli.EXIT_OK
        text = out_path.read_text()
        assert text.startswith("ratio,scenario,psi,value,stderr")

    def test_stdout_default(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "trials = 2\nratio_grid = [0]\npsi = [0.9]\n"
                                   "scenarios = [worst-case]\n")
        code = cli.main(["--config", cfg_path])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "worst-case" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "psi = 2.0\n")
        code = cli.main(["--config", cfg_path])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg_path = write(tmp_path, "ratio_grid = [1]\npsi = [0.3]\n"
                                   "scenarios = [average]\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["--config", cfg_path, "--out", str(out_a),
                         "--trials", "8", "--seed", "1"]) == cli.EXIT_OK
        assert cli.main(["--config", cfg_path, "--out", str(out_b),
                         "--trials", "8", "--seed", "2"]) == cli.EXIT_OK
        assert out_a.read_text() != out_b.read_text()

    @pytest.mark.parametrize("flags, field", [
        (["--trials", "0"], "trials"),
        (["--seed", "-1"], "seed"),
    ])
    @pytest.mark.parametrize("scenarios", ["worst-case", "average"])
    def test_invalid_override_exit_code(self, tmp_path, capsys, flags, field,
                                        scenarios):
        cfg_path = write(tmp_path, f"ratio_grid = [1]\npsi = [0.3]\n"
                                   f"scenarios = [{scenarios}]\n")
        assert cli.main(["--config", cfg_path] + flags) == cli.EXIT_CONFIG
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line, product", [
        ("ratio_grid = [1e308]\ntrials = 4\np = 5\n", 3, "ratio 1e+308 times p = 5.0"),
        ("p = 5\nratio_grid = [0, 1e308]\ntrials = 4\n", 2, "ratio 1e+308 times p = 5.0"),
        # the default grid reaches ratio 14
        ("trials = 4\np = 1e308\n", 2, "ratio 14.0 times p = 1e+308"),
    ], ids=["p-later", "ratio-later", "default-grid"])
    @pytest.mark.parametrize("scenarios", ["", "scenarios = [worst-case]\n"],
                             ids=["default-scenarios", "worst-case"])
    def test_overflowing_interferer_budget_exit_code(self, tmp_path, capsys, text, line,
                                                      product, scenarios):
        # an interferer budget ratio * p that overflows is a config error, whichever
        # solver (Monte Carlo or saddle) would have met it first
        assert cli.main(["--config", write(tmp_path, text + scenarios)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'ratio_grid'" in err and f"line {line}" in err
        assert f"{product} is not finite" in err

    @pytest.mark.parametrize("text, field, line, message", [
        # finite budgets, but the saddle's products would overflow
        ("trials = 4\np = 1e300\nratio_grid = [0, 1]\n", "p", 2, "power budget 1e+300 exceeds"),
        ("p = 1e308\nratio_grid = [0]\ntrials = 4\n", "p", 1, "power budget 1e+308 exceeds"),
        ("p = 5\nratio_grid = [0, 1e100]\ntrials = 4\n", "ratio_grid", 2,
         "ratio 1e+100 times p = 5.0 exceeds"),
    ], ids=["p-1e300", "p-1e308-ratio-0", "ratio-times-p"])
    def test_budget_above_bound_exit_code(self, tmp_path, capsys, text, field, line,
                                          message):
        assert cli.main(["--config", write(tmp_path, text)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and f"line {line}" in err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "p = 1e100\nratio_grid = [0, 1]\n",
        "p = 5\nratio_grid = [0, 2e99]\n",
        # rounding in a 1e8 allocation's sum is above 1e-9, the budget check's
        # tolerance at unit budgets
        "p = 1e8\nratio_grid = [0, 1, 14]\n",
    ], ids=["p-at-bound", "ratio-times-p-at-bound", "p-1e8"])
    def test_budget_inside_bound_runs_without_warnings(self, tmp_path, text):
        scenarios = ", ".join(cli.SCENARIOS)
        cfg = cli.parse_config(write(tmp_path, f"{text}trials = 4\nscenarios = [{scenarios}]\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow RuntimeWarning fails the run
            csv = cli.run_sweep(cfg)
        assert csv.count("\n") == 1 + len(cfg.psis) * len(cfg.scenarios) * len(cfg.ratio_grid)
        assert "nan" not in csv and "inf" not in csv

    @pytest.mark.parametrize("text, field, line, message", [
        ("sigma_p2p = [1e200, 1e200, 1e200]\n", "sigma_p2p", 4,
         "singular value 1e+200 outside [0, 10]"),
        ("sigma_bs = [0.8, 0.7, -0.5]\n", "sigma_bs", 4, "singular value -0.5 outside [0, 10]"),
        ("sigma2_w = 1e-300\nsigma2_n = 1e-300\n", "sigma2_w", 4,
         "noise variance 1e-300 outside [0.001, 1e+100]"),
        ("sigma2_n = 1e-300\n", "sigma2_n", 4, "noise variance 1e-300 outside"),
        ("sigma2_n = 2e100\n", "sigma2_n", 4, "noise variance 2e+100 outside"),
    ], ids=["huge-profile", "negative-profile", "tiny-noise", "tiny-sigma2_n", "huge-noise"])
    def test_profile_or_noise_outside_bound_exit_code(self, tmp_path, capsys, text, field,
                                                      line, message):
        # these ran into a LinAlgError traceback or a solve of more than 20 s
        path = write(tmp_path, "psi = 0.3\nratio_grid = [0, 1]\ntrials = 4\n" + text)
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and f"line {line}" in err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("noise", [
        "sigma2_w = 1e100\nsigma2_n = 1e-3\n", "sigma2_w = 1e-3\nsigma2_n = 1e100\n",
        "sigma2_w = 1e-3\nsigma2_n = 1e-3\n",
    ], ids=["loud-antenna", "loud-processing", "quiet"])
    def test_config_at_every_bound_runs_without_warnings(self, tmp_path, capsys, noise):
        # profiles at 0 and 10, both budgets at MAX_BUDGET, the split at 0 and 1
        scenarios = ", ".join(cli.SCENARIOS)
        path = write(tmp_path, "sigma_p2p = [10, 5, 0]\nsigma_bs = [10, 10, 0]\n" + noise
                     + f"p = 1e100\nratio_grid = [0, 1]\npsi = [0, 1]\ntrials = 4\n"
                     f"scenarios = [{scenarios}]\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow RuntimeWarning fails the run
            assert cli.main(["--config", path]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "nan" not in out
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        assert len(rows) == 2 * 2 * len(cli.SCENARIOS)
        # the average rate keeps its order above the worst case
        values = {(tag, psi, ratio): (float(value), float(stderr or 0))
                  for ratio, tag, psi, value, stderr in rows}
        for (tag, psi, ratio), (worst, _) in values.items():
            if tag == "worst-case":
                avg, stderr = values["average", psi, ratio]
                assert worst <= avg + 3 * stderr + 1e-9 * max(1.0, avg)

    def test_empty_split_list_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "psi = []\n")
        assert cli.main(["--config", cfg_path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'psi'" in err and "line 1" in err

    @pytest.mark.parametrize("text, field, lines", [
        ("trials = 5\ntrials = 7\n", "trials", ("line 1", "line 2")),
        ("psi = 0.3\nk = 2\n", "sigma_p2p", ("line 2",)),
        ("k = 4\nsigma_bs = [1, 1, 1, 1]\n", "k", ("line 1",)),
    ])
    def test_repeated_key_or_profile_length_exit_code(self, tmp_path, capsys, text, field,
                                                      lines):
        assert cli.main(["--config", write(tmp_path, text)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"field '{field}'" in err
        assert all(line in err for line in lines)

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "p = nan\nscenarios = [worst-case]\n")
        assert cli.main(["--config", cfg_path]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_zero_split_exits_ok(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "psi = [0.0]\nscenarios = [worst-case]\n")
        assert cli.main(["--config", cfg_path]) == cli.EXIT_OK
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 15 and all(row.split(",")[3] == "0" for row in rows)

    def test_convergence_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.saddle, "solve_saddle_batch",
                            functools.partial(saddle.solve_saddle_batch, max_iter=3))
        cfg_path = write(tmp_path, "psi = [0.3]\nscenarios = [worst-case]\n")
        assert cli.main(["--config", cfg_path]) == cli.EXIT_CONVERGENCE
        assert "ratio=1.0" in capsys.readouterr().err

    def test_verify_reports_and_exit_code(self, capsys):
        # the saddle-curve anchors are unattainable (see repository notes), so
        # the battery reports that one criterion red and exits with code 4
        code = cli.main(["--verify", "--trials", "150"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_ANCHORS
        assert "[PASS]  1." in out
        assert "[FAIL]  2." in out
        assert out.count("[FAIL]") == 1
        assert "overall: FAIL" in out


@pytest.mark.parametrize("seed", SEEDS)
def test_mc_scale_matches_reference_csv(seed):
    # the Monte-Carlo benchmark workload: every structure family at T = 20000
    cfg = cli.parse_config(text="\n".join([
        "scenarios = [average, structure2, swipt, energy-struct1, energy-struct2]",
        "psi = [0.3, 0.6]", "ratio_grid = [1, 7, 14]", "trials = 20000", f"seed = {seed}"]))
    expected = (REFERENCE / f"mc-scale-seed{seed}.csv").read_text(encoding="utf-8")
    assert cli.run_sweep(cfg) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_report_matches_reference(seed):
    # the full --verify report at T = 2000, pinned byte for byte
    out = io.StringIO()
    cli.verify_anchors(2000, seed, out=out)
    expected = (VERIFY_REFERENCES / f"verify-seed{seed}.txt").read_text(encoding="utf-8")
    assert out.getvalue() == expected
