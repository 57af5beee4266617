import io
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptmimo import cli, montecarlo, saddle
from swiptmimo.errors import ConfigError, InvalidInputError
from swiptmimo.scenario import ScenarioConfig

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference" / "sweeps"
VERIFY_REFERENCES = pathlib.Path(__file__).resolve().parent / "reference"
SEEDS = (42, 7)  # the seeds the committed references pin


def write(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = cli.parse_config(write(tmp_path, ""))
        assert cfg.link.K == 3 and cfg.link.M == 3 and cfg.link.N == 5
        assert cfg.link.sigma_p2p == (0.9, 0.8, 0.7)
        assert cfg.link.sigma_bs == (0.8, 0.7, 0.5)
        assert cfg.link.P == 5.0
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
        assert cfg.link.sigma_bs == (0.5, 0.5, 0.5)

    def test_single_split_value(self, tmp_path):
        assert cli.parse_config(write(tmp_path, "psi = 0.6\n")).psis == (0.6,)


class TestRunSweep:
    def small_config(self, trials=25, seed=42, **overrides):
        base = dict(psis=(0.3,), ratio_grid=(0.0, 1.0))
        base.update(overrides)
        return cli.SweepConfig(ScenarioConfig(trials=trials, seed=seed), **base)

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
            ScenarioConfig(seed=seed), scenarios=("worst-case",),
            psis=tuple(i / 10 for i in range(1, 10)),
            ratio_grid=tuple(float(r) for r in range(0, 15, 2)))
        expected = (REFERENCE / f"worst-case-grid-seed{seed}.csv").read_text(encoding="utf-8")
        assert cli.run_sweep(cfg) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_sweep_matches_reference_csv(self, seed):
        expected = (REFERENCE / f"default-sweep-seed{seed}.csv").read_text(encoding="utf-8")
        assert cli.run_sweep(cli.SweepConfig(ScenarioConfig(seed=seed))) == expected

    def test_one_kernel_call_per_family_per_slice(self, monkeypatch):
        # in each slice of trials, one call per receiver-structure kernel holding every psi
        # that asks for one of its metrics; no Monte-Carlo tag, no draw
        calls, draws, sampler = [], [], montecarlo.ensemble_for

        def recording(name, kernel):
            def run(ens, jobs):
                calls.append((ens.trials, name, [(cfg.psi[0], tuple(rows), tuple(budgets))
                                                 for cfg, budgets, rows in jobs]))
                return kernel(ens, jobs)
            return run

        def drawing(cfg, *args):
            draws.append(args)
            return sampler(cfg, *args)

        for name in ("_structure1", "_structure2", "_swipt"):
            monkeypatch.setattr(montecarlo, name, recording(name, getattr(montecarlo, name)))
        monkeypatch.setattr(montecarlo, "ensemble_for", drawing)
        monkeypatch.setattr(montecarlo, "TRIAL_CHUNK", 2)
        cfg = self.small_config(scenarios=cli.SCENARIOS, psis=(0.6, 0.3), trials=5)
        cli.run_sweep(cfg)
        families = {"_structure1": ("rate-struct1", "energy-struct1"),
                    "_structure2": ("rate-struct2", "energy-struct2"),
                    "_swipt": ("energy-swipt",)}
        assert calls == [(trials, name, [(psi, metrics, (0.0, 5.0)) for psi in (0.3, 0.6)])
                         for trials in (range(0, 2), range(2, 4), range(4, 5))
                         for name, metrics in families.items()]
        assert len(draws) == 3
        draws.clear()
        cli.run_sweep(self.small_config(scenarios=("worst-case",), psis=(0.6, 0.3), trials=5))
        assert draws == [] and len(calls) == 9

    def test_sweep_refuses_a_psi_in_two_configs(self):
        # a (psi, metric) or (psi, ratio) key names one point of one config
        cfg = self.small_config(psis=(0.3, 0.6), trials=4)
        with pytest.raises(InvalidInputError, match="psi appears in two sweep configs"):
            cli.sweep([cfg, self.small_config(psis=(0.9, 0.6), trials=4)])

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
        monkeypatch.setattr(saddle, "ROOT_STEPS", 3)  # ratio 1 takes 7 root steps
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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rank_deficient_interferer_at_a_huge_budget(self, tmp_path, seed):
        # (pb / N) R + B is singular in floating point at pb = 1e20 for this BS profile
        cfg_path = write(tmp_path, "sigma_bs = [0.8, 0.5, 0.0]\np = 1e20\n"
                                   "scenarios = [average]\nratio_grid = [0, 1]\n")
        out_path = tmp_path / "out.csv"
        code = cli.main(["--config", cfg_path, "--out", str(out_path), "--seed", str(seed)])
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert len(rows) == 6
        assert all(np.isfinite(float(value)) for row in rows for value in row[3:])

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
        (["--trials", str(2 ** 32 + 1)], "trials"),
    ])
    @pytest.mark.parametrize("scenarios", ["worst-case", "average"])
    def test_invalid_override_exit_code(self, tmp_path, capsys, flags, field,
                                        scenarios):
        cfg_path = write(tmp_path, f"ratio_grid = [1]\npsi = [0.3]\n"
                                   f"scenarios = [{scenarios}]\n")
        assert cli.main(["--config", cfg_path] + flags) == cli.EXIT_CONFIG
        assert f"field '{field}'" in capsys.readouterr().err

    def test_trials_above_bound_exit_code(self, tmp_path, capsys):
        assert cli.main(["--config", write(tmp_path, "k = 3\ntrials = 4294967297\n")]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "trials = 4294967297 exceeds 2**32 (field 'trials', line 2)" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [[], ["--verify"]], ids=["sweep", "verify"])
    def test_unallocatable_sample_rows_exit_code(self, tmp_path, capsys, monkeypatch, flags):
        # a real oversized allocation fails or not by the host's overcommit policy,
        # so the allocation of rows of 10**9 trials is made to fail instead
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if np.ndim(shape) and shape[-1] == 10 ** 9:
                raise MemoryError("cannot allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        path = write(tmp_path, "trials = 1000000000\n")
        assert cli.main(["--config", path] + flags) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "field 'trials'" in err and "1000000000 trials" in err

    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: sweeps.append(cfg) or "")
        path = write(tmp_path, "trials = 2\nratio_grid = [0]\npsi = [0.9]\n")
        target = tmp_path / "missing" / "x.csv"
        assert cli.main(["--config", path, "--out", str(target)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "cannot write output" in err
        assert not target.exists()
        assert sweeps == []  # the path is checked before any sweep work

    def test_verify_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert cli.main(["--verify", "--trials", "20", "--out", str(target)]) \
            == cli.EXIT_ANCHORS  # criterion 2 is red
        out, err = capsys.readouterr()
        assert out == "" and err == ""
        expected = io.StringIO()
        cli.verify_anchors(20, 42, out=expected)
        assert target.read_text(encoding="utf-8") == expected.getvalue()
        assert "[FAIL]  2." in expected.getvalue() and expected.getvalue().count("[FAIL]") == 1

    def test_verify_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch):
        from swiptmimo import acceptance

        batteries = []
        monkeypatch.setattr(acceptance, "run_all", lambda **kw: batteries.append(kw) or [])
        target = tmp_path / "missing" / "report.txt"
        assert cli.main(["--verify", "--trials", "20", "--out", str(target)]) \
            == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "cannot write output" in err
        assert batteries == []  # the path is checked before the battery runs
        assert not target.exists()

    def test_failed_sweep_keeps_existing_out(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "psi = [0.3]\nratio_grid = [0, 1]\nscenarios = [worst-case]\n")
        target = tmp_path / "x.csv"
        target.write_bytes(b"earlier results\n")
        monkeypatch.setattr(saddle, "ROOT_STEPS", 3)  # ratio 1 takes 7 root steps
        assert cli.main(["--config", path, "--out", str(target)]) == cli.EXIT_CONVERGENCE
        assert target.read_bytes() == b"earlier results\n"
        monkeypatch.undo()  # a sweep that succeeds replaces the file
        assert cli.main(["--config", path, "--out", str(target)]) == cli.EXIT_OK
        assert target.read_text().startswith("ratio,scenario,psi,value,stderr\n0,worst-case")

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
        monkeypatch.setattr(saddle, "ROOT_STEPS", 3)  # ratio 1 takes 7 root steps
        cfg_path = write(tmp_path, "psi = [0.3]\nscenarios = [worst-case]\n")
        assert cli.main(["--config", cfg_path]) == cli.EXIT_CONVERGENCE
        assert "ratio=1.0" in capsys.readouterr().err

    def test_verify_convergence_failure_exit_code(self, capsys, monkeypatch):
        # the battery's saddle points are a sweep's, so they fail the same way
        monkeypatch.setattr(saddle, "ROOT_STEPS", 3)  # ratio 1 takes 7 root steps
        assert cli.main(["--verify", "--trials", "20"]) == cli.EXIT_CONVERGENCE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: convergence failure in scenario 'worst-case' "
                              "(psi=0.3, ratio=1.0)")

    def test_former_gap_failure_link_exits_ok(self, tmp_path, capsys):
        # damped best responses stalled on this link with a duality gap of 1.06e-3;
        # a refined simplex search over the interferer's split gives 0.01780202562075
        path = write(tmp_path, "sigma_p2p = [0.7, 0.5, 0.2]\nsigma_bs = [2.9, 2.0, 1.9]\n"
                               "sigma2_w = 1\nsigma2_n = 0.01\np = 1\npsi = [0.6]\n"
                               "ratio_grid = [10]\nscenarios = [worst-case]\n")
        assert cli.main(["--config", path]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[1] == "10,worst-case,0.6,0.0178020256,"
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(0.01780202562075,
                                                                         abs=1e-9)

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


SCHEMA = settings(max_examples=200, deadline=None, derandomize=True, database=None)
LINK_KEYS = [key for key in cli.FIELDS if key not in cli.SWEEP_KEYS]


def render(value):
    """A config value as `key = value` text writes it."""
    if isinstance(value, tuple):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


@st.composite
def sweep_configs(draw):
    """Any valid SweepConfig whose link keeps the default split (the grid sets it)."""
    k = draw(st.integers(1, 3))
    m, n = draw(st.integers(k, 5)), draw(st.integers(k, 6))
    profile = st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k).map(
        lambda values: tuple(sorted(values, reverse=True)))
    noise = st.floats(1e-3, 1e100)
    link = ScenarioConfig(
        K=k, M=m, N=n, sigma_p2p=draw(profile), sigma_bs=draw(profile),
        sigma2_w=draw(noise), sigma2_n=draw(noise), P=draw(st.floats(0.0, 1e50)),
        trials=draw(st.integers(1, 10 ** 6)), seed=draw(st.integers(0, 2 ** 64)))
    grid = st.lists(st.floats(0.0, 1e50), min_size=1, max_size=5, unique=True).map(tuple)
    return cli.SweepConfig(
        link, psis=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4,
                                       unique=True))),
        ratio_grid=draw(grid),
        scenarios=tuple(draw(st.lists(st.sampled_from(cli.SCENARIOS), min_size=1,
                                      unique=True))))


@st.composite
def link_entries(draw):
    """A link key and a value of any sign, size or kind for it."""
    key = draw(st.sampled_from(LINK_KEYS))
    number = st.one_of(st.integers(-3, 12), st.floats(), st.sampled_from(
        [0, 1, 3, 0.0, 1e-3, 9e-4, 10.0, 10.5, 1e50, 1e100, 2e100, 1e-300, 1e200]))
    if cli.FIELDS[key][1] == "list":
        descending = st.lists(st.floats(0.0, 12.0), min_size=3, max_size=3).map(
            lambda values: sorted(values, reverse=True))
        return key, tuple(draw(st.one_of(st.lists(number, max_size=4), descending)))
    return key, draw(number)


class TestOneSchema:
    """parse_config reads text into the classes that check it, and nothing else."""

    @SCHEMA
    @given(sweep_configs())
    def test_rendered_config_parses_back_equal(self, cfg):
        text = "\n".join(
            f"{key} = {render(getattr(cfg if key in cli.SWEEP_KEYS else cfg.link, attr))}"
            for key, (attr, _) in cli.FIELDS.items())
        assert cli.parse_config(text=text) == cfg

    @settings(SCHEMA, max_examples=600)
    @given(link_entries())
    def test_link_key_rejected_by_parser_iff_by_scenario_config(self, entry):
        # ratio_grid = [1] makes the largest interferer budget p itself
        key, value = entry
        try:
            cli.parse_config(text=f"{key} = {render(value)}\nratio_grid = [1]\n")
            parsed = True
        except ConfigError:
            parsed = False
        try:
            ScenarioConfig(**{cli.FIELDS[key][0]: value})
            built = True
        except InvalidInputError:
            built = False
        assert parsed == built, (key, value)
