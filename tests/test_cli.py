import functools
import pathlib

import pytest

from swiptmimo import cli, montecarlo, saddle
from swiptmimo.errors import ConfigError

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference"


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
        montecarlo._ensemble.cache_clear()
        montecarlo._metric_samples_cached.cache_clear()
        assert cli.run_sweep(cfg) == first

    def test_worst_case_grid_matches_reference_csv(self):
        cfg = cli.SweepConfig(
            scenarios=("worst-case",), psis=tuple(i / 10 for i in range(1, 10)),
            ratio_grid=tuple(float(r) for r in range(0, 15, 2)), seed=42)
        expected = (REFERENCE / "worst-case-grid-seed42.csv").read_text(encoding="utf-8")
        assert cli.run_sweep(cfg) == expected

    def test_zero_split_worst_case_rate_is_zero(self):
        cfg = self.small_config(scenarios=("worst-case",), psis=(0.0,))
        rows = [line.split(",") for line in cli.run_sweep(cfg).strip().split("\n")[1:]]
        assert [row[3] for row in rows] == ["0", "0"]

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
