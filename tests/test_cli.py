import csv
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import actsense
from actsense import ConfidenceParams, ModelConfig, data_io, kfold_split, simulator
from actsense.cli import main
from actsense.errors import NumericalError


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    rc = main(["generate", "--homes", "8", "--appliances", "3", "--months", "4",
               "--rank", "2", "--noise", "0.05", "--seed", "7",
               "-o", str(path)])
    assert rc == 0
    return path


def _rows(path):
    """The rows of the CSV at ``path`` as dicts, with the file closed."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _sim_args(data, outdir, strategy="random", extra=()):
    return ["simulate", "--data", str(data), "--strategy", strategy,
            "--L", "1", "--T", "3", "--folds", "2", "--seed", "1",
            "--lambda", "100", "--max-sweeps", "30",
            "-o", str(outdir), *extra]


class TestGenerate:
    def test_writes_csv_and_manifest(self, dataset, tmp_path):
        text = dataset.read_text().strip().splitlines()
        assert text[0] == "home_id,appliance,month,kwh"
        assert len(text) == 1 + 8 * 3 * 4
        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        assert manifest["home_count"] == 8
        assert manifest["appliances"][0] == "aggregate"

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate", "--homes", "4", "--appliances", "2", "--months", "3",
                "--noise", "0", "--seed", "3"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_months_is_usage_error(self, tmp_path):
        rc = main(["generate", "--homes", "4", "--appliances", "2",
                   "--months", "0", "-o", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("argv", [["--noise", "-1"], ["--season", "from_file"]],
                             ids=["negative-noise", "from-file-without-file"])
    def test_malformed_input_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        rc = main(["generate", "--homes", "4", "--appliances", "2", "--months", "3",
                   *argv, "-o", str(out)])
        assert rc == 1 and not out.exists()


class TestSimulate:
    def test_writes_one_report_per_fold(self, dataset, tmp_path):
        outdir = tmp_path / "out"
        assert main(_sim_args(dataset, outdir)) == 0
        files = sorted(outdir.glob("*.json"))
        assert [f.name for f in files] == ["report_random_fold0.json",
                                           "report_random_fold1.json"]
        payload = json.loads(files[0].read_text())
        assert payload["config"]["strategy"] == "random"
        assert len(payload["mean_rmse"]) == 3

    def test_unknown_strategy_is_usage_error(self, dataset, tmp_path):
        rc = main(_sim_args(dataset, tmp_path / "o", strategy="vbv"))
        assert rc == 1

    def test_zero_budget_gives_empty_selections(self, dataset, tmp_path):
        outdir = tmp_path / "out0"
        rc = main(["simulate", "--data", str(dataset), "--strategy", "random",
                   "--L", "0", "--T", "2", "--folds", "2", "--seed", "1",
                   "--lambda", "100", "-o", str(outdir)])
        assert rc == 0
        payload = json.loads(next(iter(sorted(outdir.glob("*.json")))).read_text())
        assert all(s["pairs"] == [] for s in payload["selections"])

    def test_fit_failure_exits_2(self, dataset, tmp_path, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr("actsense.als_engine.fit", broken_fit)
        rc = main(_sim_args(dataset, tmp_path / "o"))
        assert rc == 2

    def test_env_seed_used_when_flag_absent(self, dataset, tmp_path, monkeypatch):
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        monkeypatch.setenv("ACTSENSE_SEED", "9")
        argv = ["simulate", "--data", str(dataset), "--strategy", "random",
                "--L", "1", "--T", "2", "--folds", "2", "--fold", "0",
                "--lambda", "100", "-o"]
        assert main(argv + [str(out_env)]) == 0
        monkeypatch.delenv("ACTSENSE_SEED")
        assert main(argv[:-1] + ["--seed", "9", "-o", str(out_flag)]) == 0
        env_bytes = (out_env / "report_random_fold0.json").read_bytes()
        flag_bytes = (out_flag / "report_random_fold0.json").read_bytes()
        assert env_bytes == flag_bytes

    def test_config_file_precedence(self, dataset, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lambda=100\nrank=1\nmax_sweeps=30\n", encoding="utf-8")
        outdir = tmp_path / "conf_out"
        rc = main(["simulate", "--data", str(dataset), "--strategy", "random",
                   "--L", "1", "--T", "2", "--folds", "2", "--fold", "0",
                   "--seed", "1", "--config", str(conf), "--rank", "2",
                   "-o", str(outdir)])
        assert rc == 0
        payload = json.loads((outdir / "report_random_fold0.json").read_text())
        assert payload["config"]["model"]["rank"] == 2      # flag wins
        assert payload["config"]["model"]["lambda1"] == 100.0  # file beats default

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("wavelength=9\n", encoding="utf-8")
        rc = main(["simulate", "--data", str(dataset), "--strategy", "random",
                   "--config", str(conf), "-o", str(tmp_path / "o")])
        assert rc == 1

    def test_save_and_reuse_season_prior(self, dataset, tmp_path):
        season = tmp_path / "season.csv"
        rc = main(_sim_args(dataset, tmp_path / "s1",
                            extra=["--fold", "0", "--save-season", str(season)]))
        assert rc == 0
        S = np.loadtxt(season, delimiter=",", ndmin=2)
        assert S.shape[1] == 2
        rc = main(_sim_args(dataset, tmp_path / "s2",
                            extra=["--fold", "0", "--season-prior", str(season)]))
        assert rc == 0


class TestSaveSeason:
    @pytest.fixture
    def run_calls(self, monkeypatch):
        """Arguments of every simulator.run_with_state call in this process."""
        calls = []
        real = simulator.run_with_state

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "run_with_state", counting)
        return calls

    def test_one_run_per_fold_and_the_season_of_fold_0(self, dataset, tmp_path,
                                                       run_calls):
        season = tmp_path / "season.csv"
        rc = main(_sim_args(dataset, tmp_path / "o", strategy="actsense",
                            extra=["--save-season", str(season)]))
        assert rc == 0 and len(run_calls) == 2
        # oracle: fold 0 run once more on its own, as --save-season used to
        args, kwargs = run_calls[0]
        assert kwargs.pop("extra_config")["fold"] == 0
        _, state = simulator.run_with_state(*args, **kwargs)
        want = tmp_path / "want.csv"
        np.savetxt(want, state.factors.S, delimiter=",")
        assert season.read_bytes() == want.read_bytes()

    def test_parallel_folds_save_the_same_season(self, dataset, tmp_path, run_calls):
        sequential, parallel = tmp_path / "seq.csv", tmp_path / "par.csv"
        rc = main(_sim_args(dataset, tmp_path / "o1", strategy="actsense",
                            extra=["--save-season", str(sequential)]))
        assert rc == 0 and len(run_calls) == 2
        rc = main(_sim_args(dataset, tmp_path / "o2", strategy="actsense",
                            extra=["--save-season", str(parallel), "--jobs", "2"]))
        # the folds ran in the workers, and this process ran none again
        assert rc == 0 and len(run_calls) == 2
        assert parallel.read_bytes() == sequential.read_bytes()


class TestLogLevel:
    def _records(self, caplog):
        return [r for r in caplog.records if r.name.startswith("actsense")]

    def test_default_hides_info_lines(self, dataset, tmp_path, caplog):
        rc = main(_sim_args(dataset, tmp_path / "o",
                            extra=["--fold", "0", "--max-sweeps", "1"]))
        assert rc == 0 and self._records(caplog) == []

    def test_info_shows_one_cap_line_per_fit(self, dataset, tmp_path, caplog):
        package_log = logging.getLogger("actsense")
        before = package_log.level
        rc = main(["--log-level", "INFO",
                   *_sim_args(dataset, tmp_path / "o",
                              extra=["--fold", "0", "--max-sweeps", "1"])])
        assert rc == 0
        lines = [r.getMessage() for r in self._records(caplog)
                 if r.name == "actsense.als_engine"]
        assert len(lines) == 3  # one fit per month, T = 3
        assert all("max_sweeps=1 " in line for line in lines)
        assert package_log.level == before

    def test_spawned_workers_log_at_the_level_given(self, dataset, tmp_path):
        # spawn is the default start method on macOS; a spawned worker does
        # not inherit the parent's logging set-up
        script = ("import multiprocessing, sys\n"
                  "from actsense.cli import main\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(actsense.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["--log-level", "INFO", "sweep", "--data", str(dataset),
                "--strategies", "random", "--L", "1", "--T", "2", "--folds", "2",
                "--lambda", "100", "--max-sweeps", "1", "--jobs", "2",
                "-o", str(tmp_path / "sweep.csv")]
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = [line for line in done.stderr.splitlines() if "max_sweeps=1 " in line]
        assert len(lines) == 4  # 2 folds x 2 months, one fit each
        assert all(line.startswith("INFO ") for line in lines)

    def test_unknown_level_is_usage_error(self, dataset, tmp_path):
        assert main(["--log-level", "LOUD", *_sim_args(dataset, tmp_path / "o")]) == 1


class TestCompare:
    def _run_pair(self, dataset, tmp_path):
        out_r = tmp_path / "rand"
        out_a = tmp_path / "act"
        assert main(_sim_args(dataset, out_r, strategy="random")) == 0
        assert main(_sim_args(dataset, out_a, strategy="actsense")) == 0
        return out_r, out_a

    def test_self_comparison_is_zero(self, dataset, tmp_path, capsys):
        out_r, _ = self._run_pair(dataset, tmp_path)
        table = tmp_path / "cmp.csv"
        rc = main(["compare", str(out_r), "--baseline", "random",
                   "-o", str(table)])
        assert rc == 0
        rows = _rows(table)
        assert all(float(r["improvement_pct"]) == 0.0 for r in rows)

    def test_two_strategies_table_and_summary(self, dataset, tmp_path):
        out_r, out_a = self._run_pair(dataset, tmp_path)
        table = tmp_path / "cmp.csv"
        summary = tmp_path / "summary.csv"
        rc = main(["compare", str(out_r), str(out_a), "--baseline", "random",
                   "-o", str(table), "--summary-out", str(summary)])
        assert rc == 0
        rows = _rows(summary)
        assert sorted(r["strategy"] for r in rows) == ["actsense", "random"]

    def test_mixed_seeds_rejected(self, dataset, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(_sim_args(dataset, out1)) == 0
        argv = _sim_args(dataset, out2, strategy="actsense")
        argv[argv.index("--seed") + 1] = "2"
        assert main(argv) == 0
        rc = main(["compare", str(out1), str(out2)])
        assert rc == 2

    def test_missing_baseline_is_usage_error(self, dataset, tmp_path):
        out_a = tmp_path / "act"
        assert main(_sim_args(dataset, out_a, strategy="actsense")) == 0
        rc = main(["compare", str(out_a), "--baseline", "random"])
        assert rc == 1

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"config": [], "selections": [], "rmse": {}, "mean_rmse": [1.0],
         "year_rmse": 1.0, "omega_sizes": [1]},
        {"config": {}, "selections": [], "rmse": {}, "mean_rmse": [1.0],
         "year_rmse": 1.0, "omega_sizes": []},
        {"config": {"strategy": "random"}, "selections": [], "rmse": {},
         "mean_rmse": "abc", "year_rmse": 1.0, "omega_sizes": []},
    ], ids=["list", "config-list", "no-strategy", "mean-rmse-text"])
    def test_report_of_the_wrong_shape_is_a_format_error(self, tmp_path, capsys,
                                                         payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["compare", str(bad), "--baseline", "random"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_report_with_the_older_confidence_echo_still_compares(self, dataset,
                                                                  tmp_path):
        out_r, out_a = self._run_pair(dataset, tmp_path)
        report_a = next(out_a.glob("*.json"))
        payload = json.loads(report_a.read_text(encoding="utf-8"))
        assert set(payload["config"]["confidence"]) == {"alpha_home", "alpha_app"}
        # the echo of the bound-alpha options that reports once carried
        payload["config"]["confidence"].update(
            alpha_mode="fixed", delta=0.05, q_rates=[0.5, 0.5, 0.5],
            epsilons=[0.01, 0.01, 0.01])
        report_a.write_text(json.dumps(payload), encoding="utf-8")
        assert len(data_io.read_report(report_a).config_echo["confidence"]) == 6
        summary = tmp_path / "summary.csv"
        assert main(["compare", str(out_r), str(out_a), "--baseline", "random",
                     "--summary-out", str(summary)]) == 0
        assert sorted(r["strategy"] for r in _rows(summary)) == ["actsense", "random"]

    def test_ablation_modes_form_distinct_rows(self, dataset, tmp_path):
        outs = []
        for mode in ("current", "full"):
            out = tmp_path / f"act_{mode}"
            rc = main(_sim_args(dataset, out, strategy="actsense",
                                extra=["--mode", mode]))
            assert rc == 0
            outs.append(out)
        out_r = tmp_path / "rand"
        assert main(_sim_args(dataset, out_r)) == 0
        summary = tmp_path / "summary.csv"
        rc = main(["compare", *map(str, outs), str(out_r),
                   "--summary-out", str(summary)])
        assert rc == 0
        rows = _rows(summary)
        assert sorted(r["strategy"] for r in rows) == [
            "actsense", "actsense-current", "random"]


class TestSweep:
    def test_budget_rows(self, dataset, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(dataset), "--strategies", "random",
                   "--L", "1,2", "--T", "2", "--folds", "2", "--seeds", "1,2",
                   "--lambda", "100", "--max-sweeps", "30", "-o", str(out)])
        assert rc == 0
        rows = _rows(out)
        assert len(rows) == 2 * 2 * 2  # L x folds x seeds
        assert {r["L"] for r in rows} == {"1", "2"}

    def test_range_syntax(self, dataset, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(dataset), "--strategies", "random",
                   "--L", "1..3", "--T", "1", "--folds", "2", "--lambda", "100",
                   "-o", str(out)])
        assert rc == 0
        rows = _rows(out)
        assert {r["L"] for r in rows} == {"1", "2", "3"}

    @pytest.mark.parametrize("config, flags, want", [
        ("", [], {"actsense", "random"}),
        ("strategy=qbc\n", [], {"qbc"}),
        ("strategy=qbc\n", ["--strategies", "random"], {"random"}),
    ], ids=["default", "config-file", "flag-over-config"])
    def test_strategy_precedence(self, dataset, tmp_path, config, flags, want):
        conf = tmp_path / "run.conf"
        conf.write_text(config, encoding="utf-8")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(dataset), "--config", str(conf), *flags,
                   "--L", "1", "--T", "2", "--folds", "2", "--lambda", "100",
                   "--max-sweeps", "5", "-o", str(out)])
        assert rc == 0
        assert {row["strategy"] for row in _rows(out)} == want

    def test_parallel_jobs_match_sequential(self, dataset, tmp_path):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        argv = ["sweep", "--data", str(dataset), "--strategies", "random",
                "--L", "1,2", "--T", "2", "--folds", "2", "--lambda", "100",
                "--max-sweeps", "30", "--seed", "1"]
        assert main(argv + ["-o", str(seq)]) == 0
        assert main(argv + ["--jobs", "2", "-o", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()


class TestGridsearch:
    def test_single_point_winner_feeds_simulate(self, dataset, tmp_path):
        table = tmp_path / "grid.csv"
        best = tmp_path / "best.conf"
        rc = main(["gridsearch", "--data", str(dataset), "--strategy", "random",
                   "--ranks", "2", "--lambdas", "100", "--sigmas", "2",
                   "--L", "1", "--T", "2", "--folds", "2", "--seed", "1",
                   "--max-sweeps", "30",
                   "-o", str(table), "--best-out", str(best)])
        assert rc == 0
        rows = _rows(table)
        assert len(rows) == 2  # one per fold
        assert best.read_text() == "strategy=random\nrank=2\nlambda=100.0\nsigma=2\nL=1\n"
        outdir = tmp_path / "after"
        rc = main(["simulate", "--data", str(dataset), "--config", str(best),
                   "--T", "2", "--folds", "2", "--fold", "0", "--seed", "1",
                   "-o", str(outdir)])
        assert rc == 0

    GRID = ["--strategy", "random", "--sigmas", "2", "--L", "1", "--T", "3",
            "--folds", "2", "--seed", "1", "--max-sweeps", "30"]

    def _search(self, dataset, tmp_path, *axes):
        """grid.csv's rows and best.conf's text of a search over ``axes``."""
        table, best = tmp_path / "grid.csv", tmp_path / "best.conf"
        rc = main(["gridsearch", "--data", str(dataset), *self.GRID, *axes,
                   "-o", str(table), "--best-out", str(best)])
        assert rc == 0
        return _rows(table), best.read_text()

    def test_lowest_fold_mean_validation_rmse_wins(self, dataset, tmp_path, capsys):
        rows, best = self._search(dataset, tmp_path, "--ranks", "1,2", "--lambdas", "50")
        means = {rank: np.mean([float(r["year_rmse_val"]) for r in rows
                                if r["rank"] == rank]) for rank in ("1", "2")}
        winner = min(means, key=means.get)
        assert f"rank={winner}\n" in best
        assert f"(validation year RMSE {means[winner]:.4f})" in capsys.readouterr().out

    def test_winner_does_not_depend_on_grid_order(self, dataset, tmp_path):
        _, forward = self._search(dataset, tmp_path, "--ranks", "1,2",
                                  "--lambdas", "50,200")
        _, reverse = self._search(dataset, tmp_path, "--ranks", "2,1",
                                  "--lambdas", "200,50")
        assert forward == reverse

    def test_first_point_wins_a_tie(self, dataset, tmp_path, monkeypatch):
        def same_scores(*args, **kwargs):
            return SimpleNamespace(val_year_rmse=1.0, year_rmse=2.0), None

        monkeypatch.setattr(simulator, "run_with_state", same_scores)
        _, best = self._search(dataset, tmp_path, "--ranks", "2,1", "--lambdas", "50")
        assert "rank=2\n" in best

    def test_failed_points_are_recorded_not_fatal(self, dataset, tmp_path, monkeypatch,
                                                   caplog):
        real_run = simulator.run_with_state

        def flaky_run(tensor, split, strategy, model_config, **kwargs):
            if model_config.rank == 1:
                raise NumericalError("synthetic failure")
            return real_run(tensor, split, strategy, model_config=model_config, **kwargs)

        monkeypatch.setattr(simulator, "run_with_state", flaky_run)
        rows, best = self._search(dataset, tmp_path, "--ranks", "1,2", "--lambdas", "50")
        assert "rank=2\n" in best
        failed = [r for r in rows if r["error"]]
        assert [(r["rank"], r["error"], r["year_rmse_val"]) for r in failed] == [
            ("1", "synthetic failure", "nan")] * 2
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("actsense.cli", "WARNING", f"grid point 0 fold {f} failed: synthetic failure")
            for f in (0, 1)]

    def test_unexpected_errors_propagate(self, dataset, tmp_path, monkeypatch):
        def broken_run(*args, **kwargs):
            raise TypeError("a bug, not a failed grid point")

        monkeypatch.setattr(simulator, "run_with_state", broken_run)
        with pytest.raises(TypeError, match="a bug"):
            self._search(dataset, tmp_path, "--ranks", "2", "--lambdas", "50")

    def test_multi_point(self, dataset, tmp_path):
        table = tmp_path / "grid.csv"
        rc = main(["gridsearch", "--data", str(dataset), "--strategy", "random",
                   "--ranks", "1,2", "--lambdas", "100", "--sigmas", "2",
                   "--L", "1", "--T", "2", "--folds", "2", "--seed", "1",
                   "--max-sweeps", "30", "-o", str(table)])
        assert rc == 0
        rows = _rows(table)
        assert len(rows) == 4  # 2 points x 2 folds
        assert list(rows[0]) == ["strategy", "rank", "lambda", "sigma", "L",
                                 "fold", "year_rmse_val", "year_rmse_test", "error"]
        assert all(row["error"] == "" for row in rows)

    def test_every_point_failing_shows_the_errors(self, dataset, tmp_path,
                                                   monkeypatch, capsys):
        def failing_run(*args, **kwargs):
            raise NumericalError("precision matrix condition 1e+13 exceeds 1e+12")

        monkeypatch.setattr(simulator, "run_with_state", failing_run)
        table = tmp_path / "grid.csv"
        rc = main(["gridsearch", "--data", str(dataset), "--strategy", "random",
                   "--ranks", "1,2", "--lambdas", "100", "--sigmas", "2",
                   "--L", "1", "--T", "2", "--folds", "2", "--seed", "1",
                   "-o", str(table)])
        assert rc == 2
        assert "see the table for errors" in capsys.readouterr().err
        rows = _rows(table)
        assert len(rows) == 4
        assert all(row["error"] == "precision matrix condition 1e+13 exceeds 1e+12"
                   for row in rows)

    def test_horizon_reaches_the_simulations(self, dataset, tmp_path, monkeypatch):
        from actsense import simulator
        real_run = simulator.run_with_state
        seen = []

        def recording_run(*args, **kwargs):
            seen.append(kwargs["kernel_config_kwargs"].get("horizon"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr("actsense.simulator.run_with_state", recording_run)
        argv = ["gridsearch", "--data", str(dataset), "--strategy", "actsense",
                "--ranks", "2", "--lambdas", "100", "--sigmas", "2",
                "--L", "1", "--T", "2", "--folds", "2", "--seed", "1",
                "--max-sweeps", "30"]
        for horizon in ("4", "12"):
            rc = main(argv + ["--horizon", horizon, "-o", str(tmp_path / "g.csv")])
            assert rc == 0
        assert seen == [4, 4, 12, 12]  # two folds per horizon

    def test_no_validation_homes_is_usage_error(self, dataset, tmp_path, monkeypatch):
        ran = []

        def never_run(*args, **kwargs):
            ran.append(1)
            return None, None

        monkeypatch.setattr(simulator, "run_with_state", never_run)
        conf = tmp_path / "run.conf"
        conf.write_text("val_fraction=0\n", encoding="utf-8")
        table = tmp_path / "grid.csv"
        rc = main(["gridsearch", "--data", str(dataset), "--config", str(conf),
                   "--ranks", "2", "--lambdas", "100", "--sigmas", "2",
                   "--T", "2", "--folds", "2", "-o", str(table)])
        assert rc == 1 and ran == [] and not table.exists()

    def test_parallel_gridsearch_matches_sequential(self, dataset, tmp_path):
        seq, par = tmp_path / "gseq.csv", tmp_path / "gpar.csv"
        argv = ["gridsearch", "--data", str(dataset), "--strategy", "random",
                "--ranks", "1,2", "--lambdas", "100", "--sigmas", "2",
                "--L", "1", "--T", "2", "--folds", "2", "--seed", "1",
                "--max-sweeps", "30"]
        assert main(argv + ["-o", str(seq)]) == 0
        assert main(argv + ["--jobs", "2", "-o", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()


class TestRowsAreSimulateReports:
    """A sweep or gridsearch row is the fold report that simulate writes
    with the same options: every run's model seed is its run seed."""

    OPTIONS = ["--T", "3", "--folds", "2", "--lambda", "100", "--max-sweeps", "30"]

    def _simulate(self, dataset, outdir, *argv):
        """year RMSE and validation year RMSE of each fold's report."""
        assert main(["simulate", "--data", str(dataset), *self.OPTIONS, *argv,
                     "-o", str(outdir)]) == 0
        reports = [json.loads(p.read_text()) for p in sorted(outdir.glob("*.json"))]
        return [(r["year_rmse"], r["val_year_rmse"]) for r in reports]

    def test_sweep_rows(self, dataset, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--data", str(dataset), *self.OPTIONS, "--strategies",
                     "random", "--L", "2", "--seeds", "1,2", "-o", str(out)]) == 0
        rows = _rows(out)
        for seed in (1, 2):
            want = self._simulate(dataset, tmp_path / f"sim{seed}", "--strategy", "random",
                                  "--L", "2", "--seed", str(seed))
            assert [float(r["year_rmse"]) for r in rows
                    if r["seed"] == str(seed)] == [year for year, _ in want]

    def test_gridsearch_rows(self, dataset, tmp_path):
        table, best = tmp_path / "grid.csv", tmp_path / "best.conf"
        assert main(["gridsearch", "--data", str(dataset), *self.OPTIONS, "--seed", "1",
                     "--strategy", "random", "--ranks", "2", "--lambdas", "100",
                     "--sigmas", "2", "--L", "2", "-o", str(table),
                     "--best-out", str(best)]) == 0
        want = self._simulate(dataset, tmp_path / "sim", "--config", str(best),
                              "--seed", "1")
        assert [(float(r["year_rmse_test"]), float(r["year_rmse_val"]))
                for r in _rows(table)] == want


class TestQbcCli:
    def test_committee_flag(self, dataset, tmp_path):
        outdir = tmp_path / "qbc"
        rc = main(["simulate", "--data", str(dataset), "--strategy", "qbc",
                   "--committee", "1,2", "--L", "1", "--T", "2", "--folds", "2",
                   "--fold", "0", "--seed", "1", "--lambda", "100",
                   "--max-sweeps", "20", "-o", str(outdir)])
        assert rc == 0
        payload = json.loads((outdir / "report_qbc_fold0.json").read_text())
        assert payload["config"]["committee_ranks"] == [1, 2]


@pytest.mark.parametrize("config, argv", [
    ("sequential=ture", ["simulate"]),
    ("strategy=vbv", ["simulate"]),
    ("committee=1,x", ["simulate"]),
    ("", ["sweep", "--L", "1,x"]),
], ids=["config-sequential", "config-strategy", "config-committee", "sweep-L"])
def test_malformed_values_are_usage_errors(dataset, tmp_path, config, argv):
    conf = tmp_path / "run.conf"
    conf.write_text(config + "\n", encoding="utf-8")
    rc = main([*argv, "--data", str(dataset), "--config", str(conf), "--T", "2",
               "--folds", "2", "--lambda", "100", "--max-sweeps", "5",
               "-o", str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "random", "--rank", "0"],
    ["simulate", "--strategy", "random", "--max-sweeps", "0"],
    ["simulate", "--strategy", "random", "--tol", "0"],
    ["simulate", "--strategy", "random", "--lambda", "-1"],
    ["simulate", "--strategy", "qbc", "--committee", "2"],
    ["simulate", "--strategy", "qbc", "--committee", "0,2"],
    ["sweep", "--strategies", "random,qbc", "--committee", "2", "--L", "1"],
    ["gridsearch", "--strategy", "qbc", "--committee", "2", "--ranks", "2",
     "--lambdas", "100", "--sigmas", "2", "--L", "1"],
], ids=["rank-0", "max-sweeps-0", "tol-0", "negative-lambda", "committee-one-rank",
        "committee-rank-0", "sweep-committee-one-rank", "gridsearch-committee-one-rank"])
def test_out_of_range_values_are_usage_errors(dataset, tmp_path, argv, monkeypatch):
    loaded = []
    monkeypatch.setattr(data_io, "load_csv", lambda *args, **kwargs: loaded.append(1))
    rc = main([*argv, "--data", str(dataset), "--T", "2", "--folds", "2",
               "-o", str(tmp_path / "out")])
    assert rc == 1
    assert not loaded  # rejected before any data is read


@pytest.mark.parametrize("argv", [
    ["gridsearch", "--ranks", "0"],
    ["gridsearch", "--lambdas", "-5"],
    ["gridsearch", "--sigmas", "0"],
    ["gridsearch", "--L", "-1"],
    ["sweep", "--L", "-1"],
], ids=["gridsearch-rank-0", "gridsearch-negative-lambda", "gridsearch-sigma-0",
        "gridsearch-negative-L", "sweep-negative-L"])
def test_axis_ranges_are_checked_before_the_data(tmp_path, argv):
    # reading the missing data file would exit 2
    rc = main([*argv, "--data", str(tmp_path / "missing.csv"),
               "-o", str(tmp_path / "out.csv")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--data", "missing.csv", "-o", "out"],
    ["generate", "--homes", "4", "--appliances", "2", "--months", "3", "-o", "x.csv"],
], ids=["simulate", "generate"])
def test_malformed_env_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("ACTSENSE_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "ACTSENSE_SEED must be an integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, env_seed", [
    (["simulate", "--seed", "-1"], None),
    (["sweep", "--seeds", "-2", "--L", "1"], None),
    (["generate", "--seed", "-1"], None),
    (["generate"], "-3"),
    (["simulate"], "-3"),
], ids=["simulate", "sweep-seeds", "generate", "generate-env", "simulate-env"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv, env_seed):
    monkeypatch.delenv("ACTSENSE_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("ACTSENSE_SEED", env_seed)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "generate":
        argv = [*argv, "--homes", "4", "--appliances", "2", "--months", "3"]
    else:
        argv = [*argv, "--data", "missing.csv"]  # reading it would exit 2
    assert main([*argv, "-o", "out"]) == 1
    assert "must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("val_fraction", ["1.0", "1.5", "-0.5"])
def test_val_fraction_outside_unit_interval_is_usage_error(tmp_path, monkeypatch, capsys,
                                                           val_fraction):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.conf").write_text(f"val_fraction={val_fraction}\n", encoding="utf-8")
    argv = ["simulate", "--data", "missing.csv", "--config", "c.conf", "-o", "out"]
    assert main(argv) == 1  # reading the missing data would exit 2
    assert "0 <= val_fraction < 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.conf"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--folds", "3", "--fold", "3"], "--fold must be in [0, 3)"),
    (["simulate", "--fold", "-1"], "--fold must be in [0, 5)"),
    (["gridsearch", "--config", "c.conf", "--ranks", "2", "--lambdas", "100",
      "--sigmas", "2"], "set val_fraction > 0"),
    (["simulate", "--sigma", "0"], "sigma_window must be >= 1"),
    (["simulate", "--horizon", "0"], "horizon must be >= 1"),
    (["simulate", "--min-coverage", "1.5"], "0 <= min_coverage <= 1"),
    (["simulate", "--min-coverage", "nan"], "0 <= min_coverage <= 1"),
    (["simulate", "--min-coverage", "-1"], "0 <= min_coverage <= 1"),
    (["simulate", "--alpha", "-1"], "alpha_home and alpha_app must be finite and >= 0"),
    (["simulate", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
    (["sweep", "--L", "1", "--jobs", "-3"], "argument --jobs: must be >= 1, got -3"),
    (["gridsearch", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
], ids=["simulate-fold-past-folds", "simulate-negative-fold", "gridsearch-no-validation",
        "simulate-zero-sigma", "simulate-zero-horizon", "simulate-coverage-past-one",
        "simulate-nan-coverage", "simulate-negative-coverage", "simulate-negative-alpha",
        "simulate-zero-jobs", "sweep-negative-jobs", "gridsearch-zero-jobs"])
def test_usage_errors_come_before_the_data(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.conf").write_text("val_fraction=0\n", encoding="utf-8")
    # reading the missing data would exit 2
    assert main([*argv, "--data", "missing.csv", "-o", "out"]) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.conf"]


def test_committee_unchecked_when_qbc_does_not_run(dataset, tmp_path):
    rc = main(["simulate", "--data", str(dataset), "--strategy", "random",
               "--committee", "2", "--L", "1", "--T", "2", "--folds", "2",
               "--fold", "0", "--lambda", "100", "--max-sweeps", "5",
               "-o", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "random", "--L", "1"],
    ["sweep", "--strategies", "random", "--L", "1"],
    ["gridsearch", "--strategy", "random", "--ranks", "2", "--lambdas", "100",
     "--sigmas", "2", "--L", "1"],
], ids=["simulate", "sweep", "gridsearch"])
def test_horizon_past_the_data_is_usage_error(dataset, tmp_path, argv, capsys,
                                               monkeypatch):
    ran = []
    monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: ran.append(1))
    monkeypatch.setattr(simulator, "run_with_state",
                        lambda *args, **kwargs: ran.append(1))
    out = tmp_path / "out"
    rc = main([*argv, "--data", str(dataset), "--T", "20", "--folds", "2",
               "-o", str(out)])
    assert rc == 1 and ran == [] and not out.exists()
    assert "--T 20 exceeds the 4 months in the data" in capsys.readouterr().err


class TestEveryOptionReachesTheSimulator:
    """A config file sets every key off its default; each subcommand must
    hand the resolved values to the simulator."""

    CONFIG = """strategy=qbc
rank=1
lambda=7
lambda1=11
lambda2=12
lambda3=13
sigma=2
horizon=6
alpha=0.5
alpha_home=0.3
alpha_app=0.4
L=2
T=3
folds=3
val_fraction=0.4
seed=5
mode=current
committee=1,2
min_coverage=0.5
max_sweeps=7
tol=0.001
sequential=yes
"""
    MODEL = ModelConfig(rank=1, lambda1=11.0, lambda2=12.0, lambda3=13.0,
                        max_sweeps=7, tol=0.001, seed=5)
    SHARED = {"T": 3, "confidence": ConfidenceParams(alpha_home=0.3, alpha_app=0.4),
              "uncertainty_mode": "current", "committee_ranks": (1, 2),
              "sequential": True}

    class Recorded(Exception):
        """Stops a run once its simulator arguments are recorded."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            raise self.Recorded

        real_load = data_io.load_csv

        def load(path, min_coverage):
            calls.append(("load_csv", min_coverage))
            return real_load(path, min_coverage=min_coverage)

        monkeypatch.setattr(simulator, "run_with_state", record)
        monkeypatch.setattr(simulator, "run", record)
        monkeypatch.setattr(data_io, "load_csv", load)
        return calls

    def _record(self, dataset, tmp_path, calls, config, *argv):
        conf = tmp_path / "run.conf"
        conf.write_text(config, encoding="utf-8")
        with pytest.raises(self.Recorded):
            main([*argv, "--data", str(dataset), "--config", str(conf),
                  "-o", str(tmp_path / "out")])
        return calls[-1]

    def _run(self, dataset, tmp_path, calls, split_seed, *argv):
        (tensor, split, strategy), kwargs = self._record(
            dataset, tmp_path, calls, self.CONFIG, *argv)
        assert calls[0] == ("load_csv", 0.5)
        assert split == kfold_split(range(tensor.num_homes), k=3,
                                    val_fraction=0.4, seed=split_seed)[0]
        assert {key: kwargs[key] for key in self.SHARED} == self.SHARED
        return strategy, kwargs

    @pytest.mark.parametrize("argv, strategy, seed", [
        (["simulate"], "qbc", 5),
        (["sweep", "--strategies", "random", "--L", "2", "--seeds", "4"], "random", 4),
    ])
    def test_simulate_and_sweep(self, dataset, tmp_path, calls, argv, strategy, seed):
        got_strategy, kwargs = self._run(dataset, tmp_path, calls, seed, *argv)
        assert got_strategy == strategy
        # revivals reseed from the run's seed
        assert kwargs["model_config"] == replace(self.MODEL, seed=seed)
        assert kwargs["kernel_config_kwargs"] == {"sigma_window": 2, "horizon": 6}
        assert (kwargs["L"], kwargs["seed"]) == (2, seed)

    def test_gridsearch(self, dataset, tmp_path, calls):
        strategy, kwargs = self._run(
            dataset, tmp_path, calls, 5, "gridsearch", "--ranks", "3",
            "--lambdas", "9", "--sigmas", "4", "--L", "1")
        assert strategy == "qbc"
        assert kwargs["model_config"] == replace(self.MODEL, rank=3, lambda1=9.0,
                                                 lambda2=9.0, lambda3=9.0)
        assert kwargs["kernel_config_kwargs"] == {"sigma_window": 4, "horizon": 6}
        assert (kwargs["L"], kwargs["seed"]) == (1, 5)

    def test_lambda_and_alpha_fill_unset_keys(self, dataset, tmp_path, calls):
        _, kwargs = self._record(dataset, tmp_path, calls,
                                 "lambda=7\nlambda2=12\nalpha=0.5\nalpha_app=0.4\n",
                                 "simulate", "--T", "2", "--folds", "2")
        model = kwargs["model_config"]
        assert (model.lambda1, model.lambda2, model.lambda3) == (7.0, 12.0, 7.0)
        assert kwargs["confidence"] == ConfidenceParams(alpha_home=0.5, alpha_app=0.4)
